"""End-to-end benchmark of the embstab CLI pipeline.

    python3 perfbench/run.py --workload retrain_chain --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --quick      # every workload at tiny sizes, as a self-test

Run from the repository root. Each workload builds its inputs with
`embstab simulate`, seeds a store, then repeats whole rounds of CLI commands
(one child process each) until --seconds have passed. A round is one
retraining cycle: `stabilize` the next run, `apply` user files through its
user map, `validate` a pair of runs stabilized and raw. The workloads differ
in sizes, so a different layer dominates each. Every output is checked
against the benchmark's own codec and numpy (oracle.py); an operation whose
command fails or whose output fails a check counts as failed.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 the same rounds alternate between plain
and traced children (tracer.py) and the object holds the per-layer metrics.
README.md lists what each metric means and which workload moves it.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread in this process and every child, so that timings
# do not depend on a second core being free. Set before numpy is imported.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = HERE / "_results"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import tracer  # noqa: E402
from embfile import FormatError, read_emb, read_emb_count, write_emb  # noqa: E402

SETUP_REPEATS = 3
NOISE_SCALE = 0.05  # simulated retraining noise; oracle.stability_limits uses it
CHURN = 0.05  # share of item ids replaced in each simulated run
STARTUP_PROBES = 5
PARTITION_ROWS = 1000


@dataclass(frozen=True)
class Sim:
    """One `embstab simulate` config: run 0 plus `runs` retrained runs."""

    items: int
    users: int
    dim: int
    precision: str
    runs: int

    def config(self, seed: int) -> str:
        return (
            f"n_items = {self.items}\nn_users = {self.users}\ndim = {self.dim}\n"
            f"noise_scale = {NOISE_SCALE}\nrotation = orthogonal\n"
            f"vocab_drop_fraction = {CHURN}\nseed = {seed}\n"
        )


@dataclass(frozen=True)
class Workload:
    chain: Sim  # store that every round stabilizes into; apply uses its maps
    drift: Sim | None = None  # separate store for validate; None: the chain store
    streams: tuple = ()  # (rows, precision) user files streamed through the newest map
    stabilize_per_round: int = 2


WORKLOADS = {
    # Stabilize-heavy: 16384 x 64 per side (4.2 MB float32, 8.4 MB as
    # float64). validate materializes the users x items scores (2.1 GB per
    # run at this size), so it runs on a small separate store.
    "retrain_chain": Workload(
        chain=Sim(16384, 16384, 64, "f32", runs=2),
        drift=Sim(2048, 512, 64, "f32", runs=1),
        stabilize_per_round=3,
    ),
    # Apply-heavy: a small store at width 32, and two 131072-row user files,
    # float32 and float64, streamed through the newest user map in the CLI's
    # 65536-row chunks (16.8 MB per float64 chunk).
    "apply_stream": Workload(
        chain=Sim(2048, 512, 32, "f32", runs=2),
        streams=((131072, "f32"), (131072, "f64")),
    ),
    # Validate-heavy: 1024 users x 4096 items, float64, validated pairwise.
    "validate_drift": Workload(chain=Sim(4096, 1024, 64, "f64", runs=2)),
}


def quick(w: Workload) -> Workload:
    """The same workload at tiny sizes, for the self-test."""

    def small(sim: Sim | None) -> Sim | None:
        return sim and replace(sim, items=min(sim.items, 600), users=min(sim.users, 300), dim=16)

    streams = tuple((4000, precision) for _, precision in w.streams)
    return replace(w, chain=small(w.chain), drift=small(w.drift), streams=streams)


class CommandFailed(Exception):
    pass


@dataclass
class Command:
    kind: str
    wall: float
    cpu: float
    rss_mb: float
    spans: list | None = None
    rows: int = 0
    traced: bool = False


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_cli(args: list, stderr_path: Path, spans: Path | None = None) -> Command:
    """Run one CLI command in a fresh process; time it and read its rusage."""
    if spans is None:
        cmd = [sys.executable, "-m", "embstab.cli", *map(str, args)]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), "--", *map(str, args)]
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = stderr_path.read_text()[-2000:]
        raise CommandFailed(f"{' '.join(cmd[2:])} exited {proc.returncode}: {tail}")
    return Command(
        kind=str(args[0]),
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss * 1024 / 1e6,
        spans=json.loads(spans.read_text()) if spans is not None else None,
    )


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Layout:
    """Where one set-up puts its inputs and stores."""

    def __init__(self, root: Path):
        self.root = root
        self.chain_sim, self.chain = root / "sim_chain", root / "store_chain"
        self.drift_sim, self.drift = root / "sim_drift", root / "store_drift"

    def stream(self, i: int) -> Path:
        return self.root / f"stream_{i}" / "run_000.users.emb"

    @staticmethod
    def run_file(sim: Path, k: int, side: str) -> Path:
        return sim / f"run_{k:03d}.{side}.emb"


class Bench:
    def __init__(self, name: str, workload: Workload, seed: int, seconds: float, trace: bool, work: Path):
        self.name = name
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.rng = np.random.default_rng([seed, 20250811])
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.timed: list[Command] = []
        self.setup_traced: list[dict] = []
        self.store_growth: list[int] = []
        self._n = 0

    # -- running commands -------------------------------------------------

    def cli(self, args: list, traced: bool = False) -> Command:
        self._n += 1
        spans = self.work / "spans" / f"{self._n:05d}.json" if traced else None
        if spans is not None:
            spans.parent.mkdir(exist_ok=True)
        command = run_cli(args, self.work / "stderr.log", spans)
        command.traced = traced
        return command

    def setup_cli(self, args: list, traced: bool) -> None:
        command = self.cli(args, traced)
        if traced:
            self.setup_traced.append({"kind": command.kind, "spans": command.spans})

    # -- set-up -----------------------------------------------------------

    def set_up(self, lay: Layout, traced: bool) -> float:
        """Make the inputs and seed the stores; returns its wall time."""
        w = self.w
        configs = [(w.chain, lay.chain_sim, self.seed)]
        if w.drift is not None:
            configs.append((w.drift, lay.drift_sim, self.seed + 1))
        for i, (rows, precision) in enumerate(w.streams):
            user_only = Sim(w.chain.dim, rows, w.chain.dim, precision, runs=0)
            configs.append((user_only, lay.stream(i).parent, self.seed + 2 + i))
        lay.root.mkdir(parents=True)
        for sim, out, seed in configs:
            (out.parent / f"{out.name}.cfg").write_text(sim.config(seed))

        start = time.perf_counter()
        for sim, out, _ in configs:
            self.setup_cli(
                ["simulate", "--config", out.parent / f"{out.name}.cfg", "--runs", sim.runs,
                 "--out", out, "--precision", sim.precision],
                traced,
            )
        self.setup_cli(self.init_args(lay.chain_sim, lay.chain, "c0"), traced)
        if w.drift is not None:
            self.setup_cli(self.init_args(lay.drift_sim, lay.drift, "d0"), traced)
            self.setup_cli(self.stabilize_args(lay.drift_sim, 1, lay.drift, "d1"), traced)
        return time.perf_counter() - start

    @staticmethod
    def init_args(sim: Path, store: Path, run_id: str) -> list:
        return ["init", "--items", Layout.run_file(sim, 0, "items"), "--users",
                Layout.run_file(sim, 0, "users"), "--run-id", run_id, "--out", store]

    @staticmethod
    def stabilize_args(sim: Path, k: int, store: Path, run_id: str) -> list:
        return ["stabilize", "--items", Layout.run_file(sim, k, "items"), "--users",
                Layout.run_file(sim, k, "users"), "--run-id", run_id, "--out", store]

    def check_set_up(self, lay: Layout, deep: bool) -> None:
        """Every file the set-up wrote passes the codec; the kept set-up also
        passes the seed-run checks (spectrum, maps, losslessness)."""
        try:
            for path in sorted(lay.root.rglob("*.emb")):
                oracle.check_emb(path)
            for path in sorted(lay.root.rglob("*.olt")):
                oracle.check_olt(path)
            if not deep:
                return
            self.check_run(lay.chain, lay.chain_sim, 0, "c0", "c0", seed_run=True)
            if self.w.drift is not None:
                self.check_run(lay.drift, lay.drift_sim, 0, "d0", "d0", seed_run=True, latest=False)
                self.check_run(lay.drift, lay.drift_sim, 1, "d1", "d0", previous="d0")
        except (oracle.CheckFailed, FormatError, OSError, KeyError, ValueError) as exc:
            self.correct = False
            log(f"set-up check failed: {exc}")

    def check_run(self, store, sim_dir, k, run_id, ref, seed_run=False, previous=None, latest=True) -> None:
        oracle.check_run(
            store, run_id, ref,
            Layout.run_file(sim_dir, k, "items"), Layout.run_file(sim_dir, k, "users"),
            self.rng, seed_run=seed_run,
            previous=store / "runs" / previous if previous else None,
            noise_scale=NOISE_SCALE, latest=latest,
        )

    # -- operations -------------------------------------------------------

    def op(self, fn, in_round: bool = True) -> None:
        """One checked operation. In a round, a failed command or check counts
        as a failed operation; outside the rounds (warm-up, partition check)
        it makes the run incorrect, so `attempted` counts whole rounds only."""
        self.attempted += in_round
        try:
            fn()
        except (CommandFailed, oracle.CheckFailed, FormatError, OSError, KeyError, ValueError) as exc:
            self.failed += in_round
            self.correct = self.correct and in_round
            log(f"operation failed: {exc}")

    def apply(self, src: Path, olt: Path, out: Path, traced: bool, timed: bool, same_as: Path | None = None):
        command = self.cli(["apply", "--emb", src, "--transform", olt, "--out", out], traced)
        command.rows = read_emb_count(src)
        if timed:
            self.timed.append(command)
        if same_as is not None:
            if out.read_bytes() != same_as.read_bytes():
                raise oracle.CheckFailed(f"{out}: differs from {same_as}")
        else:
            oracle.check_apply(src, olt, out)
        return command

    def round(self, lay: Layout, k: int, traced: bool) -> str:
        """One retraining cycle; returns the id of the last run it committed."""
        w = self.w
        out = self.work / "apply_out.emb"
        for j in range(w.stabilize_per_round):
            i = (k - 1) * w.stabilize_per_round + j + 1
            run, prev = f"c{i}", f"c{i - 1}"
            run_dir = lay.chain / "runs" / run

            def stabilize():
                pool = (i - 1) % w.chain.runs + 1
                before = tree_bytes(lay.chain)
                self.timed.append(self.cli(self.stabilize_args(lay.chain_sim, pool, lay.chain, run), traced))
                self.store_growth.append(tree_bytes(lay.chain) - before)
                self.check_run(lay.chain, lay.chain_sim, pool, run, prev, previous=prev)
                # Runs older than the previous one are never read again; removing
                # them at once keeps their pages from being written back to disk
                # while later commands are timed.
                shutil.rmtree(lay.chain / "runs" / f"c{i - 2}", ignore_errors=True)

            self.op(stabilize)
            if not w.streams:
                # A run's raw users through its own user map are its stored users.
                self.op(lambda: self.apply(run_dir / "raw_users.emb", run_dir / "mW.olt", out, traced, True,
                                           same_as=run_dir / "users.emb"))
        for i in range(len(w.streams)):
            self.op(lambda: self.apply(lay.stream(i), run_dir / "mW.olt", out, traced, timed=True))
        store, pair = (lay.drift, ("d0", "d1")) if w.drift is not None else (lay.chain, (prev, run))
        for raw in (False, True):
            self.op(lambda: self.validate(store, *pair, raw, traced, k))
        out.unlink(missing_ok=True)
        return run

    def validate(self, store: Path, a: str, b: str, raw: bool, traced: bool, k: int) -> None:
        report = self.work / "reports" / f"{k}{'-raw' if raw else ''}"
        args = ["validate", "--run-a", a, "--run-b", b, "--store", store, "--out", report]
        self.timed.append(self.cli(args + (["--raw"] if raw else []), traced))
        oracle.check_validate(report, store / "runs" / a, store / "runs" / b, raw, self.rng)
        shutil.rmtree(report)

    def partition_check(self, lay: Layout, run: str) -> None:
        """Streaming a row subset, written by the benchmark's own writer,
        gives byte-identical records for those rows."""
        olt = lay.chain / "runs" / run / "mW.olt"
        src = lay.stream(0) if self.w.streams else lay.chain / "runs" / run / "raw_users.emb"
        full = self.work / "partition_full.emb"
        part_in = self.work / "partition_in.emb"
        part_out = self.work / "partition_out.emb"
        self.apply(src, olt, full, traced=False, timed=False)
        emb = read_emb(src)
        rows = np.sort(self.rng.choice(emb.count, size=min(PARTITION_ROWS, emb.count), replace=False))[::-1]
        write_emb(part_in, emb.role, emb.ids[rows], emb.vectors[rows])
        self.apply(part_in, olt, part_out, traced=False, timed=False)
        if read_emb(part_out).record_bytes(np.arange(rows.size)) != read_emb(full).record_bytes(rows):
            raise oracle.CheckFailed("streamed row subset differs from the same rows of the full file")

    # -- the run ------------------------------------------------------------

    def run(self) -> dict:
        setup_times = []
        repeats = 1 if self.trace else SETUP_REPEATS
        for r in range(repeats):
            lay = Layout(self.work / f"setup{r}")
            setup_times.append(self.set_up(lay, traced=self.trace))
            self.check_set_up(lay, deep=(r == repeats - 1))
            if r < repeats - 1:
                shutil.rmtree(lay.root)
        log(f"{self.name}: set-up {', '.join(f'{t:.2f}' for t in setup_times)} s")

        # Untimed warm-up: the seed run's raw users through its own map.
        seed_run = lay.chain / "runs" / "c0"
        self.op(lambda: self.apply(seed_run / "raw_users.emb", seed_run / "mW.olt",
                                   self.work / "warm.emb", False, False, same_as=seed_run / "users.emb"),
                in_round=False)

        plain: list[float] = []
        traced_walls: list[float] = []
        deadline = time.perf_counter() + self.seconds
        k = 0
        while k < (2 if self.trace else 1) or time.perf_counter() < deadline:
            k += 1
            traced = self.trace and k % 2 == 0
            first = len(self.timed)
            last = self.round(lay, k, traced)
            (traced_walls if traced else plain).append(sum(c.wall for c in self.timed[first:]))
        self.op(lambda: self.partition_check(lay, last), in_round=False)
        log(f"{self.name}: {k} rounds, {self.attempted} operations, {self.failed} failed")
        for kind in ("stabilize", "apply", "validate"):
            walls = [c.wall for c in self.timed if c.kind == kind]
            cpus = [c.cpu for c in self.timed if c.kind == kind]
            shown = " ".join(f"{x:.3f}" for x in walls)
            log(f"  {kind}: n={len(walls)} wall {shown} cpu median {median0(cpus):.3f}")

        if self.trace:
            metrics = self.layer_metrics(plain, traced_walls)
            RESULTS.mkdir(exist_ok=True)
            (RESULTS / f"trace-{self.name}-seed{self.seed}.json").write_text(json.dumps(
                {"setup": self.setup_traced,
                 "timed": [{"kind": c.kind, "spans": c.spans} for c in self.timed if c.spans]}))
        else:
            metrics = self.end_to_end(setup_times)
        return {"correct": self.correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}

    def of(self, kind: str, traced: bool = False) -> list[Command]:
        return [c for c in self.timed if c.kind == kind and c.traced == traced]

    def end_to_end(self, setup_times: list[float]) -> dict:
        # A kind whose every command failed reads 0; `failed` says why.
        applies = self.of("apply")
        return {
            "setup_s": statistics.median(setup_times),
            "stabilize_s": median0([c.wall for c in self.of("stabilize")]),
            "apply_rows_per_s": sum(c.rows for c in applies) / (sum(c.wall for c in applies) or math.inf),
            "validate_s": median0([c.wall for c in self.of("validate")]),
            "peak_rss_mb": max([c.rss_mb for c in self.timed], default=0.0),
            "store_mb_per_run": statistics.fmean(self.store_growth) / 1e6 if self.store_growth else 0.0,
        }

    def layer_metrics(self, plain: list[float], traced: list[float]) -> dict:
        commands = [{"kind": c.kind, "spans": c.spans, "rows": c.rows} for c in self.timed if c.spans]
        metrics = tracer.layer_metrics(commands, self.setup_traced)
        startup = [run_cli(["--help"], self.work / "stderr.log").wall for _ in range(STARTUP_PROBES)]
        metrics["cli.startup_s"] = statistics.median(startup)
        for kind in ("stabilize", "apply", "validate"):
            metrics[f"cli.{kind}_cpu_s"] = median0([c.cpu for c in self.of(kind)])
        metrics["trace.overhead_pct"] = 100.0 * (statistics.fmean(traced) / statistics.fmean(plain) - 1.0)
        return metrics


def median0(values: list) -> float:
    return statistics.median(values) if values else 0.0


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        result = Bench(name, workload, seed, seconds, trace, work).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = declared_metrics(trace)
    if set(result["metrics"]) != set(units):
        raise SystemExit(f"metrics {sorted(result['metrics'])} do not match BENCHMARK.json {sorted(units)}")
    result["metrics"] = {k: {"value": result["metrics"][k], "unit": units[k]} for k in units}
    return result


def self_test() -> int:
    """Every workload at tiny sizes, plain and traced, through the same code
    and checks; fails unless every run is correct with no failed operation."""
    bad = 0
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            result = run_workload(name, quick(workload), seed=1, seconds=0, trace=trace)
            values = [m["value"] for m in result["metrics"].values()]
            ok = result["correct"] and result["failed"] == 0 and all(np.isfinite(values))
            ok = ok and (trace or all(v > 0 for v in values))
            bad += not ok
            log(f"quick {name} trace={int(trace)}: {'ok' if ok else 'FAILED'} {json.dumps(result)}")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny self-test of every workload")
    args = parser.parse_args()
    if not (SRC / "embstab" / "cli.py").is_file():
        log(f"no embstab sources under {SRC}; run from a checkout of the repository")
        return 2
    if args.quick:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required unless --quick is given")
    result = run_workload(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
