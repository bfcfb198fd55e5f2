"""Spans around embstab's public functions, installed from outside the package.

Run as a script it wraps the functions below, runs one `embstab` CLI command
in-process, and writes the spans it kept in memory as JSON when the command
ends:

    python3 perfbench/tracer.py SPANS.json -- stabilize --items ... --out ...

A span is [name, start, end, parent index or -1, attributes or null], with
perf_counter times in seconds. layer_metrics() turns the spans of many
commands into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

MODULES = ("lowrank", "procrustes", "stabilizer", "store", "metrics", "simulator", "cli")


def _size(path) -> int:
    return os.path.getsize(path)


def _svd_attrs(args, kwargs, result):
    items, users = args[0], args[1]
    return {"n": items.n, "m": users.n, "e": items.dim}


def _validate_record_bytes(args, kwargs, result):
    store, record = args
    return {"bytes": sum(_size(store.run_dir(record.run_id) / name) for name in record.files)}


# (span name, module, attribute, attributes recorded when the call returns)
TARGETS = (
    ("lowrank.EmbeddingMatrix", "lowrank", "EmbeddingMatrix.__post_init__", None),
    ("lowrank.positions", "lowrank", "EmbeddingMatrix.positions", None),
    ("lowrank.low_rank_svd_trans", "lowrank", "low_rank_svd_trans", _svd_attrs),
    (
        "lowrank.apply_transform",
        "lowrank",
        "apply_transform",
        lambda a, k, r: {"bytes": a[0].vectors.nbytes + r.vectors.nbytes},
    ),
    ("procrustes.ortho_procrustes", "procrustes", "ortho_procrustes", None),
    ("stabilizer.init_reference", "stabilizer", "init_reference", None),
    ("stabilizer.stabilize_run", "stabilizer", "stabilize_run", None),
    ("store.read_embeddings", "store", "read_embeddings", lambda a, k, r: {"bytes": _size(a[0])}),
    ("store.write_embeddings", "store", "write_embeddings", lambda a, k, r: {"bytes": _size(a[1])}),
    ("store.read_transform", "store", "read_transform", lambda a, k, r: {"bytes": _size(a[0])}),
    ("store.write_transform", "store", "write_transform", lambda a, k, r: {"bytes": _size(a[1])}),
    ("store.save_run", "store", "RunStore.save_run", None),
    ("store.validate_record", "store", "RunStore.validate_record", _validate_record_bytes),
    ("store.reference_space", "store", "RunStore.reference_space", None),
    ("metrics.compare_runs", "metrics", "compare_runs", None),
    ("metrics.mean_same_id_cosine", "metrics", "mean_same_id_cosine", None),
    ("metrics.rank_correlation_report", "metrics", "rank_correlation_report", None),
    ("metrics.rbo", "metrics", "rbo", None),
    ("simulator.gen_ground_truth", "simulator", "gen_ground_truth", None),
    ("simulator.gen_retrained_run", "simulator", "gen_retrained_run", None),
)


class Tracer:
    """Keeps spans in memory; spans nest by call order on one thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every reference to each target inside the embstab modules,
        so calls between modules (stabilizer -> lowrank, cli -> store) are
        traced as well as calls through the defining module."""
        modules = [importlib.import_module("embstab")]
        modules += [importlib.import_module(f"embstab.{m}") for m in MODULES]
        for name, module, attr, attrs in TARGETS:
            owner = importlib.import_module(f"embstab.{module}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(name, cls.__dict__[method], attrs))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)


def _self_times(spans, name) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - child[i] for i, s in enumerate(spans) if s[0] == name]


def _durations(spans, name) -> list[float]:
    return [s[2] - s[1] for s in spans if s[0] == name]


def _median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def layer_metrics(traced: list[dict], setup: list[dict]) -> dict[str, float]:
    """Per-layer metrics from traced commands.

    traced: timed commands, each {"kind", "spans", "rows"}; setup: the traced
    setup commands (simulate, init, seeding stabilize). `_s` metrics are the
    median over commands of the time a command spends in that span, unless
    noted; rates are summed work over summed time.
    """
    every = [c["spans"] for c in traced]

    def per_command(name, commands=every):
        return _median([sum(d) for d in (_durations(s, name) for s in commands) if d])

    def per_call(name, commands=every):
        return _median([d for s in commands for d in _durations(s, name)])

    def rate(name, unit, work, commands=every):
        spans = [x for s in commands for x in s if x[0] == name]
        busy = sum(x[2] - x[1] for x in spans)
        return sum(work(x[4]) for x in spans) / unit / busy if busy else 0.0

    def flops(a):
        # Two Householder R factors (2ne^2 - 2e^3/3 each), the e x e product
        # and two map products (2e^3 each), and the e x e SVD (~21e^3).
        n, m, e = a["n"], a["m"], a["e"]
        return 2 * e * e * (n + m) - 4 * e**3 / 3 + 6 * e**3 + 21 * e**3

    def bytes_of(names, commands=every):
        return statistics.fmean(
            [sum(x[4]["bytes"] for x in s if x[0] in names) for s in commands]
        ) / 1e6 if commands else 0.0

    sim = [c["spans"] for c in setup if c["kind"] == "simulate"]
    init = [c["spans"] for c in setup if c["kind"] == "init"]
    apply = [c for c in traced if c["kind"] == "apply"]
    apply_busy = sum(_durations(c["spans"], "cli.main")[0] for c in apply)
    return {
        "lowrank.matrix_build_s": per_command("lowrank.EmbeddingMatrix"),
        "lowrank.positions_s": per_command("lowrank.positions"),
        "lowrank.svd_trans_s": per_call("lowrank.low_rank_svd_trans"),
        "lowrank.svd_trans_gflop_per_s": rate("lowrank.low_rank_svd_trans", 1e9, flops),
        "lowrank.apply_transform_s": per_command("lowrank.apply_transform"),
        "lowrank.apply_gb_per_s": rate("lowrank.apply_transform", 1e9, lambda a: a["bytes"]),
        "procrustes.align_s": per_call("procrustes.ortho_procrustes"),
        "stabilizer.stabilize_run_self_s": _median(
            [t for s in every for t in _self_times(s, "stabilizer.stabilize_run")]
        ),
        "stabilizer.init_reference_s": per_call("stabilizer.init_reference", init),
        "store.read_embeddings_s": per_command("store.read_embeddings"),
        "store.read_mb_per_s": rate("store.read_embeddings", 1e6, lambda a: a["bytes"]),
        "store.write_embeddings_s": per_command("store.write_embeddings"),
        "store.write_mb_per_s": rate("store.write_embeddings", 1e6, lambda a: a["bytes"]),
        "store.save_run_self_s": _median([t for s in every for t in _self_times(s, "store.save_run")]),
        "store.validate_record_s": per_call("store.validate_record"),
        "store.reference_space_s": per_call("store.reference_space"),
        "store.mb_read_per_command": bytes_of(
            ("store.read_embeddings", "store.read_transform", "store.validate_record")
        ),
        "store.mb_written_per_command": bytes_of(("store.write_embeddings", "store.write_transform")),
        "metrics.cosine_s": per_command("metrics.mean_same_id_cosine"),
        "metrics.rank_correlation_s": per_call("metrics.rank_correlation_report"),
        "metrics.rbo_us_per_call": 1e6 * _median(
            [statistics.fmean(d) for d in (_durations(s, "metrics.rbo") for s in every) if d]
        ),
        "cli.apply_rows_per_s": sum(c["rows"] for c in apply) / apply_busy if apply_busy else 0.0,
        "simulator.gen_s": _median(
            [sum(_durations(s, "simulator.gen_ground_truth") + _durations(s, "simulator.gen_retrained_run"))
             for s in sim]
        ),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <embstab arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    from embstab import cli

    try:
        return tracer.wrap("cli.main", cli.main)(argv[2:])
    finally:
        Path(argv[0]).write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
