"""Command-line pipeline driver.

Subcommands: simulate (synthetic runs), init (seed the reference space),
stabilize (map a new run into it), validate (compare two stored runs),
apply (stream an embedding file through a stored transform). A run's rank
is read from its spectrum, so a rank-deficient run commits with a warning.
Diagnostics go to standard error, a warning as one `warning: <message>` line;
data goes to files. Exit codes: 0 success; 3 for CorruptFile, OSError or
MemoryError, an I/O error (including a malformed run `meta` or a run file
whose digest differs from it) or out of memory; 2 for every other
EmbStabError, a validation error such as bad dimensions, a stale reference,
an input holding NaN, Inf or a repeated id, or a map that makes an output
row NaN or Inf. README's "CLI pipeline" lists every case.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import (
    CorruptFile,
    DimensionMismatch,
    EmbStabError,
    InvalidConfig,
)
from .lowrank import _refuse_rows, apply_transform
from .metrics import RBO_DEPTH, RBO_PERSISTENCE, MetricsReport, compare_runs, write_report
from .simulator import gen_ground_truth, gen_retrained_run, load_sim_config
from .stabilizer import init_reference, stabilize_run
from .store import (
    RunStore,
    open_embeddings,
    read_embeddings,
    read_transform,
    write_embedding_chunks,
    write_embeddings,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embstab",
        description="Stabilize recommender embedding spaces across retraining runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="seed the reference space from a run")
    p.add_argument("--items", required=True, help="item embedding file (.emb)")
    p.add_argument("--users", required=True, help="user embedding file (.emb)")
    p.add_argument("--run-id", required=True)
    p.add_argument("--out", required=True, help="store root directory")
    p.set_defaults(func=_cmd_init)

    p = sub.add_parser("stabilize", help="map a new run into the reference space")
    p.add_argument("--items", required=True)
    p.add_argument("--users", required=True)
    p.add_argument("--run-id", required=True)
    p.add_argument("--out", required=True, help="store root directory")
    p.add_argument("--ref", help="pin a reference run id (default: latest); "
                   "pinning an older run needs --no-advance")
    p.add_argument(
        "--no-advance",
        action="store_true",
        help="do not move the latest-reference pointer to this run",
    )
    p.set_defaults(func=_cmd_stabilize)

    p = sub.add_parser("validate", help="compare two stored runs")
    p.add_argument("--run-a", required=True)
    p.add_argument("--run-b", required=True)
    p.add_argument("--store", required=True, help="store root directory")
    p.add_argument("--raw", action="store_true", help="compare raw instead of stabilized")
    p.add_argument("--top-k", type=int, default=RBO_DEPTH)
    p.add_argument("--rbo-p", type=float, default=RBO_PERSISTENCE)
    p.add_argument("--out", default=None, help="report directory (default: store reports/)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("simulate", help="generate synthetic ground truth and retrained runs")
    p.add_argument("--config", required=True, help="flat key = value config file")
    p.add_argument("--runs", type=int, required=True, help="number of retrained runs")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--precision",
        choices=("f32", "f64"),
        default="f32",
        help="storage precision for generated embeddings",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("apply", help="stream an embedding file through a transform")
    p.add_argument("--emb", required=True)
    p.add_argument("--transform", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_apply)

    return parser


def _cmd_init(args) -> int:
    items, users = read_embeddings(args.items), read_embeddings(args.users)
    run = init_reference(items, users, run_id=args.run_id)
    RunStore(args.out).save_run(run, advance=True)
    print(f"initialized reference space from run {args.run_id!r}", file=sys.stderr)
    return EXIT_OK


def _cmd_stabilize(args) -> int:
    items, users = read_embeddings(args.items), read_embeddings(args.users)
    store = RunStore(args.out)
    ref = store.reference_space(args.ref)
    run = stabilize_run(items, users, ref, run_id=args.run_id)
    store.save_run(run, advance=not args.no_advance)
    print(
        f"stabilized run {args.run_id!r} against reference {ref.run_id!r}",
        file=sys.stderr,
    )
    return EXIT_OK


def _render_table(report: MetricsReport, run_a: str, run_b: str, raw: bool) -> str:
    mode = "raw" if raw else "stabilized"
    rows = [
        ("User Similarity", f"{run_a} vs {run_b}", report.mean_user_cosine),
        ("Item Similarity", f"{run_a} vs {run_b}", report.mean_item_cosine),
        ("Rank Correlation", f"{run_a}{run_a} vs {run_a}{run_b}", report.mean_rbo),
    ]
    width = max(len(r[1]) for r in rows)
    lines = [f"{'Metric':<17} {'Comparison':<{width}}  {mode.capitalize()}"]
    for name, comparison, value in rows:
        lines.append(f"{name:<17} {comparison:<{width}}  {value:.4f}")
    return "\n".join(lines)


def _pair(run, raw: bool):
    """A stored run's (items, users): raw, or stabilized as save_run wrote
    them, by the same kernel."""
    if raw:
        return run.raw_items, run.raw_users
    return (apply_transform(run.raw_items, run.item_map),
            apply_transform(run.raw_users, run.user_map))


def _cmd_validate(args) -> int:
    store = RunStore(args.store)
    sides = [side for run_id in (args.run_a, args.run_b)
             for side in _pair(store.load_run(run_id), args.raw)]
    report = compare_runs(*sides, top_k=args.top_k, p=args.rbo_p)
    out_dir = (
        Path(args.out)
        if args.out
        else store.root / "reports" / f"{args.run_a}_vs_{args.run_b}{'.raw' if args.raw else ''}"
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report(report, out_dir / "report.txt", out_dir / "report.json")
    print(_render_table(report, args.run_a, args.run_b, args.raw), file=sys.stderr)
    print(f"report written to {out_dir}", file=sys.stderr)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = load_sim_config(args.config)
    if args.runs < 0:
        raise InvalidConfig(f"--runs must be >= 0, got {args.runs}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dtype = np.float32 if args.precision == "f32" else np.float64
    items, users = gen_ground_truth(cfg)
    # One run at a time: each is generated, written and dropped before the next.
    for k in range(args.runs + 1):
        it, us = gen_retrained_run(items, users, cfg, run_index=k) if k else (items, users)
        write_embeddings(it.astype(dtype), out / f"run_{k:03d}.items.emb")
        write_embeddings(us.astype(dtype), out / f"run_{k:03d}.users.emb")
        del it, us
    print(f"wrote {2 * (args.runs + 1)} embedding files to {out}", file=sys.stderr)
    return EXIT_OK


def _checked_rows(role, count: int, chunks):
    """(ids, vectors) of each streamed chunk; after the last, once the reader
    has checked the digest, rows that read_embeddings refuses raise what it
    raises, found in a copy of the ids (8 bytes a row)."""
    ids, finite, start = np.empty(count, dtype=np.uint64), True, 0
    for chunk_ids, vectors in chunks:
        finite = finite and bool(np.all(np.isfinite(vectors)))
        ids[start : start + len(chunk_ids)] = chunk_ids
        start += len(chunk_ids)
        yield chunk_ids, vectors
    ids.sort()
    _refuse_rows(role, ids, finite)


def _cmd_apply(args) -> int:
    transform = read_transform(args.transform)
    with open_embeddings(args.emb) as (role, precision, count, dim, chunks):
        if dim != transform.shape[0]:
            raise DimensionMismatch(
                f"embedding width {dim} != transform row count {transform.shape[0]}"
            )
        # The codec call that writes a stored run's stabilized pair, so the
        # streamed file matches it, and apply_transform, bit for bit. It
        # drains the rows, checks and all, before renaming --out into place.
        write_embedding_chunks(
            args.out, role, precision, count, transform.shape[1],
            _checked_rows(role, count, chunks), transform,
        )
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    formatwarning = warnings.formatwarning  # shown warnings read as errors do
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        return args.func(args)
    except (CorruptFile, OSError) as exc:  # caught before EmbStabError, its base
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except EmbStabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        warnings.formatwarning = formatwarning


def run() -> NoReturn:
    """Process entry of `embstab` and `python -m embstab.cli`: main(), then
    the standard streams flushed and the process ended by os._exit, which
    skips the interpreter's teardown (30-60 ms a command, most of it the
    collector's last passes over what numpy made). Nothing is lost by it:
    when main() returns, every file a command wrote is closed by its `with`
    block, a commit's files also synced, every helper thread is joined, and
    the package registers no exit hook. Whatever escapes main(), argparse's
    SystemExit for --help and usage errors or a traceback, exits normally.
    Called from Python, main() returns its code and the process goes on."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
