"""Output checks computed apart from the program.

Every check reads files with the benchmark's own codec (embfile.py) and
recomputes what the file should hold with plain numpy. A check raises
CheckFailed; run.py counts the operation whose output failed as failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from embfile import EmbFile, read_emb, read_olt, trailing_digest

LOSSLESS_RTOL = 1e-10
SPECTRUM_RTOL = 1e-8
REPORT_ATOL = 1e-9
RBO_ATOL = 1e-12
SAMPLE_ROWS = 256
RBO_SAMPLE_USERS = 24
RUN_FILES = ("items.emb", "users.emb", "raw_items.emb", "raw_users.emb", "mT.olt", "mW.olt")


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own computation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def stability_limits(noise_scale: float, dim: int) -> tuple[float, float]:
    """(floor for stabilized, ceiling for |raw|) mean same-id cosine between
    two simulated runs; README.md derives both."""
    return 1.0 - 8.0 * noise_scale**2, 6.0 / dim


def rounding_bound(rows: np.ndarray, m: np.ndarray, precision: int) -> np.ndarray:
    """Elementwise bound on |stored - rows @ m| from float64 accumulation
    plus one rounding to the stored precision."""
    mag = np.abs(rows) @ np.abs(m)
    accumulate = 4 * m.shape[0] * np.finfo(np.float64).eps
    store = np.finfo(np.float32).eps if precision == 4 else 0.0
    return mag * (accumulate + store) + 1e-300


def check_emb(path, role=None, precision=None, count=None, dim=None) -> EmbFile:
    try:
        emb = read_emb(path)
    except (OSError, ValueError) as exc:
        raise CheckFailed(str(exc)) from exc
    for name, want in (("role", role), ("precision", precision), ("count", count), ("dim", dim)):
        got = getattr(emb, name)
        _require(want is None or got == want, f"{path}: {name} {got}, expected {want}")
    return emb


def check_olt(path, rows=None) -> np.ndarray:
    try:
        m = read_olt(path)
    except (OSError, ValueError) as exc:
        raise CheckFailed(str(exc)) from exc
    _require(rows is None or m.shape[0] == rows, f"{path}: {m.shape[0]} rows, expected {rows}")
    return m


def _positions(ids: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    order = np.argsort(ids)
    return order[np.searchsorted(ids, wanted, sorter=order)]


def mean_same_id_cosine(a: EmbFile, b: EmbFile) -> tuple[float, int]:
    shared = np.intersect1d(a.ids, b.ids)
    va = a.vectors.astype(np.float64)[_positions(a.ids, shared)]
    vb = b.vectors.astype(np.float64)[_positions(b.ids, shared)]
    cos = np.einsum("ij,ij->i", va, vb) / (np.linalg.norm(va, axis=1) * np.linalg.norm(vb, axis=1))
    return math.fsum(cos) / cos.size, int(cos.size)


def check_run(
    store: Path,
    run_id: str,
    reference: str,
    items_in: Path,
    users_in: Path,
    rng: np.random.Generator,
    seed_run: bool = False,
    previous: Path | None = None,
    noise_scale: float = 0.0,
    latest: bool = True,
) -> None:
    """Check one committed run against its inputs."""
    run_dir = store / "runs" / run_id
    meta = json.loads((run_dir / "meta").read_text())
    _require(meta["run_id"] == run_id, f"{run_id}: meta names run {meta['run_id']!r}")
    _require(
        meta["reference_run_id"] == reference,
        f"{run_id}: reference {meta['reference_run_id']!r}, expected {reference!r}",
    )
    if latest:
        _require((store / "latest_ref").read_text().strip() == run_id, f"{run_id}: latest_ref not advanced")
    _require(sorted(meta["files"]) == sorted(RUN_FILES), f"{run_id}: meta lists {sorted(meta['files'])}")
    # The readers below verify each trailing digest against its file body.
    for name, digest in meta["files"].items():
        _require(trailing_digest(run_dir / name) == digest, f"{run_id}/{name}: digest differs from meta")

    t_in = check_emb(run_dir / "raw_items.emb", role="item")
    w_in = check_emb(run_dir / "raw_users.emb", role="user")
    # Raw copies are the inputs verbatim: same header, records and digest.
    for stored, given in ((t_in, items_in), (w_in, users_in)):
        _require(stored.raw == Path(given).read_bytes(), f"{run_id}: raw copy differs from {given}")
    e = t_in.dim
    m_t = check_olt(run_dir / "mT.olt", rows=e)
    m_w = check_olt(run_dir / "mW.olt", rows=e)
    _require(m_t.shape == m_w.shape, f"{run_id}: map shapes {m_t.shape} vs {m_w.shape}")
    ident_gap = np.abs(m_t @ m_w.T - np.eye(e)).max()
    _require(ident_gap <= LOSSLESS_RTOL, f"{run_id}: |mT mW^T - I| = {ident_gap:.3e}")

    t_hat = check_emb(run_dir / "items.emb", role="item", precision=t_in.precision, count=t_in.count)
    w_hat = check_emb(run_dir / "users.emb", role="user", precision=w_in.precision, count=w_in.count)
    _require(np.array_equal(t_hat.ids, t_in.ids), f"{run_id}: stabilized item ids reordered")
    _require(np.array_equal(w_hat.ids, w_in.ids), f"{run_id}: stabilized user ids reordered")

    it = rng.choice(t_in.count, size=min(SAMPLE_ROWS, t_in.count), replace=False)
    us = rng.choice(w_in.count, size=min(SAMPLE_ROWS, w_in.count), replace=False)
    t = t_in.vectors[it].astype(np.float64)
    w = w_in.vectors[us].astype(np.float64)
    raw_scores = t @ w.T
    scale = np.linalg.norm(raw_scores)
    gap = np.linalg.norm((t @ m_t) @ (w @ m_w).T - raw_scores) / scale
    _require(gap <= LOSSLESS_RTOL, f"{run_id}: score product changed by {gap:.3e} relative")
    for side, rows, m, stored in (("items", t, m_t, t_hat.vectors[it]), ("users", w, m_w, w_hat.vectors[us])):
        err = np.abs(stored.astype(np.float64) - rows @ m)
        _require(
            bool(np.all(err <= rounding_bound(rows, m, t_in.precision))),
            f"{run_id}: stored stabilized {side} differ from raw @ map beyond rounding",
        )

    if seed_run:
        check_spectrum(run_id, t_in, w_in, m_t, m_w, meta["spectrum"])
    if previous is not None:
        floor, ceiling = stability_limits(noise_scale, e)
        stab, _ = mean_same_id_cosine(check_emb(previous / "items.emb"), t_hat)
        raw, _ = mean_same_id_cosine(check_emb(previous / "raw_items.emb"), t_in)
        _require(stab >= floor, f"{run_id}: stabilized item cosine {stab:.4f} below floor {floor:.4f}")
        _require(abs(raw) <= ceiling, f"{run_id}: raw item cosine {raw:.4f} above ceiling {ceiling:.4f}")


def check_spectrum(run_id, t_in: EmbFile, w_in: EmbFile, m_t, m_w, spectrum) -> None:
    """Seed run: both stabilized Grams are diag(s), s = sqrt(eig((T^T T)(W^T W)))."""
    t = t_in.vectors.astype(np.float64)
    w = w_in.vectors.astype(np.float64)
    tt, ww = t.T @ t, w.T @ w
    oracle = np.sqrt(np.sort(np.linalg.eigvals(tt @ ww).real)[::-1])
    spectrum = np.asarray(spectrum)
    _require(spectrum.shape == oracle.shape, f"{run_id}: spectrum has {spectrum.size} values")
    for side, gram in (("item", m_t.T @ tt @ m_t), ("user", m_w.T @ ww @ m_w)):
        diag = np.diag(gram)
        off = np.abs(gram - np.diag(diag)).max()
        _require(off <= SPECTRUM_RTOL * oracle[0], f"{run_id}: {side} Gram off-diagonal {off:.3e}")
        rel = np.abs(diag - oracle).max() / oracle[0]
        _require(rel <= SPECTRUM_RTOL, f"{run_id}: {side} Gram diagonal off the oracle by {rel:.3e}")
    rel = np.abs(spectrum - oracle).max() / oracle[0]
    _require(rel <= SPECTRUM_RTOL, f"{run_id}: recorded spectrum off the oracle by {rel:.3e}")


def check_apply(in_path, olt_path, out_path) -> None:
    """apply output == numpy rows @ mW to rounding, ids and order kept."""
    src = check_emb(in_path)
    m = check_olt(olt_path, rows=src.dim)
    out = check_emb(out_path, role=src.role, precision=src.precision, count=src.count, dim=m.shape[1])
    _require(np.array_equal(out.ids, src.ids), f"{out_path}: ids or their order changed")
    rows = src.vectors.astype(np.float64)
    err = np.abs(out.vectors.astype(np.float64) - rows @ m)
    bound = rounding_bound(rows, m, src.precision)
    _require(bool(np.all(err <= bound)), f"{out_path}: differs from rows @ mW")


def _top_k(ids: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """Per row, the k ids of highest score, ties to the smaller id."""
    k = min(k, ids.size)
    width = min(ids.size, k + 8)
    cand = np.argpartition(-scores, width - 1, axis=1)[:, :width]
    cand_scores = np.take_along_axis(scores, cand, axis=1)
    cand_ids = ids[cand]
    order = np.lexsort((cand_ids, -cand_scores), axis=-1)
    if width < ids.size:
        # Every score left out is <= the lowest candidate; if that is below
        # the k-th score, no left-out id can tie into the top k.
        kth = np.take_along_axis(cand_scores, order[:, k - 1 : k], axis=1)[:, 0]
        _require(bool(np.all(cand_scores.min(axis=1) < kth)), "top-k candidates end in a tie")
    return np.take_along_axis(cand_ids, order, axis=1)[:, :k]


def rbo_vectorized(ra: np.ndarray, rb: np.ndarray, p: float) -> np.ndarray:
    """Extrapolated RBO of each row pair of two (users x k) ranked id arrays."""
    n_users, k = ra.shape
    user = np.repeat(np.arange(n_users), k)
    span = int(max(ra.max(), rb.max())) + 1
    key_a = user * span + ra.ravel().astype(np.int64)
    key_b = user * span + rb.ravel().astype(np.int64)
    order_b = np.argsort(key_b)
    hit = np.searchsorted(key_b, key_a, sorter=order_b)
    hit = np.minimum(hit, key_b.size - 1)
    found = key_b[order_b[hit]] == key_a
    rank_b = np.where(found, order_b[hit] % k, k)
    depth_joined = np.maximum(np.tile(np.arange(k), n_users), rank_b)  # 0-based depth where both hold it
    counts = np.zeros((n_users, k + 1))
    np.add.at(counts, (user, depth_joined), 1.0)
    agreement = np.cumsum(counts[:, :k], axis=1) / np.arange(1, k + 1)
    weights = (1.0 - p) * p ** np.arange(k)
    return agreement @ weights + p**k * agreement[:, -1]


def rbo_brute_force(a, b, p: float, depth: int) -> float:
    """RBO straight from its definition, one prefix set per depth."""
    a, b = [int(x) for x in a], [int(x) for x in b]
    d_max = min(depth, len(a), len(b))
    agreement = [len(set(a[:d]) & set(b[:d])) / d for d in range(1, d_max + 1)]
    weighted = sum(p ** (d - 1) * agreement[d - 1] for d in range(1, d_max + 1))
    return (1.0 - p) * weighted + p**d_max * agreement[-1]


def check_validate(report_dir: Path, run_a: Path, run_b: Path, raw: bool, rng, top_k=100, p=0.9) -> None:
    """report.json cosines and mean RBO against a numpy recomputation; a
    seeded sample of users' RBO against the brute-force definition."""
    report = json.loads((report_dir / "report.json").read_text())
    text = (report_dir / "report.txt").read_text()
    for key, value in report.items():
        _require(f"{key} = {value!r}\n" in text, f"{report_dir}: report.txt lacks {key}")
    prefix = "raw_" if raw else ""
    items_a = check_emb(run_a / f"{prefix}items.emb", role="item")
    items_b = check_emb(run_b / f"{prefix}items.emb", role="item")
    users_a = check_emb(run_a / f"{prefix}users.emb", role="user")
    users_b = check_emb(run_b / f"{prefix}users.emb", role="user")
    for key, (a, b) in (("user", (users_a, users_b)), ("item", (items_a, items_b))):
        mean, n = mean_same_id_cosine(a, b)
        got = report[f"mean_{key}_cosine"]
        _require(abs(got - mean) <= REPORT_ATOL, f"{report_dir}: mean_{key}_cosine {got} vs {mean}")
        count = report[f"n_{key}s_compared"]
        _require(count == n, f"{report_dir}: n_{key}s_compared {count} vs {n}")

    shared = np.intersect1d(users_a.ids, users_b.ids)
    item_vecs = items_a.vectors.astype(np.float64)
    ua = users_a.vectors.astype(np.float64)[_positions(users_a.ids, shared)]
    ub = users_b.vectors.astype(np.float64)[_positions(users_b.ids, shared)]
    ra = _top_k(items_a.ids, ua @ item_vecs.T, top_k)
    rb = _top_k(items_a.ids, ub @ item_vecs.T, top_k)
    per_user = rbo_vectorized(ra, rb, p)
    mean_rbo = math.fsum(per_user) / per_user.size
    _require(
        abs(report["mean_rbo"] - mean_rbo) <= REPORT_ATOL,
        f"{report_dir}: mean_rbo {report['mean_rbo']} vs {mean_rbo}",
    )
    from embstab.metrics import rbo as program_rbo  # the program's own RBO, checked here

    for u in rng.choice(shared.size, size=min(RBO_SAMPLE_USERS, shared.size), replace=False):
        brute = rbo_brute_force(ra[u], rb[u], p, top_k)
        program = program_rbo(ra[u], rb[u], p=p, depth=top_k)
        for name, value in (("numpy", per_user[u]), ("embstab.metrics.rbo", program)):
            _require(
                abs(value - brute) <= RBO_ATOL,
                f"{report_dir}: user {shared[u]} {name} RBO {value!r} vs brute force {brute!r}",
            )
