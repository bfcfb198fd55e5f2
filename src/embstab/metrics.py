"""Run-to-run comparison metrics: same-id cosine similarity and rank-biased
overlap of top-k item rankings.

Cosine similarity over the id intersection measures whether the same
entity keeps pointing in the same direction across runs. Rank-biased
overlap (RBO) measures whether a user's top-k item ranking, scored against
a fixed item set, stays the same when the user's vector comes from a
different run. Both are near zero for raw retrained embeddings and near
one after stabilization.

Rankings are computed a block of users at a time, in memory bounded by
SCORE_BLOCK_ELEMENTS rather than by users x items: an exact top-k by
partial selection, with score ties broken toward the smaller item id, and
RBO for the whole block at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateId,
    EmptyIntersection,
    InvalidConfig,
    RoleMismatch,
    ZeroNormRow,
)
from .lowrank import EmbeddingMatrix

# Score-matrix elements one block of users may hold (8 MiB of float64);
# rank_correlation_report scores max(1, this // n_items) users at a time.
SCORE_BLOCK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class MetricsReport:
    """Summary comparison of two runs, one row per metric."""

    mean_user_cosine: float
    mean_item_cosine: float
    mean_rbo: float
    n_users_compared: int
    n_items_compared: int
    rbo_persistence: float
    rbo_depth: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_flat_text(self) -> str:
        """One `metric = value` line per field."""
        return "".join(f"{k} = {v!r}\n" for k, v in self.to_dict().items())


def write_report(report: MetricsReport, text_path, json_path) -> None:
    """Serialize a report as the flat key-value document and as JSON."""
    Path(text_path).write_text(report.to_flat_text())
    Path(json_path).write_text(json.dumps(report.to_dict(), indent=2) + "\n")


def mean_same_id_cosine(a: EmbeddingMatrix, b: EmbeddingMatrix) -> tuple[float, int]:
    """Mean cosine similarity between same-id rows of two runs.

    Computed over the id intersection; a zero-norm row on either side raises
    ZeroNormRow. Returns (mean, number of ids compared), using fixed-order
    compensated summation so the result is independent of evaluation order.
    """
    if a.role is not b.role:
        raise RoleMismatch(f"cannot compare roles {a.role.name} and {b.role.name}")
    shared = np.intersect1d(a.ids, b.ids, assume_unique=True)
    if shared.size == 0:
        raise EmptyIntersection("inputs share no ids")
    va = a.vectors.astype(np.float64, copy=False)[a.positions(shared)]
    vb = b.vectors.astype(np.float64, copy=False)[b.positions(shared)]
    na = np.linalg.norm(va, axis=1)
    nb = np.linalg.norm(vb, axis=1)
    dead = (na == 0.0) | (nb == 0.0)
    if dead.any():
        raise ZeroNormRow(f"zero-norm row for id {int(shared[dead][0])}")
    cosines = np.sum(va * vb, axis=1) / (na * nb)
    return math.fsum(cosines) / cosines.size, int(cosines.size)


def _check_ranking(depth, p) -> None:
    if not 0.0 < p < 1.0:
        raise InvalidConfig(f"persistence must lie in (0, 1), got {p}")
    if depth < 1:
        raise InvalidConfig(f"depth must be >= 1, got {depth}")


def _rbo_rows(ranked_a: np.ndarray, ranked_b: np.ndarray, p: float) -> np.ndarray:
    """Extrapolated RBO at depth k of each row pair of two (rows, k) arrays
    of ranked ids, each row free of repeats.

    An id held by both lists enters both depth-d prefixes once d exceeds the
    larger of its two 0-based ranks, so the overlap at each depth is a
    running count of those ranks. The weighted agreements are then summed in
    ascending depth, one addition per depth, so every row's value is the same
    float as a scalar loop over d would give.
    """
    rows, k = ranked_a.shape
    if k == 0:
        return np.zeros(rows)
    both = np.concatenate((ranked_a, ranked_b), axis=1)
    order = np.argsort(both, axis=1, kind="stable")
    ids = np.take_along_axis(both, order, axis=1)
    # A shared id sorts into two adjacent slots, list A's first.
    row, slot = np.nonzero(ids[:, 1:] == ids[:, :-1])
    joined = np.maximum(order[row, slot], order[row, slot + 1] - k)
    counts = np.bincount(row * k + joined, minlength=rows * k).reshape(rows, k)
    agreement = np.cumsum(counts, axis=1) / np.arange(1, k + 1)
    weights = np.array([p ** (d - 1) for d in range(1, k + 1)])
    acc = np.add.accumulate(weights * agreement, axis=1)[:, -1]
    return (1.0 - p) * acc + p**k * agreement[:, -1]


# Only the benchmark calls this: perfbench/oracle.py imports it and perfbench/tracer.py wraps it.
def rbo(list_a, list_b, p: float = 0.9, depth: int = 100) -> float:
    """Extrapolated rank-biased overlap of two ranked lists.

    With A_d the fraction of the two depth-d prefixes that agree as sets,
    returns

        (1 - p) * sum_{d=1..D} p^(d-1) * A_d  +  p^D * A_D

    where D is `depth` truncated to the shorter list length. Ranges from 0
    (prefixes disjoint at every depth) to 1 (lists agree on every prefix).
    Larger p weights deeper ranks more heavily.
    """
    _check_ranking(depth, p)
    la = [int(x) for x in list_a]
    lb = [int(x) for x in list_b]
    if len(set(la)) != len(la) or len(set(lb)) != len(lb):
        raise DuplicateId("ranked lists must not contain repeated ids")
    d_eff = min(depth, len(la), len(lb))
    return float(_rbo_rows(np.array([la[:d_eff]]), np.array([lb[:d_eff]]), p)[0])


def _top_k_columns(neg_scores: np.ndarray, k: int) -> np.ndarray:
    """Per row, the k columns of smallest negated score (highest score),
    ordered by score with ties to the smaller column: the first k of a
    stable argsort, without sorting the whole row."""
    rows, n = neg_scores.shape
    if k < n:
        cols = np.argpartition(neg_scores, k - 1, axis=1)[:, :k]
        kth = np.take_along_axis(neg_scores, cols[:, k - 1 :], axis=1)
        # argpartition keeps an arbitrary subset of the scores tied with the
        # k-th; where more tie than fit, keep every column above the k-th
        # score and the smallest tied columns up to k.
        crossing = np.count_nonzero(neg_scores <= kth, axis=1) > k
        if crossing.any():
            sub, sub_kth = neg_scores[crossing], kth[crossing]
            above = sub < sub_kth
            tied = sub == sub_kth
            room = k - np.count_nonzero(above, axis=1)[:, None]
            keep = above | (tied & (np.cumsum(tied, axis=1) <= room))
            cols[crossing] = np.nonzero(keep)[1].reshape(-1, k)
    else:
        cols = np.broadcast_to(np.arange(n), (rows, n))
    order = np.lexsort((cols, np.take_along_axis(neg_scores, cols, axis=1)), axis=1)
    return np.take_along_axis(cols, order, axis=1)


def rank_correlation_report(
    items_ref: EmbeddingMatrix,
    users_a: EmbeddingMatrix,
    users_b: EmbeddingMatrix,
    top_k: int = 100,
    p: float = 0.9,
) -> tuple[float, int]:
    """Mean RBO between each shared user's top-k item rankings under two runs.

    Every shared user scores all reference items by dot product twice, once
    with its vector from each run; the two descending rankings (ties broken
    by ascending item id) are compared with rbo at depth top_k. Users are
    scored a block of rows at a time, so memory is bounded by
    SCORE_BLOCK_ELEMENTS and not by users x items. Returns (mean over users,
    number of users compared).
    """
    _check_ranking(top_k, p)
    if items_ref.dim != users_a.dim or items_ref.dim != users_b.dim:
        raise DimensionMismatch(
            f"widths differ: items {items_ref.dim}, users {users_a.dim} and {users_b.dim}"
        )
    shared = np.intersect1d(users_a.ids, users_b.ids, assume_unique=True)
    if shared.size == 0:
        raise EmptyIntersection("user sets share no ids")
    # Columns sorted by ascending item id, so a tie on score breaks toward
    # the smaller id; ranking columns instead of ids gives the same RBO,
    # since ids are unique. Negating the items negates every score exactly.
    item_order = np.argsort(items_ref.ids, kind="stable")
    neg_items_t = -items_ref.vectors.astype(np.float64, copy=False)[item_order].T
    ua = users_a.vectors.astype(np.float64, copy=False)[users_a.positions(shared)]
    ub = users_b.vectors.astype(np.float64, copy=False)[users_b.positions(shared)]
    k = min(top_k, items_ref.n)
    rows = max(1, SCORE_BLOCK_ELEMENTS // max(1, items_ref.n))
    values = np.empty(shared.size)
    for start in range(0, shared.size, rows):
        block = slice(start, start + rows)
        values[block] = _rbo_rows(
            _top_k_columns(ua[block] @ neg_items_t, k),
            _top_k_columns(ub[block] @ neg_items_t, k),
            p,
        )
    return math.fsum(values) / values.size, int(shared.size)


def compare_runs(
    items_a: EmbeddingMatrix,
    users_a: EmbeddingMatrix,
    items_b: EmbeddingMatrix,
    users_b: EmbeddingMatrix,
    top_k: int = 100,
    p: float = 0.9,
) -> MetricsReport:
    """Full two-run comparison: same-user cosine, same-item cosine, and mean
    RBO of rankings against run A's items."""
    _check_ranking(top_k, p)
    user_cos, n_users = mean_same_id_cosine(users_a, users_b)
    item_cos, n_items = mean_same_id_cosine(items_a, items_b)
    mean_rbo, _ = rank_correlation_report(items_a, users_a, users_b, top_k=top_k, p=p)
    return MetricsReport(
        mean_user_cosine=user_cos,
        mean_item_cosine=item_cos,
        mean_rbo=mean_rbo,
        n_users_compared=n_users,
        n_items_compared=n_items,
        rbo_persistence=p,
        rbo_depth=top_k,
    )
