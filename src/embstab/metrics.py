"""Run-to-run comparison metrics: same-id cosine similarity and rank-biased
overlap of top-k item rankings.

Cosine similarity over the id intersection measures whether the same
entity keeps pointing in the same direction across runs. Rank-biased
overlap (RBO) measures whether a user's top-k item ranking, scored against
a fixed item set, stays the same when the user's vector comes from a
different run. Both are near zero for raw retrained embeddings and near
one after stabilization.
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
    InvalidPersistence,
    RoleMismatch,
    ZeroNormRow,
)
from .lowrank import EmbeddingMatrix

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
    shared = np.intersect1d(a.ids, b.ids)
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


def rbo(list_a, list_b, p: float = 0.9, depth: int = 100) -> float:
    """Extrapolated rank-biased overlap of two ranked lists.

    With A_d the fraction of the two depth-d prefixes that agree as sets,
    returns

        (1 - p) * sum_{d=1..D} p^(d-1) * A_d  +  p^D * A_D

    where D is `depth` truncated to the shorter list length. Ranges from 0
    (prefixes disjoint at every depth) to 1 (lists agree on every prefix).
    Larger p weights deeper ranks more heavily.
    """
    if not 0.0 < p < 1.0:
        raise InvalidPersistence(f"persistence must lie in (0, 1), got {p}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    la = [int(x) for x in list_a]
    lb = [int(x) for x in list_b]
    if len(set(la)) != len(la) or len(set(lb)) != len(lb):
        raise DuplicateId("ranked lists must not contain repeated ids")
    d_eff = min(depth, len(la), len(lb))
    if d_eff == 0:
        return 0.0
    seen_a: set[int] = set()
    seen_b: set[int] = set()
    overlap = 0
    acc = 0.0
    agreement = 0.0
    for d in range(1, d_eff + 1):
        x, y = la[d - 1], lb[d - 1]
        if x == y:
            overlap += 1
        else:
            if x in seen_b:
                overlap += 1
            if y in seen_a:
                overlap += 1
            seen_a.add(x)
            seen_b.add(y)
        agreement = overlap / d
        acc += p ** (d - 1) * agreement
    return (1.0 - p) * acc + p**d_eff * agreement


def _top_ranked_ids(
    item_ids_sorted: np.ndarray, scores: np.ndarray, k: int
) -> np.ndarray:
    # Stable descending sort over columns pre-sorted by ascending item id,
    # so score ties break toward the smaller id on every platform.
    order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return item_ids_sorted[order]


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
    by ascending item id) are compared with rbo at depth top_k. Returns
    (mean over users, number of users compared).
    """
    if items_ref.dim != users_a.dim or items_ref.dim != users_b.dim:
        raise DimensionMismatch(
            f"widths differ: items {items_ref.dim}, users {users_a.dim} and {users_b.dim}"
        )
    shared = np.intersect1d(users_a.ids, users_b.ids)
    if shared.size == 0:
        raise EmptyIntersection("user sets share no ids")
    item_order = np.argsort(items_ref.ids, kind="stable")
    item_ids_sorted = items_ref.ids[item_order]
    item_vecs = items_ref.vectors.astype(np.float64, copy=False)[item_order]
    ua = users_a.vectors.astype(np.float64, copy=False)[users_a.positions(shared)]
    ub = users_b.vectors.astype(np.float64, copy=False)[users_b.positions(shared)]
    ranked_a = _top_ranked_ids(item_ids_sorted, ua @ item_vecs.T, top_k)
    ranked_b = _top_ranked_ids(item_ids_sorted, ub @ item_vecs.T, top_k)
    values = [
        rbo(ranked_a[i], ranked_b[i], p=p, depth=top_k) for i in range(shared.size)
    ]
    return math.fsum(values) / len(values), int(shared.size)


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
