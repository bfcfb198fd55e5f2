"""Composition of the score-space SVD transform with Procrustes alignment.

A reference run seeds the standard space. Every later run is
SVD-transformed the same way, its items are aligned with an orthogonal map
onto its reference's items in that space (the anchor: the reference's raw
items through its item map), and the two steps collapse into a single
small matrix per side; a run is its inputs and those two maps. Each run
can anchor the next one (reference chaining), so the seed run is not a
special case forever.

Alignment is computed from items only; user embeddings ride along through
their own composed map. Because the alignment is orthogonal, stabilization
never changes any user-item score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InsufficientOverlap
from .lowrank import EmbeddingMatrix, SvdTransform, _join, apply_transform, low_rank_svd_trans
from .procrustes import ortho_procrustes


@dataclass(frozen=True, eq=False)
class StabilizedRun:
    """One run as its inputs and its two maps into the standard space.

    item_map and user_map are the composed e x e per-side transforms (SVD
    step times alignment). A stabilized side is apply_transform(raw, map),
    derived where used and never held, so every run of width e lands in the
    same e-wide standard space whatever its effective rank, which the
    spectrum's length gives. A run is also the reference of the next one:
    stabilize_run aligns onto its raw items through its item map.
    """

    run_id: str
    reference_run_id: str
    raw_items: EmbeddingMatrix
    raw_users: EmbeddingMatrix
    item_map: np.ndarray
    user_map: np.ndarray
    spectrum: np.ndarray

    @property
    def effective_rank(self) -> int:
        return self.spectrum.shape[0]

    @property
    def dim(self) -> int:
        return self.item_map.shape[0]


def _build_run(
    run_id: str,
    reference_run_id: str,
    items: EmbeddingMatrix,
    users: EmbeddingMatrix,
    transform: SvdTransform,
    alignment: np.ndarray,
) -> StabilizedRun:
    return StabilizedRun(
        run_id=run_id,
        reference_run_id=reference_run_id,
        raw_items=items,
        raw_users=users,
        item_map=transform.item_map @ alignment,
        user_map=transform.user_map @ alignment,
        spectrum=transform.spectrum,
    )


def init_reference(items: EmbeddingMatrix, users: EmbeddingMatrix, run_id: str) -> StabilizedRun:
    """Seed the standard space from one run.

    The run's own SVD space is the standard space, so its alignment is the
    identity and the composed maps equal the SVD maps, e x e even when dead
    directions leave zero columns. The run anchors later runs.
    """
    transform = low_rank_svd_trans(items, users)
    return _build_run(run_id, run_id, items, users, transform, np.eye(items.dim))


def stabilize_run(
    items: EmbeddingMatrix,
    users: EmbeddingMatrix,
    reference: StabilizedRun,
    run_id: str,
) -> StabilizedRun:
    """Map one run's embeddings into the reference's standard space.

    The run is SVD-transformed, then the rows whose item ids also appear in
    the anchor, the reference's raw items through its item map, are
    Procrustes-aligned onto the matching anchor rows. Items absent from the
    reference are transformed but never influence the alignment. The
    returned run anchors the next (rolling) one.

    Raises InsufficientOverlap when fewer than max(e, 10) item ids are
    shared with the anchor, DimensionMismatch when the run's width differs
    from the anchor's.
    """
    width = reference.item_map.shape[1]
    if items.dim != width:
        raise DimensionMismatch(f"run width {items.dim} != reference dimension {width}")
    transform = low_rank_svd_trans(items, users)

    anchor = apply_transform(reference.raw_items, reference.item_map)
    shared, shared_items, target = _join(items, anchor)
    # The orthogonal map is unique only when the e x e cross-covariance has
    # full rank (Schoenemann, Psychometrika 1966), which fewer than e shared
    # rows cannot give; 10 keeps narrow runs off a handful of items.
    need = max(items.dim, 10)
    if shared.size < need:
        raise InsufficientOverlap(
            f"{shared.size} shared item ids with reference {reference.run_id!r}, "
            f"need at least {need}"
        )
    alignment = ortho_procrustes(shared_items @ transform.item_map, target)
    return _build_run(run_id, reference.run_id, items, users, transform, alignment)


def score_product_error(
    raw_items: EmbeddingMatrix,
    raw_users: EmbeddingMatrix,
    stabilized_items: EmbeddingMatrix,
    stabilized_users: EmbeddingMatrix,
    max_rows: int | None = None,
    seed: int = 0,
) -> float:
    """Relative Frobenius gap between raw and stabilized score products.

    With max_rows set, the comparison runs on a deterministic random block
    of rows from each side, which keeps the check affordable at production
    scale. Returns ||stab - raw||_F / ||raw||_F over the block.
    """
    it = slice(None)
    us = slice(None)
    if max_rows is not None:
        rng = np.random.default_rng(seed)
        if raw_items.n > max_rows:
            it = rng.choice(raw_items.n, size=max_rows, replace=False)
        if raw_users.n > max_rows:
            us = rng.choice(raw_users.n, size=max_rows, replace=False)
    t = raw_items.vectors.astype(np.float64, copy=False)[it]
    w = raw_users.vectors.astype(np.float64, copy=False)[us]
    t_hat = stabilized_items.vectors.astype(np.float64, copy=False)[it]
    w_hat = stabilized_users.vectors.astype(np.float64, copy=False)[us]
    raw = t @ w.T
    gap = np.linalg.norm(t_hat @ w_hat.T - raw)
    denom = np.linalg.norm(raw)
    return float(gap / denom) if denom > 0 else float(gap)
