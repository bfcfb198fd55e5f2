"""Composition of the score-space SVD maps with Procrustes alignment.

A reference run seeds the standard space; its maps are its SVD maps. Every
later run is SVD-transformed the same way, its items are aligned with an
orthogonal map onto its reference's items in that space (the anchor: the
reference's raw items through its item map, never formed, as the alignment
needs only an e x e cross-covariance), and the two steps collapse into one
small matrix per side; a run is its inputs and those two maps, and reads
only the Anchor of its reference. Stages pass bare read-only float64
arrays. Each run can anchor the next one (reference chaining), so the seed
run is not a special case forever.

Alignment is computed from items only; user embeddings ride along through
their own composed map. Because the alignment is orthogonal, stabilization
never changes any user-item score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InsufficientOverlap
from .lowrank import EmbeddingMatrix, _join, _readonly, _row_blocks, low_rank_svd_trans
from .procrustes import ortho_procrustes

# Rows per block of stabilize_run's cross-covariance: blocks of 64 to 512 rows
# gave the same maps at 1 and 2 OpenBLAS threads, 1024 and more did not.
CROSS_BLOCK_ROWS = 256


@dataclass(frozen=True, eq=False)
class StabilizedRun:
    """One run as its inputs and its two maps into the standard space.

    item_map and user_map are the composed e x e per-side transforms, SVD
    step times alignment; a seed's are the SVD maps themselves, as
    low_rank_svd_trans returns them. A stabilized side is
    apply_transform(raw, map), derived where used and never held, so every
    run of width e lands in the same e-wide standard space whatever its
    effective rank, which the spectrum's length gives. A run is also the
    reference of the next one: stabilize_run reads only its run_id,
    raw_items and item_map, the fields of an Anchor.
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


class Anchor(NamedTuple):
    """What stabilize_run reads of its reference, as RunStore.reference_space
    reads it; a StabilizedRun has the same three attributes."""

    run_id: str
    raw_items: EmbeddingMatrix
    item_map: np.ndarray


def init_reference(items: EmbeddingMatrix, users: EmbeddingMatrix, run_id: str) -> StabilizedRun:
    """Seed the standard space from one run.

    The run's own SVD space is the standard space, so its maps are the SVD
    maps themselves, e x e even when dead directions leave zero columns; no
    alignment is solved. The run anchors later runs.
    """
    return StabilizedRun(run_id, run_id, items, users, *low_rank_svd_trans(items, users))


def stabilize_run(
    items: EmbeddingMatrix,
    users: EmbeddingMatrix,
    reference: StabilizedRun | Anchor,
    run_id: str,
) -> StabilizedRun:
    """Map one run's embeddings into the reference's standard space.

    The reference is a StabilizedRun or an Anchor: only its run_id,
    raw_items and item_map are read. The run is SVD-transformed, then its
    items are Procrustes-aligned onto the anchor, the reference's raw items
    through its item map, by the raw cross-covariance of the rows whose ids
    both hold, summed over blocks of rows in ascending id order, each cast
    to float64 alone: no n x e array is made. As the SVD step's blocks are
    id-ordered too, the maps depend on the rows by id, not on their order.
    Items absent from the reference never influence the alignment. The
    returned run anchors the next (rolling) one.

    Raises InsufficientOverlap when fewer than max(e, 10) item ids are
    shared with the anchor, DimensionMismatch when the run's width differs
    from the anchor's.
    """
    width = reference.item_map.shape[1]
    if items.dim != width:
        raise DimensionMismatch(f"run width {items.dim} != reference dimension {width}")
    item_map, user_map, spectrum = low_rank_svd_trans(items, users)

    shared, rows, anchor_rows = _join(items, reference.raw_items)
    # The orthogonal map is unique only when the e x e cross-covariance has
    # full rank (Schoenemann, Psychometrika 1966), which fewer than e shared
    # rows cannot give; 10 keeps narrow runs off a handful of items.
    need = max(items.dim, 10)
    if shared.size < need:
        raise InsufficientOverlap(
            f"{shared.size} shared item ids with reference {reference.run_id!r}, "
            f"need at least {need}"
        )
    # The alignment's cross-covariance (B M_ref).T (A M_new) = M_ref.T cross M_new.
    cross = np.zeros((reference.raw_items.dim, items.dim))
    for b, a in zip(_row_blocks(reference.raw_items.vectors, anchor_rows, CROSS_BLOCK_ROWS),
                    _row_blocks(items.vectors, rows, CROSS_BLOCK_ROWS)):
        cross += b.T @ a
    alignment = ortho_procrustes(reference.item_map.T @ (cross @ item_map))
    return StabilizedRun(run_id, reference.run_id, items, users,
                         _readonly(item_map @ alignment), _readonly(user_map @ alignment),
                         spectrum)
