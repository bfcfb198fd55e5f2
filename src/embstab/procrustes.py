"""Orthogonal Procrustes alignment between embedding coordinate systems.

Finds the orthogonal map that, applied on the right of one set of row
vectors, brings it as close as possible (in Frobenius norm) to a second
set. Because the map is orthogonal it cannot change any dot product
between rows that are transformed consistently on both sides.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAlignmentWarning, DimensionMismatch, NonFinite
from .lowrank import _dead_sv_threshold, _readonly

ORTHONORMALITY_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class AlignmentMap:
    """Right-multiplication map from a source coordinate system into a target one.

    matrix is square and orthogonal, e x e like every map in the standard
    space. Reflections (determinant -1) are permitted; sign-flip ambiguity
    between SVD spaces requires them.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"alignment matrix shape {m.shape} is not square")
        e = m.shape[0]
        gram_gap = np.linalg.norm(m @ m.T - np.eye(e))
        if gram_gap > ORTHONORMALITY_RTOL * e:
            raise ValueError(f"alignment rows are not orthonormal: residual {gram_gap:.3e}")
        det = float(np.linalg.det(m))
        if abs(abs(det) - 1.0) > 1e-10:
            raise ValueError(f"|det| = {abs(det):.12f} is not 1")
        object.__setattr__(self, "_det", det)
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def is_reflection(self) -> bool:
        return self._det < 0


def ortho_procrustes(a, b) -> AlignmentMap:
    """Solve min over orthogonal maps r of ||a @ r - b||_F.

    a and b must have the same shape: paired observations of the same
    width. The solution is the transposed polar factor of b.T @ a; it is
    unique whenever that cross-covariance has full rank. When it does not,
    as for a rank-truncated source or anchor with zero columns, the result
    is an orthogonal completion, equally optimal, and a
    DegenerateAlignmentWarning is emitted.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionMismatch("alignment inputs must be 2-D")
    if a.shape != b.shape:
        raise DimensionMismatch(f"alignment input shapes differ: {a.shape} vs {b.shape}")
    if a.shape[0] < 1:
        raise DimensionMismatch("alignment needs at least one row")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise NonFinite("alignment inputs contain NaN or Inf")

    # A dead singular value of the cross-covariance means the optimal
    # alignment is not unique.
    cross = b.T @ a
    u, s, vt = np.linalg.svd(cross, full_matrices=False)
    if s.size == 0 or s[-1] <= _dead_sv_threshold(s, a.shape[1], np.finfo(np.float64).eps):
        warnings.warn(
            DegenerateAlignmentWarning(
                "cross-covariance is rank deficient; alignment is optimal but not unique"
            ),
            stacklevel=2,
        )
    r = (u @ vt).T
    return AlignmentMap(matrix=r)
