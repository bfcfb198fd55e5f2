"""Orthogonal Procrustes alignment between embedding coordinate systems.

Finds the orthogonal map that, applied on the right of one set of row
vectors a, brings it as close as possible (in Frobenius norm) to a paired
set b. It depends on them only through the e x e cross-covariance b^T a
(Schoenemann, Psychometrika 1966), which is all ortho_procrustes takes.
Because the map is orthogonal it cannot change any dot product between
rows that are transformed consistently on both sides. The map is a
read-only float64 e x e array, checked orthogonal where it is made.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DegenerateAlignmentWarning, DimensionMismatch, NonFinite
from .lowrank import _dead_sv_threshold, _readonly

ORTHONORMALITY_RTOL = 1e-12


def ortho_procrustes(cross) -> np.ndarray:
    """Solve min over orthogonal maps r of ||a @ r - b||_F, given b.T @ a.

    cross is the square, nonempty, finite e x e cross-covariance b.T @ a of
    paired observations a and b of width e. The solution is the transposed
    polar factor of cross; it is unique whenever cross has full rank. When
    it does not, as for a rank-truncated source or anchor with zero
    columns, the result is an orthogonal completion, equally optimal, and a
    DegenerateAlignmentWarning is emitted.

    Returns r as a read-only float64 e x e array. Reflections (determinant
    -1) are permitted: sign flips between SVD spaces need them. Raises
    ValueError unless r r^T is the identity to 1e-12 * e and |det r| is 1.
    """
    cross = np.asarray(cross, dtype=np.float64)
    if cross.ndim != 2 or cross.shape[0] != cross.shape[1] or cross.size == 0:
        raise DimensionMismatch(f"cross-covariance must be nonempty square, got {cross.shape}")
    if not np.all(np.isfinite(cross)):
        raise NonFinite("cross-covariance contains NaN or Inf")

    # A dead singular value of the cross-covariance means the optimal
    # alignment is not unique.
    u, s, vt = np.linalg.svd(cross, full_matrices=False)
    if s[-1] <= _dead_sv_threshold(s, cross.shape[1], np.finfo(np.float64).eps):
        warnings.warn(
            DegenerateAlignmentWarning(
                "cross-covariance is rank deficient; alignment is optimal but not unique"
            ),
            stacklevel=2,
        )
    r = (u @ vt).T
    e = r.shape[0]
    gram_gap = np.linalg.norm(r @ r.T - np.eye(e))
    if gram_gap > ORTHONORMALITY_RTOL * e:
        raise ValueError(f"alignment rows are not orthonormal: residual {gram_gap:.3e}")
    det = float(np.linalg.det(r))
    if abs(abs(det) - 1.0) > 1e-10:
        raise ValueError(f"|det| = {abs(det):.12f} is not 1")
    return _readonly(r)
