"""Inverse-free low-rank SVD transformation of a factorized score space.

Item embeddings T (n x e) and user embeddings W (m x e) factor a score
matrix X ~= T W^T. This module computes small e x e maps for both sides
such that the transformed embeddings are the principal-direction
coordinates of X scaled by the square root of its singular values, while
every user-item dot product is preserved. Only the R factors of the thin
QR of T and W enter an e x e SVD, so the cost is linear in n and m at
fixed e and the score matrix is never materialized. The maps and the
kept spectrum are returned as bare read-only float64 arrays.

Each R factor comes from a fixed-block TSQR (Demmel et al., SISC 2012):
the rows are cut, in ascending id order, into consecutive blocks of
QR_BLOCK_ROWS rows (at least 2e), each block is reduced to its own R by
Householder QR, the block R factors are stacked in the same order, and
this repeats until at most one block is left for a last QR. So R is a
deterministic function of the rows by id, not of their order in a file or
the pieces they were read in; a side of at most one block takes the single
QR alone.

The apply kernel (rowwise_matmul) sums each output in one fixed order,
ascending over the input width, and cuts every input of two or more rows
into LANES contiguous parts, one per lane. Each output row depends only on
its input row, so the bytes are the same at any lane count and any tiling.
"""

from __future__ import annotations

import enum
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateId,
    NonFinite,
    RankDeficient,
    RankTruncationWarning,
    RoleMismatch,
)

# Singular values at or below max(this, e * eps) times the largest are
# treated as zero (numpy's matrix_rank default, with a floor), by the score
# space's truncation and Procrustes' degeneracy check alike. For float64
# this floor governs up to e of 4503; float32 rounding leaves about 1e-8 of
# the largest in a dead direction, which e * eps(float32) clears.
SV_TRUNCATION_RTOL = 1e-12

# Rows per block of the R-factor TSQR, raised to 2e for wider inputs.
# store.CHUNK_ROWS is a multiple of it, so streamed chunks hold whole blocks.
QR_BLOCK_ROWS = 1024


def _usable_cpus() -> int:
    # sched_getaffinity exists only on Linux; elsewhere count every CPU.
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Threads that share the pieces of one call to _in_lanes: the caller and one
# helper where the process may run on two CPUs, so `taskset -c 0` gives one.
# A third is unmeasured and would add one more of validate's score blocks to
# its memory.
LANES = min(2, _usable_cpus())

# Rows per tile of the apply kernel: a tile's float64 scratch and result,
# e x TILE_ROWS each, stay in L2 (256 KiB each at e = 64). Of 256, 512 and
# 1024 rows, 512 and 1024 ran the kernel fastest at e = 32 and 64.
TILE_ROWS = 512


class _Behind:
    """Runs one call at a time behind the caller, on a helper thread. It is
    the package's one thread primitive: the lanes here and the .emb codec in
    store start their threads through it, one per submit().

    submit() first waits for the call before it, so at most one is in
    flight, and raises its exception on the caller's thread, as wait() does.
    Leaving the `with` block joins the helper; the helper's exception is
    raised there unless the block is already raising one of its own."""

    def __init__(self) -> None:
        self._thread = None
        self._error = None

    def _run(self, fn, args) -> None:
        try:
            fn(*args)
        except BaseException as exc:  # re-raised on the caller's thread by wait()
            self._error = exc

    def submit(self, fn, *args) -> None:
        self.wait()
        self._thread = threading.Thread(target=self._run, args=(fn, args))
        self._thread.start()

    def wait(self) -> None:
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def __enter__(self) -> "_Behind":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.wait()
        elif self._thread is not None:
            self._thread.join()


def _in_lanes(fn, pieces) -> list:
    """[fn(piece) for piece in pieces], on LANES lanes.

    The pieces go LANES at a time: with two lanes a _Behind helper runs
    piece i+1 while the caller runs piece i, and the pair is joined before
    the next starts; with one the caller runs each in turn and no thread
    starts. So at most LANES pieces run at once, none starts after a lower
    one has failed, and the failure raised is that of the lowest piece, the
    one a plain loop over the pieces would raise.
    """
    pieces = list(pieces)
    results = [None] * len(pieces)

    def run(i: int) -> None:
        results[i] = fn(pieces[i])

    with _Behind() as helper:
        for i in range(0, len(pieces), LANES):
            if i + 1 < min(i + LANES, len(pieces)):
                helper.submit(run, i + 1)
            run(i)
            helper.wait()
    return results


class Role(enum.Enum):
    ITEM = 0
    USER = 1


def _readonly(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.setflags(write=False)
    return view


def _refuse_rows(role: Role, sorted_ids: np.ndarray, finite: bool) -> None:
    """EmbeddingMatrix's refusals: DuplicateId if the ascending `sorted_ids`
    repeat an id, else NonFinite unless the vectors are `finite`."""
    if np.any(sorted_ids[1:] == sorted_ids[:-1]):
        raise DuplicateId(f"{role.name.lower()} ids are not unique")
    if not finite:
        raise NonFinite(f"{role.name.lower()} vectors contain NaN or Inf")


@dataclass(frozen=True, eq=False)
class EmbeddingMatrix:
    """Id-keyed dense embedding rows for one side of a factorization.

    Rows are float32 or float64, all finite; ids are unique uint64. Arrays
    are exposed as read-only views so instances are safe to share across
    threads.
    """

    role: Role
    ids: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        ids = np.asarray(self.ids, dtype=np.uint64)
        vectors = np.asarray(self.vectors)
        if vectors.dtype not in (np.float32, np.float64):
            vectors = vectors.astype(np.float64)
        if vectors.ndim != 2:
            raise DimensionMismatch(f"vectors must be 2-D, got {vectors.ndim}-D")
        if ids.ndim != 1 or ids.shape[0] != vectors.shape[0]:
            raise DimensionMismatch(
                f"{ids.shape[0] if ids.ndim == 1 else ids.shape} ids for {vectors.shape[0]} rows"
            )
        _refuse_rows(self.role, np.sort(ids), not vectors.size or np.all(np.isfinite(vectors)))
        object.__setattr__(self, "ids", _readonly(ids))
        object.__setattr__(self, "vectors", _readonly(np.ascontiguousarray(vectors)))

    @classmethod
    def of_items(cls, vectors, ids=None) -> "EmbeddingMatrix":
        return cls(Role.ITEM, np.arange(len(vectors)) if ids is None else ids, vectors)

    @classmethod
    def of_users(cls, vectors, ids=None) -> "EmbeddingMatrix":
        return cls(Role.USER, np.arange(len(vectors)) if ids is None else ids, vectors)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    # No command calls this; perfbench/tracer.py wraps it.
    def positions(self, ids) -> np.ndarray:
        """Positional row indices of the given ids, which must all be present."""
        ids = np.asarray(ids, dtype=np.uint64)
        order = np.argsort(self.ids, kind="stable")
        pos = np.searchsorted(self.ids, ids, sorter=order)
        if np.any(pos >= self.ids.size):
            raise KeyError("id not present in embedding matrix")
        found = order[pos]
        if not np.array_equal(self.ids[found], ids):
            raise KeyError("id not present in embedding matrix")
        return found

    def astype(self, dtype) -> "EmbeddingMatrix":
        return EmbeddingMatrix(self.role, self.ids, self.vectors.astype(dtype))


def _join(a: EmbeddingMatrix, b: EmbeddingMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ids, positions_a, positions_b): the ids both matrices hold, ascending,
    and their rows in a and in b, from one sort of both id arrays; callers
    gather and cast the rows."""
    return np.intersect1d(a.ids, b.ids, assume_unique=True, return_indices=True)


def _row_blocks(vectors: np.ndarray, order: np.ndarray, size: int):
    """float64 copies of the rows of `vectors` at the indices in `order`,
    `size` rows at a time: each block is gathered and cast alone."""
    for start in range(0, order.size, size):
        yield vectors[order[start : start + size]].astype(np.float64, copy=False)


def _qr_r(a: np.ndarray) -> np.ndarray:
    return np.linalg.qr(a, mode="r")


def _r_factor(a: np.ndarray, order: np.ndarray) -> np.ndarray:
    # R factor of the thin QR of `a`'s rows in `order`, in float64, by
    # fixed-block TSQR: each pass replaces consecutive blocks of `block`
    # rows, top to bottom, by their stacked R factors; the first gathers and
    # casts one block at a time, so no n x e copy is made. A block of at
    # least 2e rows yields at most e, so every pass shrinks the matrix. One
    # last QR takes what is left (all rows when they fit one block, exactly
    # as a one-shot QR would). Its diagonal is then made nonnegative, so R is
    # a deterministic function of the rows in `order`; Q is never formed.
    block = max(QR_BLOCK_ROWS, 2 * a.shape[1])
    blocks = _row_blocks(a, order, block)
    a = np.concatenate([_qr_r(b) for b in blocks]) if a.shape[0] > block else next(blocks)
    while a.shape[0] > block:
        a = np.concatenate([_qr_r(a[i : i + block]) for i in range(0, a.shape[0], block)])
    r = _qr_r(a)
    signs = np.sign(np.diag(r)).copy()
    signs[signs == 0] = 1.0
    return signs[:, None] * r


def _canonical_svd(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # SVD with each left-vector column flipped so its largest-magnitude entry
    # is positive; right vectors flipped to match. Resolves sign ambiguity
    # deterministically for distinct singular values.
    u, s, vt = np.linalg.svd(k, full_matrices=False)
    peak = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[peak, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs, s, signs[:, None] * vt


def _dead_sv_threshold(s: np.ndarray, dim: int, eps: float) -> float:
    """Where a singular value of the descending spectrum `s` of a `dim`-wide
    matrix, from data of machine epsilon `eps`, is dead: at or below this."""
    return max(SV_TRUNCATION_RTOL, dim * eps) * (s[0] if s.size else 0.0)


def _check_pair(items: EmbeddingMatrix, users: EmbeddingMatrix) -> None:
    if items.role is not Role.ITEM:
        raise RoleMismatch(f"expected an item matrix, got role {items.role.name}")
    if users.role is not Role.USER:
        raise RoleMismatch(f"expected a user matrix, got role {users.role.name}")
    if items.dim != users.dim:
        raise DimensionMismatch(
            f"item embedding width {items.dim} != user embedding width {users.dim}"
        )
    if items.n < 1 or users.n < 1:
        raise DimensionMismatch("embedding matrices must have at least one row")
    if items.dim < 1:
        raise DimensionMismatch("embedding width must be at least 1")


def low_rank_svd_trans(
    items: EmbeddingMatrix, users: EmbeddingMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compute the score-space SVD maps from the factors alone.

    The effective rank comes from the spectrum: a singular value at or below
    max(SV_TRUNCATION_RTOL, e * eps) times the largest is dead, eps being
    the larger machine epsilon of the two input dtypes. A dead direction is
    an exact zero column of both maps, which stay e x e, and the call warns
    with RankTruncationWarning.

    Args:
        items: n x e item embeddings.
        users: m x e user embeddings.

    Returns:
        Read-only float64 (item_map, user_map, spectrum): e x e maps that
        make both transformed Grams the spectrum, zero-padded, and preserve
        items @ users.T up to rounding; the kept singular values, descending.

    Raises:
        RoleMismatch, DimensionMismatch, and RankDeficient when no singular
        value is live. Non-finite input is rejected at EmbeddingMatrix
        construction.
    """
    _check_pair(items, users)
    # All decomposition work in float64 (_r_factor casts block by block):
    # the inverse square root of the spectrum amplifies rounding error at
    # lower precision. Rows go in ascending id order, so the maps do not
    # depend on the order of the rows in their files.
    r_t = _r_factor(items.vectors, np.argsort(items.ids, kind="stable"))
    r_w = _r_factor(users.vectors, np.argsort(users.ids, kind="stable"))
    u, s, vt = _canonical_svd(r_t @ r_w.T)

    dim = items.dim
    eps = max(np.finfo(items.vectors.dtype).eps, np.finfo(users.vectors.dtype).eps)
    kept = int(np.count_nonzero(s > _dead_sv_threshold(s, dim, eps)))
    if kept == 0:
        raise RankDeficient("score space has no singular value above the truncation threshold")
    if kept < dim:
        warnings.warn(
            RankTruncationWarning(
                f"dropping {dim - kept} of {dim} singular values below threshold; "
                f"effective rank {kept}"
            ),
            stacklevel=2,
        )

    inv_sqrt = 1.0 / np.sqrt(s[:kept])
    item_map = np.zeros((dim, dim))
    user_map = np.zeros((dim, dim))
    item_map[:, :kept] = (r_w.T @ vt[:kept].T) * inv_sqrt
    user_map[:, :kept] = (r_t.T @ u[:, :kept]) * inv_sqrt
    return _readonly(item_map), _readonly(user_map), _readonly(s[:kept])


def rowwise_matmul(rows: np.ndarray, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix product with a fixed ascending-k accumulation order.

    Each output element is ((0 + r[0] m[0, j]) + r[1] m[1, j]) + ... in
    float64, every product rounded before its add, so it depends only on its
    own input row: any row partition reproduces the per-row result bit for
    bit, which a BLAS matmul, whose reduction order varies with the operand
    shape, does not.

    The rows go through in tiles of TILE_ROWS. Each tile is transposed and
    cast into a float64 e x T scratch, and the unoptimized einsum
    "kj,kn->jn" multiplies it by m. With the tile's rows as the innermost,
    contiguous axis of both the scratch and the result, the einsum keeps k
    in an outer loop and adds one rounded product per k to a whole row of
    results, ascending in k, whatever the layout of m or the output width.
    (Products laid out rows by columns, as rows @ m, reduce in another order
    when the output has one column: k is then the innermost axis.) The
    e_out x T result is transposed into `out`, cast to its dtype. `out` is
    any (n, e_out) float array or view, such as the `vec` field of .emb
    records, or a new float64 array when omitted. The scratch is two tiles
    per lane, so the kernel adds no memory that grows with n.

    The n rows are cut into min(LANES, n) contiguous parts (one at least),
    each tiled and multiplied on its own lane. Since every row is computed
    alone, the bytes are the same at any lane count.
    """
    rows, m = np.asarray(rows), np.asarray(m, dtype=np.float64)
    n, e = rows.shape
    if out is None:
        out = np.empty((n, m.shape[1]))
    parts = max(1, min(LANES, n))

    def part(span: slice) -> None:
        # TILE_ROWS columns even for a shorter tile: a one-row tile whose k
        # axis were contiguous would go to einsum's unrolled dot loop, which
        # sums in another order.
        scratch = np.empty((e, TILE_ROWS))
        result = np.empty((m.shape[1], TILE_ROWS))
        for start in range(span.start, span.stop, TILE_ROWS):
            stop = min(start + TILE_ROWS, span.stop)
            tile = scratch[:, : stop - start]
            tile[...] = rows[start:stop].T
            np.einsum("kj,kn->jn", m, tile, out=result[:, : stop - start])
            out[start:stop] = result[:, : stop - start].T

    _in_lanes(part, [slice(n * i // parts, n * (i + 1) // parts) for i in range(parts)])
    return out


def _check_map(dim: int, m: np.ndarray) -> None:
    """DimensionMismatch unless `m` is 2-D with a row per column of a
    `dim`-wide embedding: the rule of apply_transform and `embstab apply`."""
    if m.ndim != 2:
        raise DimensionMismatch(f"transform must be 2-D, got {m.ndim}-D")
    if dim != m.shape[0]:
        raise DimensionMismatch(f"embedding width {dim} != transform row count {m.shape[0]}")


def apply_transform(emb: EmbeddingMatrix, matrix) -> EmbeddingMatrix:
    """Right-multiply every embedding row by the given map.

    Ids, order, and role are preserved; output dtype matches the input
    (products are accumulated in float64 either way). Results are
    bit-identical under any row partitioning, see rowwise_matmul.
    """
    m = np.asarray(matrix, dtype=np.float64)
    _check_map(emb.dim, m)
    out = np.empty((emb.n, m.shape[1]), dtype=emb.vectors.dtype)
    return EmbeddingMatrix(emb.role, emb.ids, rowwise_matmul(emb.vectors, m, out))
