"""Reader and writer for the `.emb` and `.olt` layouts, written from the
format description in `src/embstab/store.py` without importing embstab.

The benchmark checks every file the CLI writes with these functions, so a
fault in the program's own codec cannot hide behind itself.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EMB_HEADER = struct.Struct("<4sHBBQII")  # magic, version, role, precision, count, dim, reserved
OLT_HEADER = struct.Struct("<4sHI")  # magic, version, rows
DIGEST = 32
ROLES = {0: "item", 1: "user"}


class FormatError(Exception):
    """A file does not follow the documented layout."""


@dataclass
class EmbFile:
    role: str
    precision: int
    ids: np.ndarray  # uint64
    vectors: np.ndarray  # float32 or float64, as stored
    raw: bytes  # the whole file

    @property
    def count(self) -> int:
        return self.ids.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def record_bytes(self, rows) -> bytes:
        """The raw record bytes of the given row positions, in that order."""
        size = 8 + self.dim * self.precision
        body = np.frombuffer(self.raw, dtype=np.uint8, count=self.count * size, offset=EMB_HEADER.size)
        return body.reshape(self.count, size)[np.asarray(rows)].tobytes()


def _check_digest(raw: bytes, path) -> None:
    if len(raw) < DIGEST or hashlib.sha256(raw[:-DIGEST]).digest() != raw[-DIGEST:]:
        raise FormatError(f"{path}: trailing sha256 does not match the body")


def _record_dtype(dim: int, precision: int) -> np.dtype:
    return np.dtype([("id", "<u8"), ("vec", f"<f{precision}", (dim,))])


def read_emb(path) -> EmbFile:
    raw = Path(path).read_bytes()
    if len(raw) < EMB_HEADER.size + DIGEST:
        raise FormatError(f"{path}: shorter than header plus digest")
    magic, version, role, precision, count, dim, reserved = EMB_HEADER.unpack_from(raw)
    if magic != b"OLRE" or version != 1 or role not in ROLES or precision not in (4, 8) or reserved != 0:
        raise FormatError(
            f"{path}: bad header magic={magic!r} version={version} role={role} "
            f"precision={precision} reserved={reserved}"
        )
    expected = EMB_HEADER.size + count * (8 + dim * precision) + DIGEST
    if len(raw) != expected:
        raise FormatError(f"{path}: {len(raw)} bytes, layout says {expected}")
    _check_digest(raw, path)
    records = np.frombuffer(raw, dtype=_record_dtype(dim, precision), count=count, offset=EMB_HEADER.size)
    vectors = records["vec"].reshape(count, dim).copy()
    return EmbFile(ROLES[role], precision, records["id"].copy(), vectors, raw)


def read_emb_count(path) -> int:
    """The row count from a `.emb` header, without reading the records."""
    with open(path, "rb") as fh:
        return EMB_HEADER.unpack(fh.read(EMB_HEADER.size))[4]


def write_emb(path, role: str, ids, vectors) -> None:
    vectors = np.ascontiguousarray(vectors)
    precision = vectors.dtype.itemsize
    role_byte = {v: k for k, v in ROLES.items()}[role]
    header = EMB_HEADER.pack(b"OLRE", 1, role_byte, precision, vectors.shape[0], vectors.shape[1], 0)
    records = np.empty(vectors.shape[0], dtype=_record_dtype(vectors.shape[1], precision))
    records["id"] = ids
    records["vec"] = vectors
    body = header + records.tobytes()
    Path(path).write_bytes(body + hashlib.sha256(body).digest())


def read_olt(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < OLT_HEADER.size + DIGEST:
        raise FormatError(f"{path}: shorter than header plus digest")
    magic, version, rows = OLT_HEADER.unpack_from(raw)
    payload = len(raw) - OLT_HEADER.size - DIGEST
    if magic != b"OLRT" or version != 1 or rows == 0 or payload % (8 * rows) or payload == 0:
        raise FormatError(f"{path}: bad header magic={magic!r} version={version} rows={rows}")
    _check_digest(raw, path)
    matrix = np.frombuffer(raw, dtype="<f8", count=payload // 8, offset=OLT_HEADER.size)
    return matrix.reshape(rows, -1).copy()


def trailing_digest(path) -> str:
    """Hex of the trailing 32-byte digest, as a run's `meta` records it."""
    with open(path, "rb") as fh:
        fh.seek(-DIGEST, 2)
        return fh.read().hex()
