"""Bit-exact persistence for embeddings, transforms, and the reference chain.

Embedding file (.emb), all little-endian:

    magic     4 bytes  'OLRE'
    version   u16      1
    role      u8       0 = item, 1 = user
    precision u8       4 = float32, 8 = float64
    count     u64      number of rows
    dim       u32      embedding width
    reserved  u32      0
    records   count x (id u64, dim floats at the stated precision)
    digest    32 bytes sha256 of all preceding bytes

open_embeddings and write_embedding_chunks are the only .emb codec: the
library, RunStore and the CLI's `apply` all stream records through them.

Transform file (.olt), all little-endian:

    magic     4 bytes  'OLRT'
    version   u16      1
    dim       u32      input dimension (row count of the matrix)
    payload   rows*cols f64 row-major; every map written is square (e x e),
              but cols is inferred from the payload size, so the e x kept
              maps of older rank-truncated runs still read
    digest    32 bytes sha256 of all preceding bytes

Runs live under `runs/<run_id>/` with `items.emb`, `users.emb` (stabilized
embeddings; items.emb doubles as the chaining anchor), `raw_items.emb`,
`raw_users.emb` (verbatim inputs, kept for raw-mode validation), `mT.olt`,
`mW.olt` (composed maps, float64), and `meta` (JSON run record).

One advisory lock, `save.lock` at the store root, guards both writes: the
save of a run and the advance of the pointer. A writer that finds it held
waits for it. Saves write the run under `runs/.staging-<run_id>/`
(removing what a failed save left there) and rename it into place once
`meta` is written, so a failed save never blocks a retry under its id. The
`latest_ref` pointer file at the store root holds the current reference
run id and is advanced by write-new-then-rename, so readers never block
and a crash cannot leave it pointing at garbage.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import re
import shutil
import struct
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import CorruptFile, InvalidRunId, UnknownRun
from .lowrank import EmbeddingMatrix, Role
from .stabilizer import ReferenceSpace, StabilizedRun

EMB_MAGIC = b"OLRE"
TRF_MAGIC = b"OLRT"
FORMAT_VERSION = 1
CHECKSUM_ALGORITHM = "sha256"  # 32-byte digest, fixed for format version 1
DIGEST_SIZE = 32

# Most records in one streamed chunk: reading or writing a .emb file holds
# this many rows in memory, whatever its length.
CHUNK_ROWS = 65536
_HASH_BLOCK_BYTES = 1 << 24

_EMB_HEADER = struct.Struct("<4sHBBQII")
_TRF_HEADER = struct.Struct("<4sHI")

_PRECISION_TO_DTYPE = {4: np.float32, 8: np.float64}

# Run ids and the file names a run record lists: one path component.
_PLAIN_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def _record_dtype(dim: int, precision: int) -> np.dtype:
    return np.dtype([("id", "<u8"), ("vec", f"<f{precision}", (dim,))])


@contextmanager
def open_embeddings(path):
    """The one .emb reader. Parses the header and checks it against the file
    size before anything is allocated, then yields (role, precision, count,
    dim, chunks); chunks yields the records in order, at most CHUNK_ROWS at
    a time in one reused buffer, and checks the digest after the last."""
    with open(path, "rb") as fh:
        header = fh.read(_EMB_HEADER.size)
        if len(header) < _EMB_HEADER.size:
            raise CorruptFile(f"{path}: truncated header")
        magic, version, role_byte, precision, count, dim, reserved = _EMB_HEADER.unpack(header)
        if magic != EMB_MAGIC:
            raise CorruptFile(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise CorruptFile(f"{path}: unsupported format version {version}")
        if role_byte not in (role.value for role in Role):
            raise CorruptFile(f"{path}: unknown role byte {role_byte}")
        if precision not in _PRECISION_TO_DTYPE:
            raise CorruptFile(f"{path}: unknown precision byte {precision}")
        if reserved != 0:
            raise CorruptFile(f"{path}: reserved field must be 0, got {reserved}")
        try:
            record = _record_dtype(dim, precision)
        except ValueError as exc:  # numpy caps a record at a C int of bytes
            raise CorruptFile(f"{path}: unsupported width {dim}") from exc
        size = os.fstat(fh.fileno()).st_size
        expected = _EMB_HEADER.size + count * record.itemsize + DIGEST_SIZE
        if size != expected:
            raise CorruptFile(f"{path}: size {size} != expected {expected}")

        def chunks():
            digest = hashlib.sha256(header)
            buf = np.empty(min(count, CHUNK_ROWS), dtype=record)
            for start in range(0, count, CHUNK_ROWS):
                chunk = buf[: min(CHUNK_ROWS, count - start)]
                if fh.readinto(chunk) != chunk.nbytes:
                    raise CorruptFile(f"{path}: truncated records")
                digest.update(chunk)
                yield chunk
            if fh.read(DIGEST_SIZE + 1) != digest.digest():
                raise CorruptFile(f"{path}: checksum mismatch")

        yield Role(role_byte), precision, count, dim, chunks()


def _write_sealed(path, header: bytes, body) -> str:
    """Write `header`, each buffer that `body` yields, and the sha256 of all
    of them to `<path>.tmp`, then rename it onto `path`. Any exception
    removes the tmp file and leaves `path` as it was. Returns the hex digest."""
    tmp = Path(str(path) + ".tmp")
    digest = hashlib.sha256(header)
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            for buf in body:
                fh.write(buf)
                digest.update(buf)
            fh.write(digest.digest())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return digest.hexdigest()


def write_embedding_chunks(path, role: Role, precision: int, count: int, dim: int, chunks) -> str:
    """The one .emb writer. `chunks` yields (ids, vectors) pairs that add up
    to the `count` rows the header declares; vectors are cast to the file
    precision and packed at most CHUNK_ROWS rows at a time. Returns the hex
    sha256 of the file body."""

    def records():
        buf = np.empty(min(count, CHUNK_ROWS), dtype=_record_dtype(dim, precision))
        written = 0
        for ids, vectors in chunks:
            for start in range(0, len(ids), CHUNK_ROWS):
                n = min(CHUNK_ROWS, len(ids) - start)
                rec = buf[:n]
                rec["id"] = ids[start : start + n]
                rec["vec"] = vectors[start : start + n]
                written += n
                yield rec
        if written != count:
            raise ValueError(f"{path}: {written} rows written, {count} declared")

    header = _EMB_HEADER.pack(
        EMB_MAGIC, FORMAT_VERSION, role.value, precision, count, dim, 0
    )
    return _write_sealed(path, header, records())


def write_embeddings(emb: EmbeddingMatrix, path) -> str:
    """Write an embedding matrix at its own precision (float32 or float64),
    so a write never downcasts; returns the hex sha256 of the file body."""
    precision = emb.vectors.dtype.itemsize
    chunks = [(emb.ids, emb.vectors)]
    return write_embedding_chunks(path, emb.role, precision, emb.n, emb.dim, chunks)


def read_embeddings(path) -> EmbeddingMatrix:
    """Read a .emb file back bit-exactly, verifying structure and checksum."""
    with open_embeddings(path) as (role, precision, count, dim, chunks):
        ids = np.empty(count, dtype=np.uint64)
        vectors = np.empty((count, dim), dtype=_PRECISION_TO_DTYPE[precision])
        start = 0
        for chunk in chunks:
            ids[start : start + len(chunk)] = chunk["id"]
            vectors[start : start + len(chunk)] = chunk["vec"]
            start += len(chunk)
    return EmbeddingMatrix(role, ids, vectors)


def write_transform(matrix, path) -> str:
    """Write a float64 transform; returns the hex sha256 of the file body."""
    m = np.ascontiguousarray(np.asarray(matrix, dtype="<f8"))
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"transform must be a nonempty 2-D matrix, got shape {m.shape}")
    return _write_sealed(path, _TRF_HEADER.pack(TRF_MAGIC, FORMAT_VERSION, m.shape[0]), [m])


def read_transform(path) -> np.ndarray:
    """Read a .olt transform back, verifying structure and checksum."""
    raw = Path(path).read_bytes()
    if len(raw) < _TRF_HEADER.size + DIGEST_SIZE:
        raise CorruptFile(f"{path}: truncated file")
    magic, version, rows = _TRF_HEADER.unpack(raw[: _TRF_HEADER.size])
    if magic != TRF_MAGIC:
        raise CorruptFile(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CorruptFile(f"{path}: unsupported format version {version}")
    body, digest = raw[:-DIGEST_SIZE], raw[-DIGEST_SIZE:]
    if hashlib.sha256(body).digest() != digest:
        raise CorruptFile(f"{path}: checksum mismatch")
    payload = body[_TRF_HEADER.size :]
    if rows == 0 or len(payload) % 8 != 0 or (len(payload) // 8) % rows != 0:
        raise CorruptFile(f"{path}: payload length {len(payload)} does not fit dim {rows}")
    cols = len(payload) // 8 // rows
    if cols == 0:
        raise CorruptFile(f"{path}: empty payload for dim {rows}")
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()


@dataclass(frozen=True)
class RunRecord:
    """Metadata for one stored run; serialized as the run's `meta` file."""

    run_id: str
    reference_run_id: str
    created_at: str
    dim: int
    effective_rank: int
    spectrum: tuple
    rank_policy: str
    files: dict
    anchor: str = "items.emb"
    checksum_algorithm: str = CHECKSUM_ALGORITHM


def _check_record(record: RunRecord, run_id: str) -> None:
    """Raise ValueError unless every field of a loaded record has its JSON
    type, its run_id names its own directory, and every file it names, the
    anchor included, is a plain file name listed in `files`, so a record
    can only point inside its own run."""
    for field in fields(RunRecord):
        value = getattr(record, field.name)
        kind = {"str": str, "int": int, "tuple": tuple, "dict": dict}[field.type]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(f"{field.name} is not a JSON {kind.__name__}: {value!r}")
    if record.run_id != run_id:
        raise ValueError(f"run_id {record.run_id!r} != its directory {run_id!r}")
    if not all(isinstance(s, (int, float)) and not isinstance(s, bool) for s in record.spectrum):
        raise ValueError(f"spectrum holds a non-number: {record.spectrum!r}")
    for name, digest in record.files.items():
        if not _PLAIN_NAME.fullmatch(name) or not isinstance(digest, str):
            raise ValueError(f"files entry {name!r}: {digest!r}")
    if record.anchor not in record.files:
        raise ValueError(f"anchor {record.anchor!r} is not one of the run's files")


class RunStore:
    """Directory-backed store of stabilized runs and the reference pointer.

    Many readers may run concurrently; writers take turns on `save.lock`.
    Committed runs are never rewritten.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)

    @property
    def runs_dir(self) -> Path:
        return self.root / "runs"

    @property
    def latest_ref_path(self) -> Path:
        return self.root / "latest_ref"

    def init(self) -> None:
        self.runs_dir.mkdir(parents=True, exist_ok=True)

    def run_dir(self, run_id: str) -> Path:
        if not _PLAIN_NAME.fullmatch(run_id):
            raise InvalidRunId(f"run id {run_id!r} is not a safe directory name")
        return self.runs_dir / run_id

    def save_run(
        self,
        run: StabilizedRun,
        raw_items: EmbeddingMatrix,
        raw_users: EmbeddingMatrix,
    ) -> RunRecord:
        """Persist one stabilized run, recording the rank policy it ran under.
        The run directory is append-only: saving an existing run id fails
        rather than rewriting history."""
        directory = self.run_dir(run.run_id)
        self.init()
        staging = self.runs_dir / f".staging-{run.run_id}"
        with open(self.root / "save.lock", "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
            if directory.exists():
                raise FileExistsError(f"run {run.run_id!r} already stored; runs are append-only")
            shutil.rmtree(staging, ignore_errors=True)
            staging.mkdir()
            files = {
                "items.emb": write_embeddings(run.stabilized_items, staging / "items.emb"),
                "users.emb": write_embeddings(run.stabilized_users, staging / "users.emb"),
                "raw_items.emb": write_embeddings(raw_items, staging / "raw_items.emb"),
                "raw_users.emb": write_embeddings(raw_users, staging / "raw_users.emb"),
                "mT.olt": write_transform(run.item_map, staging / "mT.olt"),
                "mW.olt": write_transform(run.user_map, staging / "mW.olt"),
            }
            record = RunRecord(
                run_id=run.run_id,
                reference_run_id=run.reference_run_id,
                created_at=datetime.now(timezone.utc).isoformat(),
                dim=run.dim,
                effective_rank=run.effective_rank,
                spectrum=tuple(float(s) for s in run.spectrum),
                rank_policy=run.rank_policy,
                files=files,
            )
            (staging / "meta").write_text(json.dumps(asdict(record), indent=2) + "\n")
            staging.rename(directory)
        return record

    def load_record(self, run_id: str) -> RunRecord:
        meta_path = self.run_dir(run_id) / "meta"
        if not meta_path.exists():
            raise UnknownRun(f"no stored run {run_id!r}")
        try:
            data = json.loads(meta_path.read_text())
            data["spectrum"] = tuple(data["spectrum"])
            record = RunRecord(**data)
            _check_record(record, run_id)
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptFile(f"{meta_path}: malformed run record: {exc!r}") from exc
        return record

    def list_runs(self) -> list[str]:
        # Run ids never start with ".", staging directories always do.
        return sorted(p.parent.name for p in self.runs_dir.glob("[!.]*/meta"))

    def validate_record(self, record: RunRecord) -> None:
        """Check that every referenced file exists and matches its digest."""
        directory = self.run_dir(record.run_id)
        for name, expected in record.files.items():
            path = directory / name
            if not path.exists():
                raise CorruptFile(f"{path}: referenced by run {record.run_id!r} but missing")
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                remaining = os.fstat(fh.fileno()).st_size - DIGEST_SIZE
                while remaining > 0 and (block := fh.read(min(remaining, _HASH_BLOCK_BYTES))):
                    digest.update(block)
                    remaining -= len(block)
            if digest.hexdigest() != expected:
                raise CorruptFile(f"{path}: digest mismatch")

    def load_stabilized(self, run_id: str) -> tuple[EmbeddingMatrix, EmbeddingMatrix]:
        record = self.load_record(run_id)
        directory = self.run_dir(record.run_id)
        return (
            read_embeddings(directory / "items.emb"),
            read_embeddings(directory / "users.emb"),
        )

    def load_raw(self, run_id: str) -> tuple[EmbeddingMatrix, EmbeddingMatrix]:
        record = self.load_record(run_id)
        directory = self.run_dir(record.run_id)
        return (
            read_embeddings(directory / "raw_items.emb"),
            read_embeddings(directory / "raw_users.emb"),
        )

    def latest_reference_id(self) -> str | None:
        if not self.latest_ref_path.exists():
            return None
        text = self.latest_ref_path.read_text().strip()
        return text or None

    def reference_space(self, run_id: str | None = None) -> ReferenceSpace:
        """Load the chaining anchor for the given run, or the latest one."""
        if run_id is None:
            run_id = self.latest_reference_id()
            if run_id is None:
                raise UnknownRun("store has no reference yet; run init first")
        record = self.load_record(run_id)
        anchor = read_embeddings(self.run_dir(record.run_id) / record.anchor)
        return ReferenceSpace(run_id=record.run_id, anchor_items=anchor)

    def advance_reference(self, record: RunRecord) -> None:
        """Atomically point `latest_ref` at the given run.

        Validates the record first (a half-written run must never become
        the reference), then writes a new pointer file and renames it over
        the old one, so readers see either the previous pointer or the new
        one, never a partial write."""
        self.validate_record(record)
        self.init()
        with open(self.root / "save.lock", "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)  # the same writer lock as save_run
            tmp = self.root / "latest_ref.tmp"
            tmp.write_text(record.run_id + "\n")
            os.replace(tmp, self.latest_ref_path)
