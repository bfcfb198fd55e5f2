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
library, RunStore and the CLI's `apply` all stream records through them, at
most CHUNK_ROWS records at a time. Each side keeps one helper thread
(lowrank._Behind) busy behind its caller: the reader hashes chunk i while
the caller works on it and the next read fills a second buffer; the writer
writes and hashes chunk i while the caller fills chunk i+1 in a second
buffer. So a streamed `apply` holds at most two input and two output chunk
buffers, besides its copy of the ids, and runs at most LANES + 2 threads.
Each helper is joined before its stream ends, raises or is abandoned.

Transform file (.olt), all little-endian:

    magic     4 bytes  'OLRT'
    version   u16      1
    dim       u32      input dimension (row count of the matrix)
    payload   rows*cols f64 row-major; every map written is square (e x e),
              but cols is inferred from the payload size, so the e x kept
              maps of older rank-truncated runs still read
    digest    32 bytes sha256 of all preceding bytes

Runs live under `runs/<run_id>/` with `items.emb`, `users.emb` (stabilized
embeddings: the raw inputs through the maps, by the writer call of `apply`,
written for consumers and read by no command), `raw_items.emb`,
`raw_users.emb` (verbatim inputs), `mT.olt`, `mW.olt` (composed maps,
float64) and `meta`, a JSON RunRecord listing each file's sha256, which
every read checks first. load_run reads a run back from its raw pair, its
maps and the spectrum in meta; the chaining anchor is derived from them.

The `latest_ref` pointer file at the store root names the current reference
run. A commit is one hold of one advisory lock, `save.lock` at the root; a
writer that finds it held waits. save_run advances the pointer only if it
still names the run's reference, or is absent for a seed (compare-and-swap).
It stages the run in `runs/.staging-<run_id>/`, syncs it, renames it into
place, syncs `runs/`, then writes the pointer to `latest_ref.tmp`, syncs it
and renames it over `latest_ref`. Readers never block. A commit that fails
anywhere else lists no new run and leaves the pointer; one that fails while
syncing `runs/` leaves the run listed but not latest, and a retry advancing
the same record syncs `runs/` and moves the pointer. Either way a retry
under its id works.
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
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import CorruptFile, InvalidRunId, NonFinite, StaleReference, UnknownRun
from .lowrank import EmbeddingMatrix, Role, _Behind, _readonly, rowwise_matmul
from .stabilizer import StabilizedRun

EMB_MAGIC = b"OLRE"
TRF_MAGIC = b"OLRT"
FORMAT_VERSION = 1
DIGEST_SIZE = 32  # sha256

# Most records in one streamed chunk: reading or writing a .emb file holds
# this many rows in memory, whatever its length.
CHUNK_ROWS = 65536

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
    a time, as read-only views, and checks the digest after the last.

    A helper thread feeds chunk i to sha256 while the caller works on it,
    and the next read fills a second buffer with chunk i+1, so a chunk
    stays valid until the caller asks for the one after next. Leaving the
    block stops and joins the helper."""
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
            buffers = _chunk_buffers(count, record)
            with _Behind() as helper:
                for start in range(0, count, CHUNK_ROWS):
                    chunk = next(buffers)[: min(CHUNK_ROWS, count - start)]
                    if fh.readinto(chunk) != chunk.nbytes:
                        raise CorruptFile(f"{path}: truncated records")
                    helper.submit(digest.update, chunk)
                    yield _readonly(chunk)
            if fh.read(DIGEST_SIZE + 1) != digest.digest():
                raise CorruptFile(f"{path}: checksum mismatch")

        records = chunks()
        try:
            yield Role(role_byte), precision, count, dim, records
        finally:
            records.close()


def _chunk_buffers(count: int, record: np.dtype):
    """Record buffers of min(count, CHUNK_ROWS) rows for consecutive chunks:
    two that alternate, the second allocated only when asked for."""
    first = np.empty(min(count, CHUNK_ROWS), dtype=record)
    yield first
    second = np.empty_like(first)
    while True:
        yield second
        yield first


def _write_sealed(path, header: bytes, body) -> str:
    """Write `header`, each buffer that `body` yields, and the sha256 of all
    of them to `<path>.tmp`, then rename it onto `path`. Returns the hex
    digest.

    A helper thread writes and hashes each buffer while `body` makes the
    next; at most one buffer is in flight. Before `body` is asked for a
    buffer, every buffer but the last it yielded is written and hashed, so
    it may reuse the buffer it yielded two before. Any exception, from
    `body` or the helper, is raised once the helper has stopped,
    removes the tmp file and leaves `path` as it was."""
    tmp = Path(str(path) + ".tmp")
    digest = hashlib.sha256(header)

    def put(buf) -> None:
        fh.write(buf)
        digest.update(buf)

    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            with _Behind() as helper:
                for buf in body:
                    helper.submit(put, buf)
            fh.write(digest.digest())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return digest.hexdigest()


def _fsync(path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_embedding_chunks(
    path, role: Role, precision: int, count: int, dim: int, chunks, transform=None
) -> str:
    """The one .emb writer. `chunks` yields (ids, vectors) pairs that add up
    to the `count` rows the header declares. They are packed at most
    CHUNK_ROWS rows at a time into two alternating record buffers, and
    _write_sealed writes each while the next is packed. A piece's vectors
    go into its records' `vec` field, cast to the file precision: as they
    are, or times `transform` (`dim` columns) by the apply kernel, straight
    into the records. `chunks` is read to its end before the file
    is sealed. Returns the hex sha256 of the file body."""

    def records():
        buffers = _chunk_buffers(count, _record_dtype(dim, precision))
        written = 0
        for ids, vectors in chunks:
            for start in range(0, len(ids), CHUNK_ROWS):
                n = min(CHUNK_ROWS, len(ids) - start)
                rec = next(buffers)[:n]
                rec["id"] = ids[start : start + n]
                if transform is None:
                    np.copyto(rec["vec"], vectors[start : start + n])
                else:
                    rowwise_matmul(vectors[start : start + n], transform, rec["vec"])
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
    """Write a finite float64 transform; returns the hex sha256 of the file
    body."""
    m = np.ascontiguousarray(np.asarray(matrix, dtype="<f8"))
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"transform must be a nonempty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFinite(f"{path}: transform contains NaN or Inf")
    header = _TRF_HEADER.pack(TRF_MAGIC, FORMAT_VERSION, m.shape[0])
    return _write_sealed(path, header, [m])


def read_transform(path) -> np.ndarray:
    """Read a .olt transform back, verifying structure, checksum and that
    every entry is finite."""
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
    m = np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()
    if not np.all(np.isfinite(m)):
        raise NonFinite(f"{path}: transform contains NaN or Inf")
    return m


@dataclass(frozen=True)
class RunRecord:
    """One stored run's `meta`; `files` maps each file to its body's sha256."""

    run_id: str
    reference_run_id: str
    created_at: str
    dim: int
    effective_rank: int
    spectrum: tuple
    files: dict


def _check_record(record: RunRecord, run_id: str) -> None:
    """Raise ValueError unless every field of a loaded record has its JSON
    type, its run_id names its own directory and each listed file is in it."""
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

    def save_run(self, run: StabilizedRun, *, advance: bool = False) -> RunRecord:
        """Persist one run, and with `advance` point `latest_ref` at it. The
        stabilized pair streams from the run's inputs through its maps. Runs
        are append-only: saving a stored run id fails, except that advancing
        a listed run that is not latest with the same record (a commit that
        failed past its rename) syncs `runs/` and moves the pointer. A run
        advances only from the reference it was built on, a seed (its own
        reference) from none: otherwise advancing raises StaleReference
        before any write, so a store holds one chain."""
        directory = self.run_dir(run.run_id)
        self.init()
        staging = self.runs_dir / f".staging-{run.run_id}"
        pointer = self.root / "latest_ref.tmp"
        with open(self.root / "save.lock", "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
            built_on = None if run.reference_run_id == run.run_id else run.reference_run_id
            swaps = built_on == (latest := self.latest_reference_id())
            stored = (directory / "meta").exists()
            taken = FileExistsError(f"run {run.run_id!r} already stored; runs are append-only")
            if stored and not (advance and swaps):
                raise taken
            if advance and not swaps:
                raise StaleReference(
                    f"run {run.run_id!r} is built on {built_on!r}; latest_ref names {latest!r}"
                )
            shutil.rmtree(staging, ignore_errors=True)
            staging.mkdir()

            def stabilized(raw: EmbeddingMatrix, transform, name: str) -> str:
                return write_embedding_chunks(
                    staging / name, raw.role, raw.vectors.dtype.itemsize, raw.n,
                    transform.shape[1], [(raw.ids, raw.vectors)], transform,
                )

            files = {
                "items.emb": stabilized(run.raw_items, run.item_map, "items.emb"),
                "users.emb": stabilized(run.raw_users, run.user_map, "users.emb"),
                "raw_items.emb": write_embeddings(run.raw_items, staging / "raw_items.emb"),
                "raw_users.emb": write_embeddings(run.raw_users, staging / "raw_users.emb"),
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
                files=files,
            )
            if stored:  # a retry past the rename: the staged copy only serves to compare
                shutil.rmtree(staging)
                kept = self.load_record(run.run_id)
                if replace(record, created_at=kept.created_at) != kept:
                    raise taken
                record = kept
            else:
                (staging / "meta").write_text(json.dumps(asdict(record), indent=2) + "\n")
                for path in [*staging.iterdir(), staging]:
                    _fsync(path)
                shutil.rmtree(directory, ignore_errors=True)  # no meta: an older store's failed save
                staging.rename(directory)
            _fsync(self.runs_dir)  # the run is on disk before the pointer names it
            if advance:
                try:
                    pointer.write_text(run.run_id + "\n")
                    _fsync(pointer)
                    os.replace(pointer, self.latest_ref_path)
                except BaseException:
                    if not stored:  # a retry leaves its run listed, as it found it
                        directory.rename(staging)
                        _fsync(self.runs_dir)
                    raise
            _fsync(self.root)
        return record

    def load_record(self, run_id: str) -> RunRecord:
        meta_path = self.run_dir(run_id) / "meta"
        if not meta_path.exists():
            raise UnknownRun(f"no stored run {run_id!r}")
        try:
            data = json.loads(meta_path.read_text())
            data["spectrum"] = tuple(data["spectrum"])
            # Older metas hold these keys, each at one of the values listed.
            for key, values in (("anchor", ("items.emb",)), ("checksum_algorithm", ("sha256",)),
                                ("rank_policy", ("strict", "truncate"))):
                if data.pop(key, values[0]) not in values:
                    raise ValueError(f"{key} must be one of {values!r}")
            record = RunRecord(**data)
            _check_record(record, run_id)
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptFile(f"{meta_path}: malformed run record: {exc!r}") from exc
        return record

    def list_runs(self) -> list[str]:
        # Run ids never start with ".", staging directories always do.
        return sorted(p.parent.name for p in self.runs_dir.glob("[!.]*/meta"))

    def _listed(self, record: RunRecord, name: str) -> Path:
        """Path of run file `name` once its trailing digest is the one `record`
        lists; every read goes through here, then the codec checks the body."""
        path = self.run_dir(record.run_id) / name
        try:
            with open(path, "rb") as fh:
                fh.seek(max(os.fstat(fh.fileno()).st_size - DIGEST_SIZE, 0))
                trailer = fh.read().hex()
        except FileNotFoundError as exc:
            raise CorruptFile(f"{path}: missing from run {record.run_id!r}") from exc
        if trailer != record.files.get(name):
            raise CorruptFile(f"{path}: digest differs from the meta of run {record.run_id!r}")
        return path

    def validate_record(self, record: RunRecord) -> None:
        """Check each listed file as a read does, then drain it through its
        codec: open_embeddings (two chunk buffers) or read_transform."""
        for name in record.files:
            path = self._listed(record, name)
            if name.endswith(".olt"):
                read_transform(path)
                continue
            with open_embeddings(path) as (*_, chunks):
                for _ in chunks:
                    pass

    def load_run(self, run_id: str) -> StabilizedRun:
        """A stored run as save_run was given it: its raw pair, its two maps
        and the spectrum from its meta, each file read through _listed."""
        record = self.load_record(run_id)
        return StabilizedRun(
            run_id=record.run_id,
            reference_run_id=record.reference_run_id,
            raw_items=read_embeddings(self._listed(record, "raw_items.emb")),
            raw_users=read_embeddings(self._listed(record, "raw_users.emb")),
            item_map=read_transform(self._listed(record, "mT.olt")),
            user_map=read_transform(self._listed(record, "mW.olt")),
            spectrum=np.array(record.spectrum, dtype=np.float64),
        )

    def latest_reference_id(self) -> str | None:
        if not self.latest_ref_path.exists():
            return None
        text = self.latest_ref_path.read_text().strip()
        return text or None

    def reference_space(self, run_id: str | None = None) -> StabilizedRun:
        """The run that anchors the next stabilize_run: `run_id`, or the
        latest reference."""
        if run_id is None:
            run_id = self.latest_reference_id()
            if run_id is None:
                raise UnknownRun("store has no reference yet; run init first")
        return self.load_run(run_id)
