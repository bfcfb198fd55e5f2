import hashlib
import json
import os
import pathlib
import random
import re
import shutil
import signal
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import embstab.lowrank
import embstab.store
from embstab import (
    EmbeddingMatrix,
    Role,
    RunRecord,
    RunStore,
    apply_transform,
    init_reference,
    read_embeddings,
    read_transform,
    stabilize_run,
    write_embeddings,
    write_transform,
)
from embstab.errors import (
    CorruptFile,
    DegenerateAlignmentWarning,
    InvalidRunId,
    NonFinite,
    RankTruncationWarning,
    StaleReference,
    UnknownRun,
)
from embstab.cli import main
from embstab.stabilizer import StabilizedRun
from embstab.store import write_embedding_chunks
from conftest import (
    DAMAGED_FILE,
    MALFORMED_META,
    child_env,
    random_pair,
    write_narrow_truncated_store,
)


def sample_emb(n=5, dim=3, dtype=np.float64, role=Role.ITEM, seed=0):
    gen = np.random.default_rng(seed)
    vectors = gen.standard_normal((n, dim)).astype(dtype)
    ids = gen.choice(2**40, size=n, replace=False).astype(np.uint64)
    return EmbeddingMatrix(role, ids, vectors)


class TestEmbeddingFormat:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("role", [Role.ITEM, Role.USER])
    def test_round_trip_bit_exact(self, tmp_path, dtype, role):
        emb = sample_emb(dtype=dtype, role=role, seed=1)
        path = tmp_path / "e.emb"
        write_embeddings(emb, path)
        back = read_embeddings(path)
        assert back.role is role
        assert back.vectors.dtype == dtype
        assert np.array_equal(back.ids, emb.ids)
        assert np.array_equal(back.vectors, emb.vectors)

    def test_byte_layout_golden(self, tmp_path):
        emb = EmbeddingMatrix(
            Role.USER, np.array([7], dtype=np.uint64), np.array([[1.5, -2.0]], dtype=np.float32)
        )
        path = tmp_path / "e.emb"
        write_embeddings(emb, path)
        raw = path.read_bytes()
        header = struct.pack("<4sHBBQII", b"OLRE", 1, 1, 4, 1, 2, 0)
        record = struct.pack("<Qff", 7, 1.5, -2.0)
        assert raw[: len(header)] == header
        assert raw[len(header) : len(header) + len(record)] == record
        assert raw[-32:] == hashlib.sha256(raw[:-32]).digest()
        assert len(raw) == len(header) + len(record) + 32

    def test_empty_matrix_is_header_plus_checksum(self, tmp_path):
        emb = EmbeddingMatrix(Role.ITEM, np.empty(0, np.uint64), np.empty((0, 4)))
        path = tmp_path / "empty.emb"
        write_embeddings(emb, path)
        assert path.stat().st_size == 24 + 32
        back = read_embeddings(path)
        assert back.n == 0 and back.dim == 4

    def test_flipped_payload_byte_detected(self, tmp_path):
        emb = sample_emb(seed=2)
        path = tmp_path / "e.emb"
        write_embeddings(emb, path)
        raw = bytearray(path.read_bytes())
        raw[30] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFile):
            read_embeddings(path)

    def test_truncated_file_detected(self, tmp_path):
        emb = sample_emb(seed=3)
        path = tmp_path / "e.emb"
        write_embeddings(emb, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(CorruptFile):
            read_embeddings(path)

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "e.emb"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(CorruptFile):
            read_embeddings(path)

    @given(
        n=st.integers(min_value=0, max_value=40),
        dim=st.integers(min_value=1, max_value=12),
        f32=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, n, dim, f32, seed):
        gen = np.random.default_rng(seed)
        dtype = np.float32 if f32 else np.float64
        emb = EmbeddingMatrix(
            Role.ITEM,
            gen.choice(2**50, size=n, replace=False).astype(np.uint64),
            gen.standard_normal((n, dim)).astype(dtype),
        )
        path = tmp_path_factory.mktemp("rt") / "e.emb"
        write_embeddings(emb, path)
        back = read_embeddings(path)
        assert np.array_equal(back.ids, emb.ids)
        assert np.array_equal(back.vectors, emb.vectors)
        assert back.vectors.dtype == dtype


class TestChunkedCodec:
    RECORD = 8 + 3 * 8  # id plus three float64

    def written(self, tmp_path, n=40):
        path = tmp_path / "e.emb"
        write_embeddings(sample_emb(n=n, seed=4), path)
        return path

    @pytest.mark.parametrize("rows", [1, 7, 37])
    def test_chunked_read_is_bit_identical(self, tmp_path, monkeypatch, rows):
        path = self.written(tmp_path)
        whole = read_embeddings(path)
        monkeypatch.setattr(embstab.store, "CHUNK_ROWS", rows)
        chunked = read_embeddings(path)
        assert chunked.ids.tobytes() == whole.ids.tobytes()
        assert chunked.vectors.tobytes() == whole.vectors.tobytes()

    @pytest.mark.parametrize("rows", [1, 7, 37])
    def test_chunked_write_is_byte_identical(self, tmp_path, monkeypatch, rows):
        emb = sample_emb(n=40, seed=4)
        whole = self.written(tmp_path).read_bytes()
        monkeypatch.setattr(embstab.store, "CHUNK_ROWS", rows)
        write_embeddings(emb, tmp_path / "chunked.emb")
        assert (tmp_path / "chunked.emb").read_bytes() == whole

    def test_flipped_byte_in_later_chunk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embstab.store, "CHUNK_ROWS", 7)
        path = self.written(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[24 + 30 * self.RECORD + 10] ^= 0x01  # row 30, in the fifth chunk
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFile, match="checksum"):
            read_embeddings(path)

    @pytest.mark.parametrize(
        "cut", [lambda raw: raw[: 24 + 38 * TestChunkedCodec.RECORD + 5], lambda raw: raw + b"\0"]
    )
    def test_truncated_last_chunk_or_trailing_bytes(self, tmp_path, monkeypatch, cut):
        monkeypatch.setattr(embstab.store, "CHUNK_ROWS", 7)
        path = self.written(tmp_path)
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(CorruptFile, match="size"):
            read_embeddings(path)

    def test_huge_count_rejected_without_allocating(self, tmp_path):
        path = self.written(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[8:16] = struct.pack("<Q", 2**40)
        path.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            with pytest.raises(CorruptFile, match="size"):
                read_embeddings(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_huge_dim_with_no_rows_is_corrupt(self, tmp_path):
        # count 0 makes the size check pass; the width alone is out of range.
        path = tmp_path / "wide.emb"
        header = struct.pack("<4sHBBQII", b"OLRE", 1, 0, 8, 0, 2**31, 0)
        path.write_bytes(header + hashlib.sha256(header).digest())
        with pytest.raises(CorruptFile, match="width"):
            read_embeddings(path)

    def test_failed_write_leaves_no_file(self, tmp_path):
        emb = sample_emb(n=5)
        with pytest.raises(ValueError, match="declared"):
            write_embedding_chunks(
                tmp_path / "e.emb", emb.role, 8, emb.n + 1, emb.dim, [(emb.ids, emb.vectors)]
            )
        assert list(tmp_path.iterdir()) == []


def _failing_writes(monkeypatch, fail_at: int) -> None:
    """Make the `fail_at`-th write (from 1, the header first) to any file the
    store opens for writing raise OSError."""
    real_open = open

    class FailingFile:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, buf):
            self.writes += 1
            if self.writes == fail_at:
                raise OSError("simulated write failure")
            return self.fh.write(buf)

    def opener(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return FailingFile(fh) if "w" in mode else fh

    monkeypatch.setattr(embstab.store, "open", opener, raising=False)


class TestStreamedApply:
    """The codec's helper threads under `apply`, with CHUNK_ROWS small so
    every file spans several chunks."""

    ROWS = 40

    @pytest.fixture
    def files(self, tmp_path):
        """A 40-row user file per precision, a 6 x 5 map, and the previous
        output of an earlier apply, which a failed apply must leave as it is."""
        gen = np.random.default_rng(21)
        for dtype in (np.float32, np.float64):
            users = EmbeddingMatrix.of_users(gen.standard_normal((self.ROWS, 6)).astype(dtype))
            write_embeddings(users, tmp_path / f"{np.dtype(dtype).name}.emb")
        write_transform(gen.standard_normal((6, 5)), tmp_path / "m.olt")
        (tmp_path / "out.emb").write_bytes(b"previous output")
        return tmp_path

    def apply(self, files, name):
        return main([
            "apply", "--emb", str(files / f"{name}.emb"),
            "--transform", str(files / "m.olt"), "--out", str(files / "out.emb"),
        ])

    @pytest.mark.parametrize("name", ["float32", "float64"])
    def test_output_bytes_do_not_depend_on_chunks_or_lanes(self, files, monkeypatch, name):
        assert self.apply(files, name) == 0
        single = (files / "out.emb").read_bytes()
        for rows in (1, 7, 37):
            for lanes in (1, 2):
                monkeypatch.setattr(embstab.store, "CHUNK_ROWS", rows)
                monkeypatch.setattr(embstab.lowrank, "LANES", lanes)
                threads = set(threading.enumerate())
                assert self.apply(files, name) == 0
                assert set(threading.enumerate()) == threads
                assert (files / "out.emb").read_bytes() == single, (rows, lanes)

    def test_one_helper_per_chunk_read_and_written(self, files, monkeypatch):
        monkeypatch.setattr(embstab.lowrank, "LANES", 1)
        made = []
        real = threading.Thread

        def counted(*args, **kwargs):
            made.append(real(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(threading, "Thread", counted)
        assert self.apply(files, "float64") == 0
        assert len(made) == 2  # one chunk read, one written
        monkeypatch.setattr(embstab.store, "CHUNK_ROWS", 7)
        made.clear()
        assert self.apply(files, "float64") == 0
        assert len(made) == 12  # six chunks read, six written
        assert not any(thread.is_alive() for thread in made)

    def test_flipped_byte_in_last_chunk(self, files, monkeypatch):
        monkeypatch.setattr(embstab.store, "CHUNK_ROWS", 7)
        path = files / "float64.emb"
        raw = bytearray(path.read_bytes())
        raw[24 + 38 * (8 + 6 * 8) + 10] ^= 0x01  # row 38, in the sixth and last chunk
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFile, match="checksum"):
            read_embeddings(path)
        threads = set(threading.enumerate())
        assert self.apply(files, "float64") == 3
        assert set(threading.enumerate()) == threads
        assert (files / "out.emb").read_bytes() == b"previous output"
        assert not (files / "out.emb.tmp").exists()

    @pytest.mark.parametrize("fail_at", [1, 2, 4, 7, 8])
    def test_write_failing_mid_stream(self, files, monkeypatch, fail_at):
        # Writes are the header, six 7-row chunks and the digest.
        monkeypatch.setattr(embstab.store, "CHUNK_ROWS", 7)
        emb = read_embeddings(files / "float32.emb")
        threads = set(threading.enumerate())
        _failing_writes(monkeypatch, fail_at)
        with pytest.raises(OSError, match="simulated"):
            write_embeddings(emb, files / "copy.emb")
        assert self.apply(files, "float32") == 3
        assert set(threading.enumerate()) == threads
        assert sorted(p.name for p in files.iterdir()) == [
            "float32.emb", "float64.emb", "m.olt", "out.emb",
        ]
        assert (files / "out.emb").read_bytes() == b"previous output"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_memory_is_bounded_by_chunk_buffers(self, tmp_path, monkeypatch, dtype):
        """Two input and two output chunk buffers, plus the kernel's tiles,
        whatever the row count; the 1 MiB of slack also covers the copy of
        the ids that apply checks, 8 bytes a row."""
        chunk, width = 8192, 32
        monkeypatch.setattr(embstab.store, "CHUNK_ROWS", chunk)
        gen = np.random.default_rng(5)
        write_transform(gen.standard_normal((width, width)), tmp_path / "m.olt")
        peaks = []
        for chunks in (2, 4):
            users = EmbeddingMatrix.of_users(
                gen.standard_normal((chunks * chunk, width)).astype(dtype)
            )
            write_embeddings(users, tmp_path / "in.emb")
            del users
            tracemalloc.start()
            try:
                assert main([
                    "apply", "--emb", str(tmp_path / "in.emb"),
                    "--transform", str(tmp_path / "m.olt"), "--out", str(tmp_path / "out.emb"),
                ]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        buffer = chunk * (8 + width * np.dtype(dtype).itemsize)
        tiles = embstab.lowrank.LANES * 2 * width * embstab.lowrank.TILE_ROWS * 8
        assert peaks[1] <= 1.1 * peaks[0]
        assert peaks[1] <= 4 * buffer + tiles + (1 << 20)


class TestTransformFormat:
    def test_round_trip_square(self, tmp_path):
        m = np.random.default_rng(0).standard_normal((6, 6))
        path = tmp_path / "t.olt"
        write_transform(m, path)
        assert np.array_equal(read_transform(path), m)

    def test_round_trip_rectangular(self, tmp_path):
        m = np.random.default_rng(1).standard_normal((6, 4))
        path = tmp_path / "t.olt"
        write_transform(m, path)
        back = read_transform(path)
        assert back.shape == (6, 4)
        assert np.array_equal(back, m)

    def test_identity_payload_bytes(self, tmp_path):
        # Golden encoding: the 2x2 identity payload is the little-endian
        # float64 sequence 1, 0, 0, 1.
        path = tmp_path / "t.olt"
        write_transform(np.eye(2), path)
        raw = path.read_bytes()
        header = struct.pack("<4sHI", b"OLRT", 1, 2)
        assert raw[: len(header)] == header
        assert raw[len(header) : -32] == struct.pack("<4d", 1.0, 0.0, 0.0, 1.0)

    def test_payload_not_fitting_dim_is_corrupt(self, tmp_path):
        # Craft a file with a valid checksum whose payload cannot form whole
        # rows of the declared dimension.
        path = tmp_path / "t.olt"
        body = struct.pack("<4sHI", b"OLRT", 1, 3) + struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(CorruptFile, match="payload"):
            read_transform(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_map_is_not_written(self, tmp_path, bad):
        m = np.eye(8)
        m[3, 5] = bad
        path = tmp_path / "t.olt"
        with pytest.raises(NonFinite):
            write_transform(m, path)
        assert list(tmp_path.iterdir()) == []

    def test_sealed_non_finite_map_is_not_read(self, tmp_path):
        # A well-formed file, checksum and all, that holds one NaN.
        m = np.eye(8)
        m[3, 5] = np.nan
        path = tmp_path / "t.olt"
        body = struct.pack("<4sHI", b"OLRT", 1, 8) + m.astype("<f8").tobytes()
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(NonFinite):
            read_transform(path)

    def test_corrupt_checksum(self, tmp_path):
        path = tmp_path / "t.olt"
        write_transform(np.eye(3), path)
        raw = bytearray(path.read_bytes())
        raw[12] ^= 1
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFile):
            read_transform(path)

    @given(
        rows=st.integers(min_value=1, max_value=10),
        cols=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, rows, cols, seed):
        m = np.random.default_rng(seed).standard_normal((rows, cols))
        path = tmp_path_factory.mktemp("rt") / "t.olt"
        write_transform(m, path)
        assert np.array_equal(read_transform(path), m)


def assert_same_run(loaded, run):
    """Every field of two StabilizedRuns agrees: arrays in dtype, shape and
    bytes, an embedding side in role, ids and vectors."""
    def same_array(a, b):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()

    for field in fields(StabilizedRun):
        a, b = getattr(loaded, field.name), getattr(run, field.name)
        if isinstance(b, EmbeddingMatrix):
            assert a.role == b.role, field.name
            same_array(a.ids, b.ids)
            same_array(a.vectors, b.vectors)
        elif isinstance(b, np.ndarray):
            same_array(np.asarray(a), b)
        else:
            assert a == b, field.name


def make_store_with_runs(tmp_path, n_runs=2):
    store = RunStore(tmp_path / "store")
    items, users = random_pair(40, 30, 4, seed=0)
    run = init_reference(items, users, "run0")
    records = [store.save_run(run, advance=True)]
    for k in range(1, n_runs):
        items_k, users_k = random_pair(40, 30, 4, seed=k)
        run = stabilize_run(items_k, users_k, run, f"run{k}")
        records.append(store.save_run(run, advance=True))
    return store, records


def next_run(store, run_id, seed):
    """A run stabilized against the store's latest reference."""
    items, users = random_pair(40, 30, 4, seed=seed)
    return stabilize_run(items, users, store.reference_space(), run_id)


def fail_call(monkeypatch, owner, name, index):
    """Make the `index`-th call (from 0) of owner.name raise OSError, once."""
    original = getattr(owner, name)
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(args)
        if len(calls) - 1 == index:
            raise OSError(f"simulated failure in {name} call {index}")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapped)
    return calls


# Each step of a commit that can fail, in the order a commit takes them, as
# (owner, function, index of the call that fails). The six files of a run
# are sealed by an os.replace each, in this order.
SEALED = ("items.emb", "users.emb", "raw_items.emb", "raw_users.emb", "mT.olt", "mW.olt")
COMMIT_STEPS = {
    **{f"seal_{name}": (os, "replace", k) for k, name in enumerate(SEALED)},
    "meta_write": (pathlib.Path, "write_text", 0),
    "pointer_tmp_write": (pathlib.Path, "write_text", 1),
    "staging_rename": (pathlib.Path, "rename", 0),
    "pointer_replace": (os, "replace", 6),
}


class TestRunStore:
    def test_layout_and_record_round_trip(self, tmp_path):
        store, records = make_store_with_runs(tmp_path)
        run_dir = store.run_dir("run0")
        for name in ("items.emb", "users.emb", "raw_items.emb", "raw_users.emb",
                     "mT.olt", "mW.olt", "meta"):
            assert (run_dir / name).exists()
        record = store.load_record("run0")
        assert record == records[0]

    def test_loaders(self, tmp_path):
        # load_run, and reference_space over it, return each saved run, the
        # seed and two chained on it, field for field and bit for bit.
        for dtype in (np.float32, np.float64):
            store = RunStore(tmp_path / np.dtype(dtype).name)
            runs = []
            for k in range(3):
                items, users = random_pair(40, 30, 4, seed=k, dtype=dtype)
                if runs:
                    runs.append(stabilize_run(items, users, runs[-1], f"run{k}"))
                else:
                    runs.append(init_reference(items, users, "run0"))
                store.save_run(runs[-1], advance=True)
            for run in runs:
                assert_same_run(store.load_run(run.run_id), run)
                assert_same_run(store.reference_space(run.run_id), run)
            assert_same_run(store.reference_space(), runs[-1])

    def test_append_only(self, tmp_path):
        store, _ = make_store_with_runs(tmp_path, n_runs=1)
        items, users = random_pair(40, 30, 4, seed=9)
        run = init_reference(items, users, "run0")
        with pytest.raises(FileExistsError):
            store.save_run(run)

    def test_advance_twice_keeps_history(self, tmp_path):
        store, records = make_store_with_runs(tmp_path, n_runs=2)
        assert store.latest_reference_id() == "run1"
        assert store.list_runs() == ["run0", "run1"]
        # Both remain readable after the pointer moved.
        store.load_run("run0")
        store.load_run("run1")

    def test_reference_space_latest_and_pinned(self, tmp_path):
        store, _ = make_store_with_runs(tmp_path, n_runs=2)
        assert store.reference_space().run_id == "run1"
        assert store.reference_space("run0").run_id == "run0"

    def test_unknown_run(self, tmp_path):
        store, _ = make_store_with_runs(tmp_path, n_runs=1)
        with pytest.raises(UnknownRun):
            store.load_record("runX")
        with pytest.raises(UnknownRun):
            store.reference_space("runX")

    def test_empty_store_has_no_reference(self, tmp_path):
        store = RunStore(tmp_path / "fresh")
        store.init()
        assert store.latest_reference_id() is None
        with pytest.raises(UnknownRun):
            store.reference_space()

    def test_meta_holds_the_record_fields_alone(self, tmp_path):
        store, _ = make_store_with_runs(tmp_path, n_runs=1)
        meta = json.loads((store.run_dir("run0") / "meta").read_text())
        assert sorted(meta) == sorted(field.name for field in fields(RunRecord))
        assert len(meta) == 7

    @pytest.mark.parametrize("name", SEALED)
    def test_validate_record_refuses_a_file_of_another_run(self, tmp_path, name):
        # The swapped file is whole, so only the digest in meta tells.
        store, records = make_store_with_runs(tmp_path, n_runs=2)
        path = store.run_dir("run1") / name
        shutil.copyfile(store.run_dir("run0") / name, path)
        with pytest.raises(CorruptFile, match=re.escape(str(path))):
            store.validate_record(records[1])

    @pytest.mark.parametrize("damage", sorted(DAMAGED_FILE))
    @pytest.mark.parametrize("name", SEALED)
    def test_validate_record_refuses_a_damaged_file(self, tmp_path, name, damage):
        store, records = make_store_with_runs(tmp_path, n_runs=1)
        path = store.run_dir("run0") / name
        DAMAGED_FILE[damage](path)
        with pytest.raises(CorruptFile, match=re.escape(str(path))):
            store.validate_record(records[0])

    def test_validate_record_holds_two_chunk_buffers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embstab.store, "CHUNK_ROWS", 1024)
        items, users = random_pair(32768, 4096, 16, seed=3)
        store = RunStore(tmp_path / "store")
        record = store.save_run(init_reference(items, users, "run0"))
        chunk = 1024 * (8 + 16 * 8)  # one chunk of float64 records
        tracemalloc.start()
        try:
            store.validate_record(record)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * chunk + (1 << 20)

    def test_validate_record_detects_tampering(self, tmp_path):
        store, records = make_store_with_runs(tmp_path, n_runs=1)
        path = store.run_dir("run0") / "items.emb"
        raw = bytearray(path.read_bytes())
        raw[40] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFile):
            store.validate_record(records[0])

    def test_validate_record_detects_tampered_transform(self, tmp_path):
        store, records = make_store_with_runs(tmp_path, n_runs=1)
        path = store.run_dir("run0") / "mT.olt"
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFile):
            store.validate_record(records[0])

    @pytest.mark.parametrize("failing", range(6))
    def test_failed_save_does_not_block_retry(self, tmp_path, monkeypatch, failing):
        store = RunStore(tmp_path / "store")
        items, users = random_pair(40, 30, 4, seed=0)
        run = init_reference(items, users, "run0")
        calls = []

        def fail_once(write, path_arg):
            def wrapped(*args, **kwargs):
                calls.append(args[path_arg])
                if len(calls) - 1 == failing:
                    raise OSError(f"simulated failure writing {args[path_arg]}")
                return write(*args, **kwargs)

            return wrapped

        # Each .emb file, raw copy or stabilized, is one write_embedding_chunks call.
        monkeypatch.setattr(
            embstab.store, "write_embedding_chunks", fail_once(write_embedding_chunks, 0)
        )
        monkeypatch.setattr(embstab.store, "write_transform", fail_once(write_transform, 1))
        with pytest.raises(OSError, match="simulated"):
            store.save_run(run)
        monkeypatch.undo()
        assert len(calls) == failing + 1
        assert pathlib.Path(calls[failing]).name == SEALED[failing]
        assert store.list_runs() == []
        assert not store.run_dir("run0").exists()

        record = store.save_run(run)
        store.validate_record(record)
        assert store.list_runs() == ["run0"]
        assert [p.name for p in store.runs_dir.iterdir()] == ["run0"]

    def test_staged_run_with_meta_is_not_listed(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path / "store")
        items, users = random_pair(40, 30, 4, seed=0)
        run = init_reference(items, users, "run0")

        def explode(self, target):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(pathlib.Path, "rename", explode)
        with pytest.raises(OSError, match="simulated"):
            store.save_run(run)
        monkeypatch.undo()
        assert (store.runs_dir / ".staging-run0" / "meta").exists()
        assert store.list_runs() == []
        store.validate_record(store.save_run(run))
        assert store.list_runs() == ["run0"]

    def test_concurrent_saves_of_one_id_commit_one_whole_run(self, tmp_path):
        store = RunStore(tmp_path / "store")
        saves = []
        for seed in (0, 1):
            items, users = random_pair(3000, 2000, 8, seed=seed)
            saves.append(init_reference(items, users, "run0"))
        results = []

        def save(run):
            try:
                results.append(store.save_run(run))
            except FileExistsError as exc:
                results.append(exc)

        threads = [threading.Thread(target=save, args=(run,)) for run in saves]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        records = [r for r in results if isinstance(r, RunRecord)]
        assert len(results) == 2 and len(records) == 1
        store.validate_record(records[0])
        assert store.load_record("run0") == records[0]

    def test_advance_with_missing_anchor_leaves_pointer(self, tmp_path, monkeypatch):
        store, _ = make_store_with_runs(tmp_path, n_runs=2)
        run = next_run(store, "run2", seed=2)

        def no_anchor(path, *args):
            if path.name == "items.emb":
                raise OSError("simulated failure writing the anchor")
            return write_embedding_chunks(path, *args)

        monkeypatch.setattr(embstab.store, "write_embedding_chunks", no_anchor)
        with pytest.raises(OSError, match="anchor"):
            store.save_run(run, advance=True)
        assert store.latest_reference_id() == "run1"
        assert store.list_runs() == ["run0", "run1"]

    def test_crash_between_write_and_rename(self, tmp_path, monkeypatch):
        store, _ = make_store_with_runs(tmp_path, n_runs=1)
        run = next_run(store, "run1", seed=1)
        replace = os.replace

        def explode(src, dst):
            # Only the pointer rename crashes; the run's own files seal.
            if dst == store.latest_ref_path:
                raise RuntimeError("simulated crash")
            return replace(src, dst)

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(RuntimeError):
            store.save_run(run, advance=True)
        monkeypatch.undo()
        assert store.latest_reference_id() == "run0"
        assert store.list_runs() == ["run0"]

    def test_advance_waits_for_the_save_lock(self, tmp_path):
        import fcntl

        store, _ = make_store_with_runs(tmp_path, n_runs=1)
        run = next_run(store, "run1", seed=1)
        errors = []

        def advance():
            try:
                store.save_run(run, advance=True)
            except Exception as exc:
                errors.append(exc)

        advancer = threading.Thread(target=advance)
        with open(store.root / "save.lock", "w") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX)
            advancer.start()
            advancer.join(timeout=1.0)
            assert advancer.is_alive()
            assert store.latest_reference_id() == "run0"
            assert store.list_runs() == ["run0"]
        advancer.join(timeout=60)
        assert not advancer.is_alive()
        assert errors == []
        assert store.latest_reference_id() == "run1"
        assert not (store.root / "latest_ref.lock").exists()

    def test_lost_update_is_refused(self, tmp_path):
        # B and C both read reference A; B commits first.
        store, _ = make_store_with_runs(tmp_path, n_runs=1)
        run_b = next_run(store, "B", seed=1)
        run_c = next_run(store, "C", seed=2)
        store.save_run(run_b, advance=True)
        with pytest.raises(StaleReference):
            store.save_run(run_c, advance=True)
        assert store.latest_reference_id() == "B"
        assert sorted(p.name for p in store.runs_dir.iterdir()) == ["B", "run0"]
        # Stabilized again against B, C commits onto the chain.
        run_c = next_run(store, "C", seed=2)
        assert store.save_run(run_c, advance=True).reference_run_id == "B"
        assert store.latest_reference_id() == "C"

    def test_seed_advances_only_an_empty_store(self, tmp_path):
        store, _ = make_store_with_runs(tmp_path, n_runs=2)
        items, users = random_pair(40, 30, 4, seed=7)
        with pytest.raises(StaleReference, match="latest_ref names 'run1'"):
            store.save_run(init_reference(items, users, "run9"), advance=True)
        assert store.latest_reference_id() == "run1"
        assert sorted(p.name for p in store.runs_dir.iterdir()) == ["run0", "run1"]

    def test_concurrent_writers_keep_one_linear_chain(self, tmp_path):
        store, _ = make_store_with_runs(tmp_path, n_runs=1)
        writers, runs_each = 4, 3
        errors = []

        def write(w):
            try:
                for j in range(runs_each):
                    while True:
                        run = next_run(store, f"w{w}r{j}", seed=10 * w + j + 1)
                        try:
                            store.save_run(run, advance=True)
                            break
                        except StaleReference:
                            continue
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        chain = [store.latest_reference_id()]
        while (ref := store.load_record(chain[-1]).reference_run_id) != chain[-1]:
            chain.append(ref)
        assert chain[-1] == "run0"
        assert len(chain) == len(set(chain)) == writers * runs_each + 1
        assert sorted(chain) == store.list_runs()

    @pytest.mark.parametrize("step", sorted(COMMIT_STEPS))
    def test_failed_commit_step_leaves_store_and_lets_retry(self, tmp_path, monkeypatch, step):
        store, _ = make_store_with_runs(tmp_path, n_runs=1)
        run = next_run(store, "run1", seed=1)
        owner, name, index = COMMIT_STEPS[step]
        calls = fail_call(monkeypatch, owner, name, index)
        with pytest.raises(OSError, match="simulated"):
            store.save_run(run, advance=True)
        monkeypatch.undo()
        if step.startswith("seal_"):
            assert pathlib.Path(calls[index][1]).name == step[len("seal_"):]
        assert store.latest_reference_id() == "run0"
        assert store.list_runs() == ["run0"]
        assert not store.run_dir("run1").exists()

        record = store.save_run(run, advance=True)
        store.validate_record(record)
        assert store.latest_reference_id() == "run1"
        assert store.list_runs() == ["run0", "run1"]
        assert sorted(p.name for p in store.runs_dir.iterdir()) == ["run0", "run1"]

    def test_retry_after_a_failure_past_the_rename_only_moves_the_pointer(
        self, tmp_path, monkeypatch
    ):
        # The run's rename has happened when runs/ fails to sync: it stays
        # listed but not latest, and a retry of the same run advances to it.
        store, _ = make_store_with_runs(tmp_path, n_runs=1)
        run = next_run(store, "run1", seed=1)
        fsync, failed = embstab.store._fsync, []

        def runs_sync_fails_once(path):
            if path == store.runs_dir and not failed:
                failed.append(path)
                raise OSError("simulated failure syncing runs/")
            return fsync(path)

        monkeypatch.setattr(embstab.store, "_fsync", runs_sync_fails_once)
        with pytest.raises(OSError, match="simulated"):
            store.save_run(run, advance=True)
        monkeypatch.undo()
        assert store.list_runs() == ["run0", "run1"]
        assert store.latest_reference_id() == "run0"
        stored = store.load_record("run1")
        meta = (store.run_dir("run1") / "meta").read_bytes()

        # Another run under the id, or a save that does not advance, is refused.
        with pytest.raises(FileExistsError):
            store.save_run(next_run(store, "run1", seed=2), advance=True)
        with pytest.raises(FileExistsError):
            store.save_run(run)
        assert store.latest_reference_id() == "run0"

        # The retry syncs runs/ before the pointer names the run, since the
        # failed commit may have left the rename unsynced.
        events = []

        def logged(kind, function):
            def call(*args):
                events.append((kind, pathlib.Path(args[-1])))
                return function(*args)
            return call

        monkeypatch.setattr(embstab.store, "_fsync", logged("fsync", fsync))
        monkeypatch.setattr(os, "replace", logged("replace", os.replace))
        assert store.save_run(run, advance=True) == stored
        monkeypatch.undo()
        runs_sync = events.index(("fsync", store.runs_dir))
        assert runs_sync < events.index(("replace", store.latest_ref_path))
        assert store.latest_reference_id() == "run1"
        assert (store.run_dir("run1") / "meta").read_bytes() == meta
        store.validate_record(stored)
        assert sorted(p.name for p in store.runs_dir.iterdir()) == ["run0", "run1"]
        with pytest.raises(FileExistsError):
            store.save_run(run, advance=True)

    def test_run_reaches_disk_before_the_pointer_names_it(self, tmp_path, monkeypatch):
        # After power loss a directory keeps only the updates synced in it, so
        # runs/ is synced between the run's rename and the pointer's.
        store, _ = make_store_with_runs(tmp_path, n_runs=1)
        run = next_run(store, "run1", seed=1)
        events = []
        fsync, replace, rename = os.fsync, os.replace, pathlib.Path.rename

        def synced(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            return fsync(fd)

        def replaced(src, dst):
            events.append(("replace", pathlib.Path(dst)))
            return replace(src, dst)

        def renamed(self, target):
            events.append(("rename", self, pathlib.Path(target)))
            return rename(self, target)

        monkeypatch.setattr(os, "fsync", synced)
        monkeypatch.setattr(os, "replace", replaced)
        monkeypatch.setattr(pathlib.Path, "rename", renamed)
        store.save_run(run, advance=True)
        monkeypatch.undo()
        run_rename = events.index(
            ("rename", store.runs_dir / ".staging-run1", store.run_dir("run1"))
        )
        runs_sync = events.index(("fsync", os.stat(store.runs_dir).st_ino), run_rename)
        pointer_replace = events.index(("replace", store.latest_ref_path))
        assert run_rename < runs_sync < pointer_replace

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_commit_never_holds_a_stabilized_side(self, tmp_path, monkeypatch, dtype):
        # The stabilized pair streams from the inputs through the maps, so a
        # seed run's commit holds chunk buffers, not embeddings.
        monkeypatch.setattr(embstab.store, "CHUNK_ROWS", 1024)
        items, users = random_pair(32768, 32768, 16, seed=3, dtype=dtype)
        store = RunStore(tmp_path / "store")
        tracemalloc.start()
        try:
            store.save_run(init_reference(items, users, "run0"), advance=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < items.vectors.nbytes

    def test_run_dir_without_meta_does_not_block_its_id(self, tmp_path):
        # Stores written before runs were staged can hold a meta-less run dir.
        store = RunStore(tmp_path / "store")
        store.run_dir("r1").mkdir(parents=True)
        (store.run_dir("r1") / "items.emb").write_bytes(b"partial")
        items, users = random_pair(40, 30, 4, seed=0)
        run = init_reference(items, users, "r1")
        record = store.save_run(run, advance=True)
        store.validate_record(record)
        assert store.list_runs() == ["r1"]
        assert store.latest_reference_id() == "r1"

    def test_unsafe_run_id_rejected(self, tmp_path):
        store = RunStore(tmp_path / "store")
        with pytest.raises(InvalidRunId):
            store.run_dir("../evil")
        with pytest.raises(InvalidRunId):
            store.run_dir(".hidden")

    def test_record_keeps_the_effective_rank(self, tmp_path):
        store = RunStore(tmp_path / "store")
        items, users = random_pair(40, 30, 4, seed=0)
        run0 = init_reference(items, users, "run0")
        assert store.save_run(run0).effective_rank == 4
        vecs = items.vectors.copy()
        vecs[:, 3] = vecs[:, 0]  # rank 3 of 4
        items1 = EmbeddingMatrix.of_items(vecs, ids=items.ids)
        with pytest.warns(Warning) as caught:
            run1 = stabilize_run(items1, users, run0, "run1")
        # The dead direction is a zero source column: the alignment degenerates.
        assert {RankTruncationWarning, DegenerateAlignmentWarning} <= {w.category for w in caught}
        record = store.save_run(run1)
        assert (record.dim, record.effective_rank) == (4, 3)
        assert store.load_record("run1") == record
        assert "rank_policy" not in json.loads((store.run_dir("run1") / "meta").read_text())

    @pytest.mark.parametrize("damage", sorted(MALFORMED_META))
    def test_malformed_meta_is_corrupt_file_naming_it(self, tmp_path, damage):
        store, _ = make_store_with_runs(tmp_path, n_runs=1)
        meta = store.run_dir("run0") / "meta"
        meta.write_text(MALFORMED_META[damage](meta.read_text()))
        with pytest.raises(CorruptFile) as exc:
            store.load_record("run0")
        assert str(meta) in str(exc.value)

    def test_meta_in_the_original_layout_loads(self, tmp_path):
        # The keys and JSON layout of `meta` as every earlier version wrote it.
        store = RunStore(tmp_path / "store")
        store.run_dir("old").mkdir(parents=True)
        (store.run_dir("old") / "meta").write_text(
            '{\n  "run_id": "old",\n  "reference_run_id": "old",\n'
            '  "created_at": "2025-01-01T00:00:00+00:00",\n  "dim": 2,\n'
            '  "effective_rank": 2,\n  "spectrum": [\n    2.0,\n    0.5\n  ],\n'
            '  "rank_policy": "strict",\n  "files": {\n    "items.emb": "ab"\n  },\n'
            '  "anchor": "items.emb",\n  "checksum_algorithm": "sha256"\n}\n'
        )
        record = store.load_record("old")
        assert record.spectrum == (2.0, 0.5)
        assert record.files == {"items.emb": "ab"}

    def test_spectrum_survives_json_round_trip(self, tmp_path):
        store, records = make_store_with_runs(tmp_path, n_runs=1)
        record = store.load_record("run0")
        assert record.spectrum == records[0].spectrum


class TestDerivedPair:
    """A loaded run's raw pair through its maps, by apply_transform, is the
    stored items.emb and users.emb byte for byte. So the anchor stabilize_run
    derives from a stored reference is the items.emb it used to read."""

    def assert_derived_is_stored(self, store, run_id, out_dir):
        run = store.load_run(run_id)
        for side, raw, transform in (
            ("items", run.raw_items, run.item_map),
            ("users", run.raw_users, run.user_map),
        ):
            out = out_dir / f"{run_id}.{side}.emb"
            write_embeddings(apply_transform(raw, transform), out)
            assert out.read_bytes() == (store.run_dir(run_id) / f"{side}.emb").read_bytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chain_with_a_rank_truncated_run_over_several_chunks(
        self, tmp_path, monkeypatch, dtype
    ):
        # 150 items and 120 users span five and four chunks of 37 rows.
        monkeypatch.setattr(embstab.store, "CHUNK_ROWS", 37)
        store = RunStore(tmp_path / "store")
        run = None
        for k in range(3):
            items, users = random_pair(150, 120, 6, seed=60 + k, dtype=dtype)
            if k == 1:  # rank 5 of 6
                vecs = items.vectors.copy()
                vecs[:, 5] = vecs[:, 0]
                items = EmbeddingMatrix.of_items(vecs, ids=items.ids)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if run is None:
                    run = init_reference(items, users, "run0")
                else:
                    run = stabilize_run(items, users, store.reference_space(), f"run{k}")
            assert (RankTruncationWarning in {w.category for w in caught}) == (k == 1)
            store.save_run(run, advance=True)
        for k in range(3):
            self.assert_derived_is_stored(store, f"run{k}", tmp_path)

    def test_kept_wide_store_of_older_releases(self, tmp_path):
        items, users = random_pair(40, 30, 8, seed=5)
        vecs = items.vectors.copy()
        vecs[:, 7] = vecs[:, 0]  # rank 7 of 8: 8 x 7 maps, a 7-wide anchor
        items = EmbeddingMatrix.of_items(vecs, ids=items.ids)
        write_narrow_truncated_store(tmp_path / "old", items, users)
        store = RunStore(tmp_path / "old")
        assert store.load_run("run0").item_map.shape == (8, 7)
        self.assert_derived_is_stored(store, "run0", tmp_path)


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_sigkill_inside_a_commit_leaves_a_whole_store(tmp_path):
    """Kill six `stabilize` children, each 0-20 ms after its staging
    directory appears, so inside a commit that writes about 11.5 MB. After
    each kill the pointer names a listed run, every listed run validates,
    and the killed run is the latest or commits on a retry, whether or not
    the kill left it listed."""
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "n_items = 40000\nn_users = 40000\ndim = 16\nnoise_scale = 0.01\n"
        "rotation = orthogonal\nvocab_drop_fraction = 0.0\nseed = 5\n"
    )
    sim, root = tmp_path / "sim", tmp_path / "store"

    def args(command, k, run_id):
        return [command, "--items", str(sim / f"run_00{k}.items.emb"),
                "--users", str(sim / f"run_00{k}.users.emb"),
                "--run-id", run_id, "--out", str(root)]

    assert main(["simulate", "--config", str(cfg), "--runs", "1", "--out", str(sim)]) == 0
    assert main(args("init", 0, "k0")) == 0
    env = child_env(one_blas_thread=True)
    store = RunStore(root)
    delays = random.Random(17)
    for k in range(1, 7):
        run_id = f"k{k}"
        argv = [sys.executable, "-m", "embstab.cli", *args("stabilize", 1, run_id)]
        child = subprocess.Popen(argv, env=env, stderr=subprocess.DEVNULL)
        staging = store.runs_dir / f".staging-{run_id}"
        deadline = time.monotonic() + 60
        while not staging.exists() and child.poll() is None:
            assert time.monotonic() < deadline, f"{run_id}: no commit began"
            time.sleep(0.0005)
        time.sleep(delays.uniform(0.0, 0.02))
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=60)

        listed = store.list_runs()
        assert store.latest_reference_id() in listed
        for listed_id in listed:
            store.validate_record(store.load_record(listed_id))
        if store.latest_reference_id() != run_id:
            retry = subprocess.run(argv, env=env, stderr=subprocess.DEVNULL, timeout=120)
            assert retry.returncode == 0
        assert store.latest_reference_id() == run_id
