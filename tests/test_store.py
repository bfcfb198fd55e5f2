import hashlib
import os
import pathlib
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import embstab.store
from embstab import (
    EmbeddingMatrix,
    Role,
    RunRecord,
    RunStore,
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
    RankTruncationWarning,
    UnknownRun,
)
from embstab.store import write_embedding_chunks
from conftest import MALFORMED_META, random_pair


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


def make_store_with_runs(tmp_path, n_runs=2):
    store = RunStore(tmp_path / "store")
    store.init()
    items, users = random_pair(40, 30, 4, seed=0)
    run0, ref = init_reference(items, users, "run0")
    records = [store.save_run(run0, items, users)]
    store.advance_reference(records[0])
    for k in range(1, n_runs):
        items_k, users_k = random_pair(40, 30, 4, seed=k)
        run_k, ref = stabilize_run(items_k, users_k, ref, f"run{k}")
        records.append(store.save_run(run_k, items_k, users_k))
        store.advance_reference(records[-1])
    return store, records


class TestRunStore:
    def test_layout_and_record_round_trip(self, tmp_path):
        store, records = make_store_with_runs(tmp_path)
        run_dir = store.run_dir("run0")
        for name in ("items.emb", "users.emb", "raw_items.emb", "raw_users.emb",
                     "mT.olt", "mW.olt", "meta"):
            assert (run_dir / name).exists()
        record = store.load_record("run0")
        assert record == records[0]
        assert record.anchor == "items.emb"
        assert record.checksum_algorithm == "sha256"

    def test_loaders(self, tmp_path):
        store, _ = make_store_with_runs(tmp_path)
        stab_items, stab_users = store.load_stabilized("run1")
        raw_items, raw_users = store.load_raw("run1")
        m_t = read_transform(store.run_dir("run1") / "mT.olt")
        np.testing.assert_allclose(
            stab_items.vectors,
            raw_items.vectors @ m_t,
            rtol=1e-12,
            atol=1e-15,
        )
        assert stab_users.n == raw_users.n == 30

    def test_append_only(self, tmp_path):
        store, _ = make_store_with_runs(tmp_path, n_runs=1)
        items, users = random_pair(40, 30, 4, seed=9)
        run, _ = init_reference(items, users, "run0")
        with pytest.raises(FileExistsError):
            store.save_run(run, items, users)

    def test_advance_twice_keeps_history(self, tmp_path):
        store, records = make_store_with_runs(tmp_path, n_runs=2)
        assert store.latest_reference_id() == "run1"
        assert store.list_runs() == ["run0", "run1"]
        # Both remain readable after the pointer moved.
        store.load_stabilized("run0")
        store.load_stabilized("run1")

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
        run, _ = init_reference(items, users, "run0")
        calls = []

        def fail_once(write):
            def wrapped(*args, **kwargs):
                calls.append(args[1])
                if len(calls) - 1 == failing:
                    raise OSError(f"simulated failure writing {args[1]}")
                return write(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(embstab.store, "write_embeddings", fail_once(write_embeddings))
        monkeypatch.setattr(embstab.store, "write_transform", fail_once(write_transform))
        with pytest.raises(OSError, match="simulated"):
            store.save_run(run, items, users)
        monkeypatch.undo()
        assert len(calls) == failing + 1
        assert store.list_runs() == []
        assert not store.run_dir("run0").exists()

        record = store.save_run(run, items, users)
        store.validate_record(record)
        assert store.list_runs() == ["run0"]
        assert [p.name for p in store.runs_dir.iterdir()] == ["run0"]

    def test_staged_run_with_meta_is_not_listed(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path / "store")
        items, users = random_pair(40, 30, 4, seed=0)
        run, _ = init_reference(items, users, "run0")

        def explode(self, target):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(pathlib.Path, "rename", explode)
        with pytest.raises(OSError, match="simulated"):
            store.save_run(run, items, users)
        monkeypatch.undo()
        assert (store.runs_dir / ".staging-run0" / "meta").exists()
        assert store.list_runs() == []
        store.validate_record(store.save_run(run, items, users))
        assert store.list_runs() == ["run0"]

    def test_concurrent_saves_of_one_id_commit_one_whole_run(self, tmp_path):
        store = RunStore(tmp_path / "store")
        saves = []
        for seed in (0, 1):
            items, users = random_pair(3000, 2000, 8, seed=seed)
            saves.append((init_reference(items, users, "run0")[0], items, users))
        results = []

        def save(args):
            try:
                results.append(store.save_run(*args))
            except FileExistsError as exc:
                results.append(exc)

        threads = [threading.Thread(target=save, args=(args,)) for args in saves]
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

    def test_advance_with_missing_anchor_leaves_pointer(self, tmp_path):
        store, records = make_store_with_runs(tmp_path, n_runs=2)
        (store.run_dir("run1") / "items.emb").unlink()
        before = store.latest_reference_id()
        with pytest.raises(CorruptFile):
            store.advance_reference(records[1])
        assert store.latest_reference_id() == before

    def test_crash_between_write_and_rename(self, tmp_path, monkeypatch):
        store, records = make_store_with_runs(tmp_path, n_runs=2)
        # Roll the pointer back to run0, then simulate a crash while
        # advancing to run1: the rename never happens.
        store.advance_reference(records[0])

        def explode(src, dst):
            raise RuntimeError("simulated crash")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(RuntimeError):
            store.advance_reference(records[1])
        monkeypatch.undo()
        assert store.latest_reference_id() == "run0"

    def test_advance_waits_for_the_save_lock(self, tmp_path):
        import fcntl

        store, records = make_store_with_runs(tmp_path, n_runs=2)
        errors = []

        def advance():
            try:
                store.advance_reference(records[0])
            except Exception as exc:
                errors.append(exc)

        advancer = threading.Thread(target=advance)
        with open(store.root / "save.lock", "w") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX)
            advancer.start()
            advancer.join(timeout=1.0)
            assert advancer.is_alive()
            assert store.latest_reference_id() == "run1"
        advancer.join(timeout=60)
        assert not advancer.is_alive()
        assert errors == []
        assert store.latest_reference_id() == "run0"
        assert not (store.root / "latest_ref.lock").exists()

    def test_unsafe_run_id_rejected(self, tmp_path):
        store = RunStore(tmp_path / "store")
        with pytest.raises(InvalidRunId):
            store.run_dir("../evil")
        with pytest.raises(InvalidRunId):
            store.run_dir(".hidden")

    def test_record_keeps_the_policy_the_run_ran_under(self, tmp_path):
        store = RunStore(tmp_path / "store")
        items, users = random_pair(40, 30, 4, seed=0)
        run0, ref = init_reference(items, users, "run0")
        assert store.save_run(run0, items, users).rank_policy == "strict"
        vecs = items.vectors.copy()
        vecs[:, 3] = vecs[:, 0]  # rank 3 of 4
        items1 = EmbeddingMatrix.of_items(vecs, ids=items.ids)
        with pytest.warns(Warning) as caught:
            run1, _ = stabilize_run(items1, users, ref, "run1", rank_policy="truncate")
        # The dead direction is a zero source column: the alignment degenerates.
        assert {RankTruncationWarning, DegenerateAlignmentWarning} <= {w.category for w in caught}
        record = store.save_run(run1, items1, users)
        assert record.dim == 4
        assert record.effective_rank == 3
        assert record.rank_policy == "truncate"
        assert store.load_record("run1").rank_policy == "truncate"

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
        assert record.rank_policy == "strict"
        assert record.files == {"items.emb": "ab"}

    def test_spectrum_survives_json_round_trip(self, tmp_path):
        store, records = make_store_with_runs(tmp_path, n_runs=1)
        record = store.load_record("run0")
        assert record.spectrum == records[0].spectrum
