import ast
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from embstab import (
    EmbeddingMatrix,
    Role,
    RunStore,
    apply_transform,
    read_embeddings,
    read_transform,
    write_embeddings,
    write_transform,
)
import embstab.cli
import embstab.errors
import embstab.lowrank
import embstab.metrics
import embstab.store
from embstab.cli import main
from embstab.errors import (
    DegenerateAlignmentWarning, DuplicateId, NonFinite, RankTruncationWarning,
)
from embstab.store import write_embedding_chunks
from conftest import (
    DAMAGED_FILE, MALFORMED_META, child_env, random_pair, rank_r_pair, rel_fro,
    write_narrow_truncated_store,
)


SIM_CFG = (
    "n_items = 120\n"
    "n_users = 90\n"
    "dim = 8\n"
    "noise_scale = 0.01\n"
    "rotation = orthogonal\n"
    "vocab_drop_fraction = 0.0\n"
    "seed = 11\n"
)


@pytest.fixture
def sim_dir(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CFG)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--runs", "2", "--out", str(out)]) == 0
    return out


@pytest.fixture
def store_with_two_runs(tmp_path, sim_dir):
    store = tmp_path / "store"
    rc = main([
        "init",
        "--items", str(sim_dir / "run_000.items.emb"),
        "--users", str(sim_dir / "run_000.users.emb"),
        "--run-id", "run0",
        "--out", str(store),
    ])
    assert rc == 0
    rc = main([
        "stabilize",
        "--items", str(sim_dir / "run_001.items.emb"),
        "--users", str(sim_dir / "run_001.users.emb"),
        "--run-id", "run1",
        "--out", str(store),
    ])
    assert rc == 0
    return store


class TestSimulate:
    def test_file_count_and_determinism(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CFG)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--runs", "3", "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", str(cfg), "--runs", "3", "--out", str(out_b)]) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        assert len(files_a) == 2 * (3 + 1)
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_default_precision_is_f32(self, sim_dir):
        emb = read_embeddings(sim_dir / "run_000.items.emb")
        assert emb.vectors.dtype == np.float32

    def test_f64_precision_flag(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CFG)
        out = tmp_path / "sim64"
        rc = main([
            "simulate", "--config", str(cfg), "--runs", "0",
            "--out", str(out), "--precision", "f64",
        ])
        assert rc == 0
        assert read_embeddings(out / "run_000.items.emb").vectors.dtype == np.float64

    def test_invalid_config_exits_2(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_items = 5\nn_users = 5\ndim = 50\nseed = 0\n")
        assert main(["simulate", "--config", str(cfg), "--runs", "1", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("line", ["dim = 8.5", "noise_scale = lots"])
    def test_non_numeric_value_exits_2_with_one_line(self, tmp_path, capsys, line):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CFG + line + "\n")
        rc = main(["simulate", "--config", str(cfg), "--runs", "1", "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert line.split(" = ")[0] in err

    def test_negative_runs_exits_2_and_creates_no_out(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CFG)
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(cfg), "--runs", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--runs" in err
        assert not out.exists()

    def test_missing_config_exits_3(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"), "--runs", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == 3


class TestInit:
    def test_artifacts_and_pointer(self, tmp_path, sim_dir):
        store = tmp_path / "store"
        rc = main([
            "init",
            "--items", str(sim_dir / "run_000.items.emb"),
            "--users", str(sim_dir / "run_000.users.emb"),
            "--run-id", "run0",
            "--out", str(store),
        ])
        assert rc == 0
        assert (store / "latest_ref").read_text().strip() == "run0"
        for name in ("items.emb", "users.emb", "mT.olt", "mW.olt", "meta"):
            assert (store / "runs" / "run0" / name).exists()

    def test_second_init_exits_2_and_writes_nothing(self, sim_dir, store_with_two_runs, capsys):
        # A store holds one chain; a new seed needs a new store.
        before = sorted(store_with_two_runs.rglob("*"))
        capsys.readouterr()
        assert main([
            "init",
            "--items", str(sim_dir / "run_002.items.emb"),
            "--users", str(sim_dir / "run_002.users.emb"),
            "--run-id", "run9",
            "--out", str(store_with_two_runs),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "latest_ref names 'run1'" in err
        assert sorted(store_with_two_runs.rglob("*")) == before
        assert (store_with_two_runs / "latest_ref").read_text() == "run1\n"

    def test_stabilized_pair_past_float32_exits_2_and_a_retry_commits(self, tmp_path, capsys):
        """Finite float32 inputs near the float32 limit whose stabilized pair
        is not finite in float32: no run is listed and no pointer written,
        and the same run id then commits from finite inputs."""
        gen = np.random.default_rng(30)
        big = [(gen.uniform(-1, 1, (rows, 8)) * 3e38).astype(np.float32) for rows in (64, 48)]
        pairs = {
            "big_": (EmbeddingMatrix.of_items(big[0]), EmbeddingMatrix.of_users(big[1])),
            "": random_pair(64, 48, 8, seed=31, dtype=np.float32),
        }
        for prefix, (items, users) in pairs.items():
            write_embeddings(items, tmp_path / f"{prefix}items.emb")
            write_embeddings(users, tmp_path / f"{prefix}users.emb")
        store = tmp_path / "store"

        def init(prefix):
            return main([
                "init", "--items", str(tmp_path / f"{prefix}items.emb"),
                "--users", str(tmp_path / f"{prefix}users.emb"), "--run-id", "r0", "--out", str(store),
            ])

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflow of the cast
            assert init("big_") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "NaN or Inf" in err
        assert RunStore(store).list_runs() == []
        assert not (store / "latest_ref").exists()
        assert init("") == 0
        assert RunStore(store).list_runs() == ["r0"]
        assert (store / "latest_ref").read_text() == "r0\n"
        RunStore(store).validate_record(RunStore(store).load_record("r0"))

    @pytest.mark.parametrize("run_id", ["../evil", "a/b", ".hidden"])
    def test_unsafe_run_id_exits_2_and_creates_no_store(self, tmp_path, sim_dir, capsys, run_id):
        store = tmp_path / "store"
        capsys.readouterr()
        assert main([
            "init",
            "--items", str(sim_dir / "run_000.items.emb"),
            "--users", str(sim_dir / "run_000.users.emb"),
            "--run-id", run_id,
            "--out", str(store),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not store.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sim", "sim.cfg"]

    def test_mismatched_dims_exit_2_names_widths(self, tmp_path, capsys):
        items = EmbeddingMatrix.of_items(np.random.default_rng(0).standard_normal((20, 8)))
        users = EmbeddingMatrix.of_users(np.random.default_rng(1).standard_normal((20, 4)))
        write_embeddings(items, tmp_path / "i.emb")
        write_embeddings(users, tmp_path / "u.emb")
        rc = main([
            "init", "--items", str(tmp_path / "i.emb"), "--users", str(tmp_path / "u.emb"),
            "--run-id", "r", "--out", str(tmp_path / "store"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "8" in err and "4" in err

    def test_huge_dim_header_exits_3(self, tmp_path, sim_dir, capsys):
        header = struct.pack("<4sHBBQII", b"OLRE", 1, 0, 8, 0, 2**31, 0)
        (tmp_path / "wide.emb").write_bytes(header + hashlib.sha256(header).digest())
        rc = main([
            "init", "--items", str(tmp_path / "wide.emb"),
            "--users", str(sim_dir / "run_000.users.emb"),
            "--run-id", "r", "--out", str(tmp_path / "store"),
        ])
        assert rc == 3
        assert "width" in capsys.readouterr().err

    def test_zero_width_exits_2(self, tmp_path, capsys):
        write_embeddings(EmbeddingMatrix.of_items(np.empty((20, 0))), tmp_path / "i.emb")
        write_embeddings(EmbeddingMatrix.of_users(np.empty((20, 0))), tmp_path / "u.emb")
        rc = main([
            "init", "--items", str(tmp_path / "i.emb"), "--users", str(tmp_path / "u.emb"),
            "--run-id", "r", "--out", str(tmp_path / "store"),
        ])
        assert rc == 2
        assert "width" in capsys.readouterr().err
        assert not (tmp_path / "store").exists()

    def test_unwritable_out_exits_3(self, tmp_path, sim_dir):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        rc = main([
            "init",
            "--items", str(sim_dir / "run_000.items.emb"),
            "--users", str(sim_dir / "run_000.users.emb"),
            "--run-id", "run0",
            "--out", str(blocker / "store"),
        ])
        assert rc == 3

    @pytest.mark.parametrize("dim, rank", [(8, 5), (64, 40), (128, 100)])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_rank_deficient_init_commits_with_one_warning(self, tmp_path, dtype, dim, rank):
        items, users = rank_r_pair(3 * dim, 2 * dim + 10, dim, rank, seed=dim, dtype=dtype)
        write_embeddings(items, tmp_path / "i.emb")
        write_embeddings(users, tmp_path / "u.emb")
        store = tmp_path / "store"
        result = subprocess.run(
            [sys.executable, "-m", "embstab.cli", "init",
             "--items", str(tmp_path / "i.emb"), "--users", str(tmp_path / "u.emb"),
             "--run-id", "r", "--out", str(store)],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0
        assert result.stderr.splitlines() == [
            f"warning: dropping {dim - rank} of {dim} singular values below threshold; "
            f"effective rank {rank}",
            "initialized reference space from run 'r'",
        ]
        run_dir = store / "runs" / "r"
        meta = json.loads((run_dir / "meta").read_text())
        assert (meta["dim"], meta["effective_rank"]) == (dim, rank)
        t, w = items.vectors.astype(np.float64), users.vectors.astype(np.float64)
        maps = [read_transform(run_dir / name) for name in ("mT.olt", "mW.olt")]
        stabilized = (t @ maps[0]) @ (w @ maps[1]).T
        # The maps keep the live part of the scores exactly. What the cut
        # drops is rounding: float32 leaves about 1e-8 of the scores in the
        # dead directions of a pair that has exact rank r in float64.
        u, s, vt = np.linalg.svd(t @ w.T, full_matrices=False)
        assert rel_fro(stabilized, (u[:, :rank] * s[:rank]) @ vt[:rank]) <= 1e-10
        assert rel_fro(stabilized, t @ w.T) <= (1e-6 if dtype == "float32" else 1e-10)

    def test_all_zero_input_exits_2(self, tmp_path, capsys):
        # No live direction: no map can serve the run, so nothing is stored.
        write_embeddings(EmbeddingMatrix.of_items(np.zeros((20, 4))), tmp_path / "i.emb")
        write_embeddings(EmbeddingMatrix.of_users(np.ones((20, 4))), tmp_path / "u.emb")
        rc = main([
            "init", "--items", str(tmp_path / "i.emb"), "--users", str(tmp_path / "u.emb"),
            "--run-id", "r", "--out", str(tmp_path / "store"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: score space has no singular value above the truncation threshold\n"
        assert not (tmp_path / "store").exists()


class TestStabilize:
    def test_help_lists_no_overlap_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["stabilize", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "--rank-policy" not in out and "--min-overlap" not in out

    def test_too_few_shared_items_exits_2(self, tmp_path, sim_dir, store_with_two_runs, capsys):
        # The simulated runs are 8 wide, so 10 shared item ids are needed.
        base = read_embeddings(sim_dir / "run_001.items.emb")
        ids = base.ids.copy()
        ids[9:] += 10_000
        write_embeddings(EmbeddingMatrix.of_items(base.vectors, ids=ids), tmp_path / "moved.emb")
        capsys.readouterr()
        rc = main([
            "stabilize",
            "--items", str(tmp_path / "moved.emb"),
            "--users", str(sim_dir / "run_001.users.emb"),
            "--run-id", "run2",
            "--out", str(store_with_two_runs),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: 9 shared item ids with reference 'run1', need at least 10\n"
        )
    def test_end_to_end_improves_similarity(self, tmp_path, store_with_two_runs):
        store = store_with_two_runs
        out = tmp_path / "reports"
        assert main([
            "validate", "--run-a", "run0", "--run-b", "run1",
            "--store", str(store), "--out", str(out / "stab"),
        ]) == 0
        assert main([
            "validate", "--run-a", "run0", "--run-b", "run1",
            "--store", str(store), "--raw", "--out", str(out / "raw"),
        ]) == 0
        stab = json.loads((out / "stab" / "report.json").read_text())
        raw = json.loads((out / "raw" / "report.json").read_text())
        assert stab["mean_item_cosine"] > 0.9 > abs(raw["mean_item_cosine"])
        assert stab["mean_user_cosine"] > 0.9 > abs(raw["mean_user_cosine"])
        assert stab["mean_rbo"] > 0.8 > raw["mean_rbo"]

    def test_pointer_advances_to_latest(self, store_with_two_runs):
        assert (store_with_two_runs / "latest_ref").read_text().strip() == "run1"

    def test_no_advance_keeps_pointer(self, tmp_path, sim_dir, store_with_two_runs):
        store = store_with_two_runs
        rc = main([
            "stabilize",
            "--items", str(sim_dir / "run_002.items.emb"),
            "--users", str(sim_dir / "run_002.users.emb"),
            "--run-id", "run2",
            "--out", str(store),
            "--no-advance",
        ])
        assert rc == 0
        assert (store / "latest_ref").read_text().strip() == "run1"

    def test_pinned_reference(self, tmp_path, sim_dir, store_with_two_runs):
        store = store_with_two_runs
        rc = main([
            "stabilize",
            "--items", str(sim_dir / "run_002.items.emb"),
            "--users", str(sim_dir / "run_002.users.emb"),
            "--run-id", "run2pinned",
            "--out", str(store),
            "--ref", "run0",
            "--no-advance",
        ])
        assert rc == 0
        meta = json.loads((store / "runs" / "run2pinned" / "meta").read_text())
        assert meta["reference_run_id"] == "run0"

    def test_pinned_older_reference_without_no_advance_exits_2(
        self, sim_dir, store_with_two_runs, capsys
    ):
        # Advancing from run1 to a run aligned to run0 would fork the chain.
        store = store_with_two_runs
        capsys.readouterr()
        assert main([
            "stabilize", "--items", str(sim_dir / "run_002.items.emb"),
            "--users", str(sim_dir / "run_002.users.emb"),
            "--run-id", "run2", "--out", str(store), "--ref", "run0",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(p.name for p in (store / "runs").iterdir()) == ["run0", "run1"]
        assert (store / "latest_ref").read_text().strip() == "run1"

    def test_pinned_latest_reference_advances(self, sim_dir, store_with_two_runs):
        store = store_with_two_runs
        assert main([
            "stabilize", "--items", str(sim_dir / "run_002.items.emb"),
            "--users", str(sim_dir / "run_002.users.emb"),
            "--run-id", "run2", "--out", str(store), "--ref", "run1",
        ]) == 0
        meta = json.loads((store / "runs" / "run2" / "meta").read_text())
        assert meta["reference_run_id"] == "run1"
        assert (store / "latest_ref").read_text().strip() == "run2"

    def test_nonexistent_ref_exits_2(self, sim_dir, store_with_two_runs):
        rc = main([
            "stabilize",
            "--items", str(sim_dir / "run_002.items.emb"),
            "--users", str(sim_dir / "run_002.users.emb"),
            "--run-id", "run2",
            "--out", str(store_with_two_runs),
            "--ref", "ghost",
        ])
        assert rc == 2

    def test_unsafe_run_id_exits_2_and_changes_nothing(self, sim_dir, store_with_two_runs, capsys):
        store = store_with_two_runs
        before = sorted(store.rglob("*"))
        capsys.readouterr()
        assert main([
            "stabilize",
            "--items", str(sim_dir / "run_002.items.emb"),
            "--users", str(sim_dir / "run_002.users.emb"),
            "--run-id", "../x",
            "--out", str(store),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(store.rglob("*")) == before
        assert sorted(p.name for p in (store / "runs").iterdir()) == ["run0", "run1"]
        assert (store / "latest_ref").read_text() == "run1\n"

    def test_stabilize_before_init_exits_2(self, tmp_path, sim_dir):
        rc = main([
            "stabilize",
            "--items", str(sim_dir / "run_001.items.emb"),
            "--users", str(sim_dir / "run_001.users.emb"),
            "--run-id", "run1",
            "--out", str(tmp_path / "virgin"),
        ])
        assert rc == 2

    def test_truncate_policy_on_rank_deficient_input(self, tmp_path, sim_dir):
        store = tmp_path / "store"
        assert main([
            "init",
            "--items", str(sim_dir / "run_000.items.emb"),
            "--users", str(sim_dir / "run_000.users.emb"),
            "--run-id", "run0",
            "--out", str(store),
        ]) == 0
        base = read_embeddings(sim_dir / "run_001.items.emb")
        vecs = base.vectors.astype(np.float64)
        vecs[:, -1] = vecs[:, 0]  # duplicated column: rank 7 of 8
        write_embeddings(
            EmbeddingMatrix.of_items(vecs, ids=base.ids), tmp_path / "deficient.emb"
        )
        # The dead direction is a zero column of the source, so the
        # alignment's cross-covariance is rank deficient too.
        with pytest.warns(Warning) as caught:
            rc = main([
                "stabilize",
                "--items", str(tmp_path / "deficient.emb"),
                "--users", str(sim_dir / "run_001.users.emb"),
                "--run-id", "run1t",
                "--out", str(store),
            ])
        assert rc == 0
        categories = {w.category for w in caught}
        assert {RankTruncationWarning, DegenerateAlignmentWarning} <= categories
        assert any("effective rank 7" in str(w.message) for w in caught)
        meta = json.loads((store / "runs" / "run1t" / "meta").read_text())
        assert meta["effective_rank"] == 7
        assert meta["dim"] == 8  # output lands in the full reference space
        assert "rank_policy" not in meta
        assert (store / "latest_ref").read_text() == "run1t\n"

    def test_truncated_init_does_not_end_the_chain(self, tmp_path, sim_dir):
        # A rank-7-of-8 seed keeps width 8, so a full-rank run chains onto it,
        # and a rank-deficient run onto that.
        store = tmp_path / "store"
        write_embeddings(rank_7_of_8_items(sim_dir), tmp_path / "deficient.emb")
        with pytest.warns(RankTruncationWarning, match="1 of 8 .* effective rank 7"):
            assert main([
                "init",
                "--items", str(tmp_path / "deficient.emb"),
                "--users", str(sim_dir / "run_000.users.emb"),
                "--run-id", "run0",
                "--out", str(store),
            ]) == 0
        meta = json.loads((store / "runs" / "run0" / "meta").read_text())
        assert (meta["dim"], meta["effective_rank"]) == (8, 7)
        for name in ("mT.olt", "mW.olt"):
            m = embstab.store.read_transform(store / "runs" / "run0" / name)
            assert m.shape == (8, 8)
            assert np.array_equal(m[:, -1], np.zeros(8))
        assert read_embeddings(store / "runs" / "run0" / "items.emb").dim == 8

        # The anchor's dead direction makes the alignment degenerate.
        with pytest.warns(DegenerateAlignmentWarning):
            assert main([
                "stabilize",
                "--items", str(sim_dir / "run_001.items.emb"),
                "--users", str(sim_dir / "run_001.users.emb"),
                "--run-id", "run1",
                "--out", str(store),
            ]) == 0
        meta = json.loads((store / "runs" / "run1" / "meta").read_text())
        assert (meta["dim"], meta["effective_rank"]) == (8, 8)
        assert (store / "latest_ref").read_text().strip() == "run1"

        items = read_embeddings(sim_dir / "run_002.items.emb")
        vecs = items.vectors.copy()
        vecs[:, 1] = vecs[:, 0]
        write_embeddings(EmbeddingMatrix.of_items(vecs, ids=items.ids), tmp_path / "d2.emb")
        with pytest.warns(Warning) as caught:
            assert main([
                "stabilize",
                "--items", str(tmp_path / "d2.emb"),
                "--users", str(sim_dir / "run_002.users.emb"),
                "--run-id", "run2",
                "--out", str(store),
            ]) == 0
        assert {w.category for w in caught} == {RankTruncationWarning, DegenerateAlignmentWarning}
        meta = json.loads((store / "runs" / "run2" / "meta").read_text())
        assert (meta["dim"], meta["effective_rank"]) == (8, 7)
        assert (store / "latest_ref").read_text().strip() == "run2"


def rank_7_of_8_items(sim_dir):
    """The seed run's items with the last column a copy of the first."""
    base = read_embeddings(sim_dir / "run_000.items.emb")
    vecs = base.vectors.copy()
    vecs[:, -1] = vecs[:, 0]
    return EmbeddingMatrix.of_items(vecs, ids=base.ids)


class TestNarrowTruncatedStore:
    @pytest.fixture
    def old_store(self, tmp_path, sim_dir):
        users = read_embeddings(sim_dir / "run_000.users.emb")
        store = tmp_path / "old"
        return store, write_narrow_truncated_store(store, rank_7_of_8_items(sim_dir), users)

    def test_record_loads_and_validates(self, old_store):
        root, record = old_store
        store = embstab.store.RunStore(root)
        assert store.load_record("run0") == record
        store.validate_record(record)
        assert store.reference_space().item_map.shape[1] == 7
        assert embstab.store.read_transform(root / "runs" / "run0" / "mT.olt").shape == (8, 7)

    @pytest.mark.parametrize("raw", [False, True])
    def test_validate_against_itself(self, tmp_path, old_store, raw):
        root, _ = old_store
        out = tmp_path / "report"
        argv = ["validate", "--run-a", "run0", "--run-b", "run0", "--store", str(root)]
        assert main(argv + ["--out", str(out)] + (["--raw"] if raw else [])) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mean_item_cosine"] == pytest.approx(1.0)

    def test_apply_through_narrow_map(self, tmp_path, old_store):
        root, _ = old_store
        run_dir = root / "runs" / "run0"
        out = tmp_path / "applied.emb"
        assert main([
            "apply",
            "--emb", str(run_dir / "raw_items.emb"),
            "--transform", str(run_dir / "mT.olt"),
            "--out", str(out),
        ]) == 0
        assert out.read_bytes() == (run_dir / "items.emb").read_bytes()

    def test_stabilize_against_narrow_anchor_exits_2(self, old_store, sim_dir, capsys):
        root, _ = old_store
        rc = main([
            "stabilize",
            "--items", str(sim_dir / "run_001.items.emb"),
            "--users", str(sim_dir / "run_001.users.emb"),
            "--run-id", "run1",
            "--out", str(root),
        ])
        assert rc == 2
        assert "run width 8 != reference dimension 7" in capsys.readouterr().err


class TestPipelineProperties:
    def test_noise_free_orthogonal_pair_is_lossless_through_pipeline(self, tmp_path):
        # Rotation-only retraining preserves the score space exactly, so the
        # stabilized comparison recovers essentially perfect similarity even
        # through float32 storage.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "n_items = 200\nn_users = 150\ndim = 8\nnoise_scale = 0.0\n"
            "rotation = orthogonal\nvocab_drop_fraction = 0.0\nseed = 5\n"
        )
        sim = tmp_path / "sim"
        store = tmp_path / "store"
        assert main(["simulate", "--config", str(cfg), "--runs", "1", "--out", str(sim)]) == 0
        assert main([
            "init", "--items", str(sim / "run_000.items.emb"),
            "--users", str(sim / "run_000.users.emb"),
            "--run-id", "a", "--out", str(store),
        ]) == 0
        assert main([
            "stabilize", "--items", str(sim / "run_001.items.emb"),
            "--users", str(sim / "run_001.users.emb"),
            "--run-id", "b", "--out", str(store),
        ]) == 0
        out = tmp_path / "rep"
        assert main([
            "validate", "--run-a", "a", "--run-b", "b",
            "--store", str(store), "--out", str(out),
        ]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mean_item_cosine"] > 0.999
        assert report["mean_user_cosine"] > 0.999
        assert report["mean_rbo"] > 0.99

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stored_pair_is_apply_of_the_raw_pair(self, tmp_path, monkeypatch, dtype):
        # Each run's stabilized files are `apply` of its raw copies through its
        # maps, and the in-memory path, byte for byte, over several chunks.
        monkeypatch.setattr(embstab.store, "CHUNK_ROWS", 37)
        store = tmp_path / "store"
        for k, command in enumerate(["init", "stabilize", "stabilize"]):
            items, users = random_pair(150, 120, 6, seed=40 + k, dtype=dtype)
            write_embeddings(items, tmp_path / f"items{k}.emb")
            write_embeddings(users, tmp_path / f"users{k}.emb")
            assert main([
                command, "--items", str(tmp_path / f"items{k}.emb"),
                "--users", str(tmp_path / f"users{k}.emb"),
                "--run-id", f"r{k}", "--out", str(store),
            ]) == 0
        for k in range(3):
            run_dir = store / "runs" / f"r{k}"
            for side, transform in (("items", "mT.olt"), ("users", "mW.olt")):
                stored = (run_dir / f"{side}.emb").read_bytes()
                out = tmp_path / f"r{k}.{side}.emb"
                assert main([
                    "apply", "--emb", str(run_dir / f"raw_{side}.emb"),
                    "--transform", str(run_dir / transform), "--out", str(out),
                ]) == 0
                assert out.read_bytes() == stored, (k, side)
                raw = read_embeddings(run_dir / f"raw_{side}.emb")
                write_embeddings(apply_transform(raw, read_transform(run_dir / transform)), out)
                assert out.read_bytes() == stored, (k, side)

    def test_init_artifacts_reproducible_across_stores(self, tmp_path, sim_dir):
        # Same inputs and flags must yield identical artifacts; only the
        # timestamp inside meta may differ.
        stores = []
        for name in ("s1", "s2"):
            store = tmp_path / name
            assert main([
                "init", "--items", str(sim_dir / "run_000.items.emb"),
                "--users", str(sim_dir / "run_000.users.emb"),
                "--run-id", "run0", "--out", str(store),
            ]) == 0
            stores.append(store)
        for fname in ("items.emb", "users.emb", "raw_items.emb", "raw_users.emb",
                      "mT.olt", "mW.olt"):
            a = (stores[0] / "runs" / "run0" / fname).read_bytes()
            b = (stores[1] / "runs" / "run0" / fname).read_bytes()
            assert a == b, fname
        meta_a = json.loads((stores[0] / "runs" / "run0" / "meta").read_text())
        meta_b = json.loads((stores[1] / "runs" / "run0" / "meta").read_text())
        meta_a.pop("created_at")
        meta_b.pop("created_at")
        assert meta_a == meta_b


@pytest.mark.parametrize("damage", sorted(MALFORMED_META))
@pytest.mark.parametrize("command", ["validate", "stabilize"])
def test_malformed_meta_exits_3_with_one_line(
    tmp_path, sim_dir, store_with_two_runs, capsys, command, damage
):
    meta = store_with_two_runs / "runs" / "run1" / "meta"
    meta.write_text(MALFORMED_META[damage](meta.read_text()))
    capsys.readouterr()
    if command == "validate":
        argv = ["validate", "--run-a", "run0", "--run-b", "run1",
                "--store", str(store_with_two_runs), "--out", str(tmp_path / "rep")]
    else:
        argv = ["stabilize",
                "--items", str(sim_dir / "run_002.items.emb"),
                "--users", str(sim_dir / "run_002.users.emb"),
                "--run-id", "run2", "--out", str(store_with_two_runs)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert str(meta) in err


def test_pinned_reference_with_anchor_of_another_run_exits_3(
    sim_dir, store_with_two_runs, capsys
):
    # An anchor path that leaves run1's directory would align to run0's
    # items while recording run1 as the reference.
    meta = store_with_two_runs / "runs" / "run1" / "meta"
    meta.write_text(MALFORMED_META["anchor_outside_run"](meta.read_text()))
    capsys.readouterr()
    assert main([
        "stabilize", "--items", str(sim_dir / "run_002.items.emb"),
        "--users", str(sim_dir / "run_002.users.emb"),
        "--run-id", "run2", "--out", str(store_with_two_runs), "--ref", "run1",
    ]) == 3
    assert capsys.readouterr().err.count("\n") == 1
    assert not (store_with_two_runs / "runs" / "run2").exists()


# Stored files of a run, each with a command that reads it. Every command
# that reads a run reads these four through RunStore.load_run; none reads
# items.emb or users.emb, since stabilize derives its anchor and validate
# its stabilized pair from the raw pair and the maps.
READERS = [
    ("raw_items.emb", "stabilize"),
    ("raw_users.emb", "stabilize"),
    ("mT.olt", "stabilize"),
    ("mW.olt", "stabilize"),
    ("raw_items.emb", "validate"),
    ("raw_users.emb", "validate"),
    ("mT.olt", "validate"),
    ("mW.olt", "validate"),
    ("raw_items.emb", "validate --raw"),
    ("raw_users.emb", "validate --raw"),
]


def _reading_argv(command, store, sim_dir, report):
    if command == "stabilize":
        return ["stabilize", "--items", str(sim_dir / "run_002.items.emb"),
                "--users", str(sim_dir / "run_002.users.emb"),
                "--run-id", "run2", "--out", str(store), "--ref", "run1"]
    return ["validate", "--run-a", "run1", "--run-b", "run0", "--store", str(store),
            "--out", str(report)] + command.split()[1:]


@pytest.mark.parametrize("name, command", READERS)
def test_file_of_another_run_exits_3_and_changes_nothing(
    tmp_path, sim_dir, store_with_two_runs, capsys, name, command
):
    # run0's file is whole, so only run1's meta tells that it is not run1's.
    store = store_with_two_runs
    path = store / "runs" / "run1" / name
    shutil.copyfile(store / "runs" / "run0" / name, path)
    report = tmp_path / "report"
    capsys.readouterr()
    assert main(_reading_argv(command, store, sim_dir, report)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err
    assert sorted(p.name for p in (store / "runs").iterdir()) == ["run0", "run1"]
    assert (store / "latest_ref").read_text() == "run1\n"
    assert not report.exists()


@pytest.mark.parametrize("damage", sorted(DAMAGED_FILE))
@pytest.mark.parametrize("name, command", READERS)
def test_damaged_run_file_exits_3(
    tmp_path, sim_dir, store_with_two_runs, capsys, name, command, damage
):
    path = store_with_two_runs / "runs" / "run1" / name
    DAMAGED_FILE[damage](path)
    capsys.readouterr()
    assert main(_reading_argv(command, store_with_two_runs, sim_dir, tmp_path / "rep")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


def test_no_command_reads_the_stored_stabilized_pair(tmp_path, sim_dir, store_with_two_runs):
    # The same reports and the same run from a copy of the store that has
    # lost every items.emb and users.emb.
    intact = store_with_two_runs
    bare = tmp_path / "bare"
    shutil.copytree(intact, bare)
    for path in [*bare.glob("runs/*/items.emb"), *bare.glob("runs/*/users.emb")]:
        path.unlink()
    for store in (intact, bare):
        for raw in ([], ["--raw"]):
            out = tmp_path / f"report-{store.name}{''.join(raw)}"
            assert main(_reading_argv("validate", store, sim_dir, out) + raw) == 0
        assert main(_reading_argv("stabilize", store, sim_dir, None)) == 0
    for raw in ("", "--raw"):
        for name in ("report.txt", "report.json"):
            expected = (tmp_path / f"report-{intact.name}{raw}" / name).read_bytes()
            assert (tmp_path / f"report-bare{raw}" / name).read_bytes() == expected
    for name in ("items.emb", "users.emb", "raw_items.emb", "raw_users.emb", "mT.olt", "mW.olt"):
        expected = (intact / "runs" / "run2" / name).read_bytes()
        assert (bare / "runs" / "run2" / name).read_bytes() == expected, name


def test_truncated_stabilize_shows_each_warning_on_one_line(tmp_path, sim_dir):
    store = tmp_path / "store"
    formatwarning = warnings.formatwarning
    assert main([
        "init", "--items", str(sim_dir / "run_001.items.emb"),
        "--users", str(sim_dir / "run_001.users.emb"), "--run-id", "run0", "--out", str(store),
    ]) == 0
    assert warnings.formatwarning is formatwarning
    write_embeddings(rank_7_of_8_items(sim_dir), tmp_path / "deficient.emb")
    result = subprocess.run(
        [sys.executable, "-m", "embstab.cli", "stabilize",
         "--items", str(tmp_path / "deficient.emb"),
         "--users", str(sim_dir / "run_000.users.emb"),
         "--run-id", "run1", "--out", str(store)],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert result.stderr.splitlines() == [
        "warning: dropping 1 of 8 singular values below threshold; effective rank 7",
        "warning: cross-covariance is rank deficient; alignment is optimal but not unique",
        "stabilized run 'run1' against reference 'run0'",
    ]


class TestValidate:
    def test_run_against_itself_is_unity(self, tmp_path, store_with_two_runs):
        out = tmp_path / "self"
        rc = main([
            "validate", "--run-a", "run0", "--run-b", "run0",
            "--store", str(store_with_two_runs), "--out", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mean_user_cosine"] == 1.0
        assert report["mean_item_cosine"] == 1.0
        assert report["mean_rbo"] == pytest.approx(1.0, abs=1e-12)

    def test_unknown_run_exits_2(self, store_with_two_runs):
        rc = main([
            "validate", "--run-a", "run0", "--run-b", "ghost",
            "--store", str(store_with_two_runs),
        ])
        assert rc == 2

    def test_out_of_memory_exits_3_with_one_line(self, store_with_two_runs, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 298. GiB for an array")

        monkeypatch.setattr(embstab.cli, "compare_runs", exhausted)
        rc = main([
            "validate", "--run-a", "run0", "--run-b", "run1",
            "--store", str(store_with_two_runs),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "298. GiB" in err

    @pytest.mark.parametrize(
        "option", [["--top-k", "0"], ["--top-k", "-3"], ["--rbo-p", "1.5"]]
    )
    def test_bad_ranking_option_exits_2_before_scoring(
        self, tmp_path, store_with_two_runs, monkeypatch, capsys, option
    ):
        def never(*args, **kwargs):
            raise AssertionError("scored before the options were checked")

        monkeypatch.setattr(embstab.metrics, "mean_same_id_cosine", never)
        monkeypatch.setattr(embstab.metrics, "rank_correlation_report", never)
        out = tmp_path / "rep"
        rc = main([
            "validate", "--run-a", "run0", "--run-b", "run1",
            "--store", str(store_with_two_runs), "--out", str(out), *option,
        ])
        assert rc == 2
        flag, value = option
        message = {
            "--top-k": f"depth must be >= 1, got {value}",
            "--rbo-p": f"persistence must lie in (0, 1), got {value}",
        }[flag]
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_report_files_and_flat_format(self, tmp_path, store_with_two_runs):
        out = tmp_path / "rep"
        main([
            "validate", "--run-a", "run0", "--run-b", "run1",
            "--store", str(store_with_two_runs), "--out", str(out),
            "--top-k", "25", "--rbo-p", "0.8",
        ])
        text = (out / "report.txt").read_text()
        assert "mean_rbo = " in text
        assert "rbo_depth = 25" in text
        assert "rbo_persistence = 0.8" in text
        report = json.loads((out / "report.json").read_text())
        assert report["rbo_depth"] == 25

    def test_table_rendered_to_stderr(self, store_with_two_runs, capsys):
        main([
            "validate", "--run-a", "run0", "--run-b", "run1",
            "--store", str(store_with_two_runs),
        ])
        err = capsys.readouterr().err
        assert "User Similarity" in err
        assert "Item Similarity" in err
        assert "Rank Correlation" in err


class TestApply:
    def test_identity_transform_gives_identical_file(self, tmp_path):
        items, _ = random_pair(500, 5, 6, seed=0, dtype=np.float32)
        emb_path = tmp_path / "in.emb"
        write_embeddings(items, emb_path)
        write_transform(np.eye(6), tmp_path / "id.olt")
        out_path = tmp_path / "out.emb"
        rc = main([
            "apply", "--emb", str(emb_path),
            "--transform", str(tmp_path / "id.olt"), "--out", str(out_path),
        ])
        assert rc == 0
        assert out_path.read_bytes() == emb_path.read_bytes()

    def test_matches_in_memory_application(self, tmp_path):
        items, _ = random_pair(200, 5, 8, seed=1, dtype=np.float32)
        m = np.random.default_rng(2).standard_normal((8, 8))
        emb_path = tmp_path / "in.emb"
        write_embeddings(items, emb_path)
        write_transform(m, tmp_path / "m.olt")
        out_path = tmp_path / "out.emb"
        assert main([
            "apply", "--emb", str(emb_path),
            "--transform", str(tmp_path / "m.olt"), "--out", str(out_path),
        ]) == 0
        streamed = read_embeddings(out_path)
        in_memory = apply_transform(items, m)
        assert np.array_equal(streamed.vectors, in_memory.vectors)
        assert np.array_equal(streamed.ids, in_memory.ids)

    def test_chained_applies_match_composed_to_f32_rounding(self, tmp_path):
        items, _ = random_pair(100, 5, 6, seed=3, dtype=np.float32)
        m1 = np.random.default_rng(4).standard_normal((6, 6))
        m2 = np.random.default_rng(5).standard_normal((6, 6))
        write_embeddings(items, tmp_path / "in.emb")
        write_transform(m1, tmp_path / "m1.olt")
        write_transform(m2, tmp_path / "m2.olt")
        write_transform(m1 @ m2, tmp_path / "m12.olt")
        for step in (
            ["apply", "--emb", str(tmp_path / "in.emb"), "--transform",
             str(tmp_path / "m1.olt"), "--out", str(tmp_path / "mid.emb")],
            ["apply", "--emb", str(tmp_path / "mid.emb"), "--transform",
             str(tmp_path / "m2.olt"), "--out", str(tmp_path / "chained.emb")],
            ["apply", "--emb", str(tmp_path / "in.emb"), "--transform",
             str(tmp_path / "m12.olt"), "--out", str(tmp_path / "composed.emb")],
        ):
            assert main(step) == 0
        chained = read_embeddings(tmp_path / "chained.emb").vectors
        composed = read_embeddings(tmp_path / "composed.emb").vectors
        np.testing.assert_allclose(chained, composed, rtol=1e-5, atol=1e-6)

    def test_truncating_transform_changes_header_dim(self, tmp_path):
        items, _ = random_pair(20, 5, 6, seed=6)
        write_embeddings(items, tmp_path / "in.emb")
        write_transform(np.random.default_rng(7).standard_normal((6, 4)),
                        tmp_path / "narrow.olt")
        assert main([
            "apply", "--emb", str(tmp_path / "in.emb"),
            "--transform", str(tmp_path / "narrow.olt"), "--out", str(tmp_path / "out.emb"),
        ]) == 0
        out = read_embeddings(tmp_path / "out.emb")
        assert out.dim == 4
        assert out.n == 20

    def test_dim_mismatch_exits_2(self, tmp_path):
        items, _ = random_pair(10, 5, 6, seed=8)
        write_embeddings(items, tmp_path / "in.emb")
        write_transform(np.eye(5), tmp_path / "wrong.olt")
        rc = main([
            "apply", "--emb", str(tmp_path / "in.emb"),
            "--transform", str(tmp_path / "wrong.olt"), "--out", str(tmp_path / "out.emb"),
        ])
        assert rc == 2

    def test_non_finite_map_exits_2_and_keeps_out(self, tmp_path, capsys):
        items, _ = random_pair(10, 5, 8, seed=8)
        write_embeddings(items, tmp_path / "in.emb")
        m = np.eye(8)
        m[3, 5] = np.nan
        body = struct.pack("<4sHI", b"OLRT", 1, 8) + m.astype("<f8").tobytes()
        (tmp_path / "nan.olt").write_bytes(body + hashlib.sha256(body).digest())
        (tmp_path / "out.emb").write_bytes(b"previous output")
        rc = main([
            "apply", "--emb", str(tmp_path / "in.emb"),
            "--transform", str(tmp_path / "nan.olt"), "--out", str(tmp_path / "out.emb"),
        ])
        assert rc == 2
        assert "NaN or Inf" in capsys.readouterr().err
        assert (tmp_path / "out.emb").read_bytes() == b"previous output"
        assert not (tmp_path / "out.emb.tmp").exists()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_past_the_precision_range_exits_2_and_writes_no_out(
        self, tmp_path, capsys, dtype
    ):
        """Four finite rows that a finite map carries past the largest value
        of the file precision: no file that read_embeddings refuses is
        written."""
        big = np.finfo(dtype).max / 2
        write_embeddings(EmbeddingMatrix.of_users(np.full((4, 8), big, dtype=dtype)),
                         tmp_path / "in.emb")
        write_transform(4 * np.eye(8), tmp_path / "m.olt")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflow of the cast
            rc = main([
                "apply", "--emb", str(tmp_path / "in.emb"),
                "--transform", str(tmp_path / "m.olt"), "--out", str(tmp_path / "out.emb"),
            ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "NaN or Inf" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.emb", "m.olt"]

    def refused_input_keeps_out(self, tmp_path, capsys, ids, vectors, error):
        """apply of rows that read_embeddings refuses exits 2 with its error
        and leaves --out as it was."""
        emb_path = tmp_path / "in.emb"
        precision = vectors.dtype.itemsize
        write_embedding_chunks(
            emb_path, Role.USER, precision, len(ids), vectors.shape[1], [(ids, vectors)]
        )
        with pytest.raises(error) as refused:
            read_embeddings(emb_path)
        write_transform(np.eye(vectors.shape[1]), tmp_path / "id.olt")
        (tmp_path / "out.emb").write_bytes(b"previous output")
        threads = set(threading.enumerate())
        rc = main([
            "apply", "--emb", str(emb_path),
            "--transform", str(tmp_path / "id.olt"), "--out", str(tmp_path / "out.emb"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {refused.value}\n"
        assert set(threading.enumerate()) == threads
        assert (tmp_path / "out.emb").read_bytes() == b"previous output"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["id.olt", "in.emb", "out.emb"]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_exits_2_and_keeps_out(
        self, tmp_path, capsys, monkeypatch, dtype, bad
    ):
        monkeypatch.setattr(embstab.store, "CHUNK_ROWS", 3)
        vectors = np.random.default_rng(14).standard_normal((8, 3)).astype(dtype)
        vectors[4, 1] = bad  # in the second of three chunks
        ids = np.arange(8, dtype=np.uint64)
        self.refused_input_keeps_out(tmp_path, capsys, ids, vectors, NonFinite)

    def test_repeated_id_across_chunks_exits_2_and_keeps_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(embstab.store, "CHUNK_ROWS", 3)
        vectors = np.random.default_rng(15).standard_normal((8, 3))
        ids = np.array([9, 40, 2, 7, 11, 5, 40, 1], dtype=np.uint64)  # chunks 1 and 3
        self.refused_input_keeps_out(tmp_path, capsys, ids, vectors, DuplicateId)

    def test_corrupt_input_exits_3_without_output(self, tmp_path):
        items, _ = random_pair(10, 5, 4, seed=9)
        emb_path = tmp_path / "in.emb"
        write_embeddings(items, emb_path)
        raw = bytearray(emb_path.read_bytes())
        raw[40] ^= 0xFF
        emb_path.write_bytes(bytes(raw))
        write_transform(np.eye(4), tmp_path / "id.olt")
        rc = main([
            "apply", "--emb", str(emb_path),
            "--transform", str(tmp_path / "id.olt"), "--out", str(tmp_path / "out.emb"),
        ])
        assert rc == 3
        assert not (tmp_path / "out.emb").exists()

    def test_empty_embedding_file(self, tmp_path):
        emb = EmbeddingMatrix.of_items(np.empty((0, 3)))
        write_embeddings(emb, tmp_path / "in.emb")
        write_transform(np.eye(3), tmp_path / "id.olt")
        assert main([
            "apply", "--emb", str(tmp_path / "in.emb"),
            "--transform", str(tmp_path / "id.olt"), "--out", str(tmp_path / "out.emb"),
        ]) == 0
        assert read_embeddings(tmp_path / "out.emb").n == 0

    def test_missing_input_exits_3(self, tmp_path):
        write_transform(np.eye(3), tmp_path / "id.olt")
        rc = main([
            "apply", "--emb", str(tmp_path / "ghost.emb"),
            "--transform", str(tmp_path / "id.olt"), "--out", str(tmp_path / "out.emb"),
        ])
        assert rc == 3

    def test_streaming_across_chunk_boundary(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embstab.store, "CHUNK_ROWS", 37)
        items, _ = random_pair(100, 5, 4, seed=10, dtype=np.float32)
        m = np.random.default_rng(11).standard_normal((4, 4))
        write_embeddings(items, tmp_path / "in.emb")
        write_transform(m, tmp_path / "m.olt")
        assert main([
            "apply", "--emb", str(tmp_path / "in.emb"),
            "--transform", str(tmp_path / "m.olt"), "--out", str(tmp_path / "out.emb"),
        ]) == 0
        streamed = read_embeddings(tmp_path / "out.emb")
        in_memory = apply_transform(items, m)
        # Chunking must not leak into the numbers at all.
        assert np.array_equal(streamed.vectors, in_memory.vectors)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_bytes_equal_write_embeddings(self, tmp_path, monkeypatch, dtype):
        monkeypatch.setattr(embstab.store, "CHUNK_ROWS", 37)
        items, _ = random_pair(100, 5, 6, seed=12, dtype=dtype)
        m = np.random.default_rng(13).standard_normal((6, 5))
        write_embeddings(items, tmp_path / "in.emb")
        write_transform(m, tmp_path / "m.olt")
        assert main([
            "apply", "--emb", str(tmp_path / "in.emb"),
            "--transform", str(tmp_path / "m.olt"), "--out", str(tmp_path / "out.emb"),
        ]) == 0
        write_embeddings(apply_transform(items, m), tmp_path / "expected.emb")
        assert (tmp_path / "out.emb").read_bytes() == (tmp_path / "expected.emb").read_bytes()


ERROR_CLASSES = sorted(
    (
        cls
        for cls in vars(embstab.errors).values()
        if isinstance(cls, type) and issubclass(cls, embstab.errors.EmbStabError)
    ),
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_exit_code_of_each_error_class(tmp_path, monkeypatch, capsys, error):
    def fail(args):
        raise error("simulated failure")

    monkeypatch.setattr(embstab.cli, "_cmd_simulate", fail)
    rc = main([
        "simulate", "--config", str(tmp_path / "sim.cfg"), "--runs", "1",
        "--out", str(tmp_path / "out"),
    ])
    assert rc == (3 if error is embstab.errors.CorruptFile else 2)
    assert capsys.readouterr().err == "error: simulated failure\n"


def test_cli_uses_no_private_store_names():
    """The .emb format lives in store.py; the CLI reaches it only through
    public names."""
    tree = ast.parse(Path(embstab.cli.__file__).read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("store", "embstab.store")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def cli_child(*args, code=None, cwd=None):
    """Run `python -m embstab.cli ARGS`, or `python -c CODE ARGS`, in a child
    whose standard streams are pipes, block-buffered as in any pipeline:
    PYTHONUNBUFFERED is not passed on."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    entry = ["-m", "embstab.cli"] if code is None else ["-c", code]
    return subprocess.run(
        [sys.executable, *entry, *map(str, args)],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )


class TestProcessEntry:
    """`embstab` and `python -m embstab.cli` end through cli.run(), which
    skips the interpreter's teardown once main() has returned."""

    def test_console_script_is_run(self):
        pyproject = Path(embstab.__file__).parents[2] / "pyproject.toml"
        if not pyproject.exists():
            pytest.skip("not a source checkout")
        assert 'embstab = "embstab.cli:run"' in pyproject.read_text().splitlines()

    def test_apply_writes_the_bytes_of_main(self, tmp_path):
        users, _ = random_pair(5000, 5, 16, seed=20, dtype=np.float32)
        write_embeddings(users, tmp_path / "in.emb")
        write_transform(np.random.default_rng(21).standard_normal((16, 16)), tmp_path / "m.olt")
        apply = ["apply", "--emb", tmp_path / "in.emb", "--transform", tmp_path / "m.olt"]
        assert main([*map(str, apply), "--out", str(tmp_path / "main.emb")]) == 0
        child = cli_child(*apply, "--out", tmp_path / "child.emb")
        assert (child.returncode, child.stdout, child.stderr) == (0, "", "")
        assert (tmp_path / "child.emb").read_bytes() == (tmp_path / "main.emb").read_bytes()

    def test_non_finite_input_exits_2_with_one_line_and_keeps_out(self, tmp_path):
        vectors = np.random.default_rng(22).standard_normal((40, 4))
        vectors[17, 2] = np.nan
        write_embedding_chunks(
            tmp_path / "in.emb", Role.USER, 8, 40, 4, [(np.arange(40, dtype=np.uint64), vectors)]
        )
        with pytest.raises(NonFinite) as refused:
            read_embeddings(tmp_path / "in.emb")
        write_transform(np.eye(4), tmp_path / "id.olt")
        (tmp_path / "out.emb").write_bytes(b"previous output")
        child = cli_child(
            "apply", "--emb", tmp_path / "in.emb", "--transform", tmp_path / "id.olt",
            "--out", tmp_path / "out.emb",
        )
        assert (child.returncode, child.stdout) == (2, "")
        assert child.stderr == f"error: {refused.value}\n"
        assert (tmp_path / "out.emb").read_bytes() == b"previous output"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["id.olt", "in.emb", "out.emb"]

    def test_corrupt_input_exits_3_with_the_line_of_main(self, tmp_path, capsys):
        items, _ = random_pair(10, 5, 4, seed=23)
        write_embeddings(items, tmp_path / "in.emb")
        DAMAGED_FILE["flipped_body_byte"](tmp_path / "in.emb")
        write_transform(np.eye(4), tmp_path / "id.olt")
        apply = ["apply", "--emb", tmp_path / "in.emb", "--transform", tmp_path / "id.olt",
                 "--out", tmp_path / "out.emb"]
        assert main(list(map(str, apply))) == 3
        line = capsys.readouterr().err
        assert line.startswith("error: ") and line.count("\n") == 1
        child = cli_child(*apply)
        assert (child.returncode, child.stdout, child.stderr) == (3, "", line)
        assert not (tmp_path / "out.emb").exists()

    def test_help_exits_0_with_usage_on_stdout(self):
        child = cli_child("--help")
        assert (child.returncode, child.stderr) == (0, "")
        assert child.stdout.startswith("usage: embstab")
        assert "apply" in child.stdout

    @pytest.mark.parametrize(
        ("args", "code", "hooked"),
        [(["--help"], 0, True), (["bogus"], 2, True),
         (["apply", "--emb", "a.emb", "--transform", "m.olt", "--out", "o.emb"], 3, False)],
    )
    def test_exit_hooks_run_only_when_main_raises(self, tmp_path, args, code, hooked):
        """What main() returns ends the process at once, exit hooks unrun,
        after what the streams hold is flushed; argparse's SystemExit leaves
        main() and exits normally."""
        script = (
            "import atexit, sys\n"
            "from embstab import cli\n"
            "atexit.register(print, 'exit hook', file=sys.stderr)\n"
            "print('out', end='')\n"
            "print('err', end='', file=sys.stderr)\n"
            "cli.run()\n"
        )
        child = cli_child(*args, code=script, cwd=tmp_path)
        assert child.returncode == code
        assert child.stdout.startswith("out") and child.stderr.startswith("err")
        assert child.stderr.endswith("exit hook\n") == hooked


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs sched_setaffinity and at least two CPUs",
)
def test_output_bytes_do_not_depend_on_the_cpu_set(tmp_path):
    """validate and apply write the same bytes on one CPU (one lane) and on
    every CPU the test may use (two lanes)."""
    cfg = tmp_path / "sim.cfg"
    # 4500 users of 512 items score in three blocks of 2048 users.
    cfg.write_text(SIM_CFG.replace("n_items = 120", "n_items = 512")
                   .replace("n_users = 90", "n_users = 4500").replace("dim = 8", "dim = 16"))
    sim, store = tmp_path / "sim", tmp_path / "store"
    assert main(["simulate", "--config", str(cfg), "--runs", "2", "--out", str(sim)]) == 0
    for cmd, run in (("init", 0), ("stabilize", 1)):
        assert main([
            cmd, "--items", str(sim / f"run_00{run}.items.emb"),
            "--users", str(sim / f"run_00{run}.users.emb"),
            "--run-id", f"run{run}", "--out", str(store),
        ]) == 0
    # Inputs of many tiles, which the apply kernel splits in two.
    rows = 8199
    gen = np.random.default_rng(3)
    for dtype in (np.float32, np.float64):
        users = EmbeddingMatrix.of_users(gen.standard_normal((rows, 16)).astype(dtype))
        write_embeddings(users, tmp_path / f"{np.dtype(dtype).name}.emb")

    # One BLAS thread in both children, whatever the lanes do.
    env = child_env(one_blas_thread=True)
    one_cpu = {min(os.sched_getaffinity(0))}

    def child(args, confine):
        return subprocess.run(
            [sys.executable, *args],
            env=env,
            check=True,
            capture_output=True,
            text=True,
            preexec_fn=(lambda: os.sched_setaffinity(0, one_cpu)) if confine else None,
        ).stdout

    lanes = "import embstab.lowrank; print(embstab.lowrank.LANES)"
    assert [child(["-c", lanes], confine) for confine in (True, False)] == ["1\n", "2\n"]

    validate = ["validate", "--run-a", "run0", "--run-b", "run1", "--store", str(store)]
    commands = {
        "validate": (validate, ["report.json", "report.txt"]),
        "validate_raw": (validate + ["--raw"], ["report.json", "report.txt"]),
    }
    for name in ("float32", "float64"):
        apply = ["apply", "--emb", str(tmp_path / f"{name}.emb"),
                 "--transform", str(store / "runs" / "run1" / "mW.olt")]
        commands[f"apply_{name}"] = (apply, ["out.emb"])
    for name, (args, files) in commands.items():
        outputs = []
        for confine in (True, False):
            out = tmp_path / f"{name}-{confine}"
            out.mkdir()
            out_arg = out if args[0] == "validate" else out / "out.emb"
            child(["-m", "embstab.cli", *args, "--out", str(out_arg)], confine)
            outputs.append([(out / f).read_bytes() for f in files])
        assert outputs[0] == outputs[1], name
