import ast
import hashlib
import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from embstab import (
    EmbeddingMatrix,
    RunRecord,
    apply_transform,
    low_rank_svd_trans,
    read_embeddings,
    write_embeddings,
    write_transform,
)
import embstab.cli
import embstab.errors
import embstab.metrics
import embstab.store
from embstab.cli import main
from embstab.errors import DegenerateAlignmentWarning, RankTruncationWarning
from conftest import MALFORMED_META, random_pair


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


class TestStabilize:
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
        ])
        assert rc == 0
        meta = json.loads((store / "runs" / "run2pinned" / "meta").read_text())
        assert meta["reference_run_id"] == "run0"

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

    def test_stabilize_before_init_exits_2(self, tmp_path, sim_dir):
        rc = main([
            "stabilize",
            "--items", str(sim_dir / "run_001.items.emb"),
            "--users", str(sim_dir / "run_001.users.emb"),
            "--run-id", "run1",
            "--out", str(tmp_path / "virgin"),
        ])
        assert rc == 2

    def test_truncate_policy_on_rank_deficient_input(self, tmp_path, sim_dir, capsys):
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
                "--rank-policy", "truncate",
            ])
        assert rc == 0
        categories = {w.category for w in caught}
        assert {RankTruncationWarning, DegenerateAlignmentWarning} <= categories
        assert "rank truncated" in capsys.readouterr().err
        meta = json.loads((store / "runs" / "run1t" / "meta").read_text())
        assert meta["effective_rank"] == 7
        assert meta["dim"] == 8  # output lands in the full reference space
        assert meta["rank_policy"] == "truncate"
        init_meta = json.loads((store / "runs" / "run0" / "meta").read_text())
        assert init_meta["rank_policy"] == "strict"

        rc_strict = main([
            "stabilize",
            "--items", str(tmp_path / "deficient.emb"),
            "--users", str(sim_dir / "run_001.users.emb"),
            "--run-id", "run1s",
            "--out", str(store),
        ])
        assert rc_strict == 2

    def test_truncated_init_does_not_end_the_chain(self, tmp_path, sim_dir, capsys):
        # A rank-7-of-8 seed keeps width 8, so a full-rank run chains onto it.
        store = tmp_path / "store"
        write_embeddings(rank_7_of_8_items(sim_dir), tmp_path / "deficient.emb")
        with pytest.warns(RankTruncationWarning):
            assert main([
                "init",
                "--items", str(tmp_path / "deficient.emb"),
                "--users", str(sim_dir / "run_000.users.emb"),
                "--run-id", "run0",
                "--out", str(store),
                "--rank-policy", "truncate",
            ]) == 0
        assert "warning: rank truncated to 7 of 8" in capsys.readouterr().err
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


def rank_7_of_8_items(sim_dir):
    """The seed run's items with the last column a copy of the first."""
    base = read_embeddings(sim_dir / "run_000.items.emb")
    vecs = base.vectors.copy()
    vecs[:, -1] = vecs[:, 0]
    return EmbeddingMatrix.of_items(vecs, ids=base.ids)


def _write_narrow_truncated_store(store, items, users):
    """A store as older releases wrote it after `init --rank-policy truncate`
    of a rank-deficient run: e x kept maps, a kept-wide anchor and meta.dim
    equal to kept."""
    with pytest.warns(RankTruncationWarning):
        tr = low_rank_svd_trans(items, users, rank_policy="truncate")
    kept = tr.spectrum.size
    item_map, user_map = tr.item_map[:, :kept], tr.user_map[:, :kept]
    run_dir = store / "runs" / "run0"
    run_dir.mkdir(parents=True)
    files = {
        "items.emb": write_embeddings(apply_transform(items, item_map), run_dir / "items.emb"),
        "users.emb": write_embeddings(apply_transform(users, user_map), run_dir / "users.emb"),
        "raw_items.emb": write_embeddings(items, run_dir / "raw_items.emb"),
        "raw_users.emb": write_embeddings(users, run_dir / "raw_users.emb"),
        "mT.olt": write_transform(item_map, run_dir / "mT.olt"),
        "mW.olt": write_transform(user_map, run_dir / "mW.olt"),
    }
    record = RunRecord(
        run_id="run0",
        reference_run_id="run0",
        created_at="2025-01-01T00:00:00+00:00",
        dim=kept,
        effective_rank=kept,
        spectrum=tuple(float(v) for v in tr.spectrum),
        rank_policy="truncate",
        files=files,
    )
    (run_dir / "meta").write_text(json.dumps(asdict(record), indent=2) + "\n")
    (store / "latest_ref").write_text("run0\n")
    return record


class TestNarrowTruncatedStore:
    @pytest.fixture
    def old_store(self, tmp_path, sim_dir):
        users = read_embeddings(sim_dir / "run_000.users.emb")
        store = tmp_path / "old"
        return store, _write_narrow_truncated_store(store, rank_7_of_8_items(sim_dir), users)

    def test_record_loads_and_validates(self, old_store):
        root, record = old_store
        store = embstab.store.RunStore(root)
        assert store.load_record("run0") == record
        store.validate_record(record)
        assert store.reference_space().dimension == 7
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
