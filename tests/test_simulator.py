from dataclasses import fields

import numpy as np
import pytest

from embstab import (
    Rotation,
    SimConfig,
    gen_ground_truth,
    gen_retrained_run,
    load_sim_config,
    mean_same_id_cosine,
)
from embstab.cli import main
from embstab.errors import InvalidConfig
from embstab.simulator import haar_orthogonal


SIM_LINES = {
    "n_items": "50", "n_users": "40", "dim": "8", "noise_scale": "0.1",
    "rotation": "orthogonal", "vocab_drop_fraction": "0.0", "seed": "3",
}


def cfg(**overrides):
    base = dict(n_items=50, n_users=40, dim=8, seed=3)
    base.update(overrides)
    return SimConfig(**base)


class TestSimConfig:
    def test_valid(self):
        c = cfg(noise_scale=0.1, rotation=Rotation.NONE, vocab_drop_fraction=0.5)
        assert c.dim == 8

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(dim=60),  # wider than the smaller side
            dict(n_items=0),
            dict(n_users=-1),
            dict(dim=0),
            dict(noise_scale=-0.1),
            dict(vocab_drop_fraction=1.0),
            dict(vocab_drop_fraction=-0.2),
        ],
    )
    def test_invalid(self, overrides):
        with pytest.raises(InvalidConfig):
            cfg(**overrides)

    def test_rotation_parse(self):
        assert Rotation.parse("Orthogonal") is Rotation.ORTHOGONAL
        assert Rotation.parse("general_invertible") is Rotation.GENERAL_INVERTIBLE
        with pytest.raises(InvalidConfig):
            Rotation.parse("diagonal")


class TestConfigFile:
    def test_parse_round_trip(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text(
            "# synthetic run\n"
            "n_items = 120\n"
            "n_users = 90\n"
            "dim = 16\n"
            "noise_scale = 0.05  # relative\n"
            "rotation = general-invertible\n"
            "vocab_drop_fraction = 0.1\n"
            "seed = 42\n"
        )
        c = load_sim_config(path)
        assert c == SimConfig(
            n_items=120,
            n_users=90,
            dim=16,
            noise_scale=0.05,
            rotation=Rotation.GENERAL_INVERTIBLE,
            vocab_drop_fraction=0.1,
            seed=42,
        )

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("n_items 50\n")
        with pytest.raises(InvalidConfig):
            load_sim_config(path)

    @pytest.mark.parametrize(
        ("key", "value", "message"),
        [
            ("dim", "8.5", "dim: expected int, got '8.5'"),
            ("dim", "True", "dim: expected int, got 'True'"),
            ("dim", "inf", "dim: expected int, got 'inf'"),
            ("seed", "inf", "seed: expected int, got 'inf'"),
            ("noise_scale", "abc", "noise_scale: expected float, got 'abc'"),
            ("noise_scale", "True", "noise_scale: expected float, got 'True'"),
            ("bogus", "1", "unknown config keys: ['bogus']"),
            ("dim", None, "SimConfig.__init__() missing 1 required positional argument: 'dim'"),
            ("rotation", "diagonal", "unknown rotation 'diagonal'"),
            ("noise_scale", "nan", "noise_scale must be finite and >= 0, got nan"),
            ("noise_scale", "inf", "noise_scale must be finite and >= 0, got inf"),
            ("noise_scale", "-inf", "noise_scale must be finite and >= 0, got -inf"),
        ],
        ids=["dim-8.5", "dim-True", "dim-inf", "seed-inf", "noise_scale-abc", "noise_scale-True",
             "unknown_key", "no_dim", "rotation-diagonal", "noise_scale-nan", "noise_scale-inf",
             "noise_scale--inf"],
    )
    def test_rejected_file_exits_2_with_its_message(self, tmp_path, capsys, key, value, message):
        """Each value a config file can hold that SimConfig refuses: the
        library raises InvalidConfig, and `simulate` exits 2 with that one
        line and creates no --out. `value` None drops the key."""
        lines = {**SIM_LINES, key: value}
        if value is None:
            del lines[key]
        path = tmp_path / "sim.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        with pytest.raises(InvalidConfig) as refused:
            load_sim_config(path)
        assert str(refused.value) == message
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--runs", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_every_field_parses_as_its_annotated_type(self, tmp_path):
        """Each field, written in its string form, comes back with the type
        SimConfig annotates it with; a float field is given a value that
        int() refuses, so a float field read as an int fails here."""
        forms = {"int": ("7", 7), "float": ("0.25", 0.25),
                 "Rotation": ("General_Invertible", Rotation.GENERAL_INVERTIBLE)}
        path = tmp_path / "sim.cfg"
        path.write_text("".join(f"{f.name} = {forms[f.type][0]}\n" for f in fields(SimConfig)))
        c = load_sim_config(path)
        for f in fields(SimConfig):
            value = getattr(c, f.name)
            assert type(value) is type(forms[f.type][1]) and value == forms[f.type][1], f.name

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("n_items = many\nn_users = 5\ndim = 2\nseed = 0\n")
        with pytest.raises(ValueError):
            load_sim_config(path)


class TestGenGroundTruth:
    def test_deterministic_in_seed(self):
        a_items, a_users = gen_ground_truth(cfg())
        b_items, b_users = gen_ground_truth(cfg())
        assert np.array_equal(a_items.vectors, b_items.vectors)
        assert np.array_equal(a_users.vectors, b_users.vectors)
        c_items, _ = gen_ground_truth(cfg(seed=4))
        assert not np.array_equal(a_items.vectors, c_items.vectors)

    def test_full_rank(self):
        items, users = gen_ground_truth(cfg())
        assert np.linalg.matrix_rank(items.vectors) == 8
        assert np.linalg.matrix_rank(users.vectors) == 8

    def test_unit_expected_row_norm(self):
        items, _ = gen_ground_truth(cfg(n_items=5000, n_users=8, dim=8, seed=0))
        mean_sq = float(np.mean(np.sum(items.vectors**2, axis=1)))
        assert abs(mean_sq - 1.0) < 0.05

    def test_independent_of_noise_scale(self):
        a_items, a_users = gen_ground_truth(cfg(noise_scale=0.0))
        b_items, b_users = gen_ground_truth(cfg(noise_scale=0.7))
        assert np.array_equal(a_items.vectors, b_items.vectors)
        assert np.array_equal(a_users.vectors, b_users.vectors)


class TestGenRetrainedRun:
    def test_deterministic_and_substreamed(self):
        items, users = gen_ground_truth(cfg())
        a = gen_retrained_run(items, users, cfg(), run_index=1)
        b = gen_retrained_run(items, users, cfg(), run_index=1)
        assert np.array_equal(a[0].vectors, b[0].vectors)
        c = gen_retrained_run(items, users, cfg(), run_index=2)
        assert not np.array_equal(a[0].vectors, c[0].vectors)

    def test_rotation_none_noise_zero_is_identity(self):
        items, users = gen_ground_truth(cfg(rotation=Rotation.NONE))
        items2, users2 = gen_retrained_run(items, users, cfg(rotation=Rotation.NONE))
        assert np.array_equal(items2.vectors, items.vectors)
        assert np.array_equal(users2.vectors, users.vectors)
        assert np.array_equal(items2.ids, items.ids)

    def test_orthogonal_rotation_preserves_score_product(self):
        items, users = gen_ground_truth(cfg())
        items2, users2 = gen_retrained_run(items, users, cfg())
        base = items.vectors @ users.vectors.T
        spun = items2.vectors @ users2.vectors.T
        assert np.linalg.norm(spun - base) < 1e-12 * np.linalg.norm(base)

    def test_rotated_vectors_lose_same_id_similarity(self):
        # Monte Carlo over 20 seeds: the grand mean same-item cosine of a
        # rotated run against its base is near zero.
        means = []
        for seed in range(20):
            c = cfg(n_items=200, n_users=150, dim=8, seed=seed)
            items, users = gen_ground_truth(c)
            items2, _ = gen_retrained_run(items, users, c)
            means.append(mean_same_id_cosine(items, items2)[0])
        assert abs(float(np.mean(means))) < 0.1

    def test_noise_norm_is_exact(self):
        c = cfg(rotation=Rotation.NONE, noise_scale=0.25)
        items, users = gen_ground_truth(c)
        items2, users2 = gen_retrained_run(items, users, c)
        assert np.linalg.norm(items2.vectors - items.vectors) == pytest.approx(
            0.25 * np.linalg.norm(items.vectors), rel=1e-12
        )
        assert np.linalg.norm(users2.vectors - users.vectors) == pytest.approx(
            0.25 * np.linalg.norm(users.vectors), rel=1e-12
        )

    def test_general_invertible_condition_clipped(self):
        c = cfg(rotation=Rotation.GENERAL_INVERTIBLE)
        items, users = gen_ground_truth(c)
        items2, users2 = gen_retrained_run(items, users, c)
        # Recover the common mix from the full-rank base: rank and spaces
        # are preserved even though the product is not.
        mix, *_ = np.linalg.lstsq(items.vectors, items2.vectors, rcond=None)
        assert np.linalg.cond(mix) <= 100.0 * 1.01
        mix_users, *_ = np.linalg.lstsq(users.vectors, users2.vectors, rcond=None)
        np.testing.assert_allclose(mix, mix_users, atol=1e-8)
        assert np.linalg.matrix_rank(items2.vectors) == 8

    def test_vocab_drop_replaces_items_only(self):
        c = cfg(n_items=100, n_users=60, vocab_drop_fraction=0.2)
        items, users = gen_ground_truth(c)
        items2, users2 = gen_retrained_run(items, users, c)
        assert items2.n == 100
        shared = np.intersect1d(items.ids, items2.ids)
        assert shared.size == 80
        fresh = np.setdiff1d(items2.ids, items.ids)
        assert fresh.size == 20
        assert fresh.min() > items.ids.max()
        assert np.array_equal(users2.ids, users.ids)

    def test_fresh_ids_distinct_across_runs(self):
        c = cfg(n_items=100, n_users=60, vocab_drop_fraction=0.2)
        items, users = gen_ground_truth(c)
        run1, _ = gen_retrained_run(items, users, c, run_index=1)
        run2, _ = gen_retrained_run(items, users, c, run_index=2)
        fresh1 = np.setdiff1d(run1.ids, items.ids)
        fresh2 = np.setdiff1d(run2.ids, items.ids)
        assert np.intersect1d(fresh1, fresh2).size == 0

    def test_run_index_must_be_positive(self):
        items, users = gen_ground_truth(cfg())
        with pytest.raises(InvalidConfig):
            gen_retrained_run(items, users, cfg(), run_index=0)

    def test_stabilized_similarity_degrades_smoothly_with_noise(self):
        from embstab import init_reference, stabilize_run
        from conftest import stabilized_pair

        for rotation in (Rotation.ORTHOGONAL, Rotation.GENERAL_INVERTIBLE):
            curve = []
            for noise in (0.0, 0.05, 0.2):
                c = SimConfig(
                    n_items=300, n_users=250, dim=8,
                    noise_scale=noise, rotation=rotation, seed=1,
                )
                items, users = gen_ground_truth(c)
                run0 = init_reference(items, users, "r0")
                items2, users2 = gen_retrained_run(items, users, c)
                run1 = stabilize_run(items2, users2, run0, "r1")
                curve.append(
                    mean_same_id_cosine(stabilized_pair(run0)[0], stabilized_pair(run1)[0])[0]
                )
            if rotation is Rotation.ORTHOGONAL:
                assert curve[0] > 0.99
            assert curve[0] >= curve[1] - 0.02 >= curve[2] - 0.04


class TestHaarOrthogonal:
    def test_orthogonal(self):
        q = haar_orthogonal(16, np.random.default_rng(0))
        assert np.linalg.norm(q.T @ q - np.eye(16)) < 1e-12

    def test_trace_unbiased(self):
        # The raw LAPACK Q factor has a systematically negative trace; the
        # sign correction removes that bias.
        traces = [
            float(np.trace(haar_orthogonal(32, np.random.default_rng(seed))))
            for seed in range(200)
        ]
        assert abs(float(np.mean(traces))) < 0.25
