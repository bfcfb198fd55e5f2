import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embstab import (
    EmbeddingMatrix,
    init_reference,
    low_rank_svd_trans,
    mean_same_id_cosine,
    stabilize_run,
)
from embstab.errors import DimensionMismatch, InsufficientOverlap
from embstab.stabilizer import default_min_overlap, score_product_error
from conftest import chain_gaps, random_orthogonal, random_pair, rel_fro


def stabilized_product_error(run, items, users):
    return score_product_error(
        items, users, run.stabilized_items, run.stabilized_users
    )


class TestInitReference:
    def test_identity_inputs(self):
        items = EmbeddingMatrix.of_items(np.eye(2))
        users = EmbeddingMatrix.of_users(np.eye(2))
        run, ref = init_reference(items, users, "seed-run")
        np.testing.assert_allclose(run.spectrum, [1.0, 1.0], atol=1e-12)
        product = run.stabilized_items.vectors @ run.stabilized_users.vectors.T
        np.testing.assert_allclose(product, np.eye(2), atol=1e-10)
        assert ref.run_id == "seed-run"
        assert run.reference_run_id == "seed-run"

    def test_product_preserved(self):
        items, users = random_pair(50, 40, 8, seed=1)
        run, _ = init_reference(items, users, "r0")
        assert stabilized_product_error(run, items, users) < 1e-10

    def test_anchor_gram_is_diagonal_spectrum(self):
        items, users = random_pair(50, 40, 8, seed=2)
        run, ref = init_reference(items, users, "r0")
        gram = ref.anchor_items.vectors.T @ ref.anchor_items.vectors
        np.testing.assert_allclose(np.diag(gram), run.spectrum, rtol=1e-8)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-8 * run.spectrum[0]

    def test_maps_equal_svd_maps(self):
        items, users = random_pair(30, 25, 4, seed=3)
        run, _ = init_reference(items, users, "r0")
        tr = low_rank_svd_trans(items, users)
        assert np.array_equal(run.item_map, tr.item_map)
        assert np.array_equal(run.user_map, tr.user_map)
        assert np.array_equal(run.alignment.matrix, np.eye(4))


class TestStabilizeRun:
    def test_same_inputs_reproduce_reference(self):
        items, users = random_pair(50, 40, 8, seed=4)
        run0, ref = init_reference(items, users, "r0")
        run1, _ = stabilize_run(items, users, ref, "r1")
        assert rel_fro(run1.stabilized_items.vectors, run0.stabilized_items.vectors) < 1e-10
        assert rel_fro(run1.stabilized_users.vectors, run0.stabilized_users.vectors) < 1e-10
        assert np.linalg.norm(run1.alignment.matrix - np.eye(8)) < 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_planted_orthogonal_retraining_recovered(self, seed):
        items, users = random_pair(60, 50, 8, seed=seed)
        g = random_orthogonal(8, seed=seed + 900)
        items2 = EmbeddingMatrix.of_items(items.vectors @ g, ids=items.ids)
        users2 = EmbeddingMatrix.of_users(users.vectors @ g, ids=users.ids)
        run0, ref = init_reference(items, users, "r0")
        run1, _ = stabilize_run(items2, users2, ref, "r1")
        # Identical score space means identical standard-space coordinates.
        assert np.linalg.norm(
            run1.stabilized_items.vectors - run0.stabilized_items.vectors
        ) < 1e-8
        assert np.linalg.norm(
            run1.stabilized_users.vectors - run0.stabilized_users.vectors
        ) < 1e-8

    def test_noisy_retraining_recovers_similarity(self):
        # Rotation plus 1e-3 relative noise: stabilized same-item cosine must
        # come back above 0.99 while the raw comparison sits near zero.
        gen = np.random.default_rng(10)
        items, users = random_pair(300, 250, 8, seed=10)
        g = random_orthogonal(8, seed=11)
        noise_t = gen.standard_normal(items.vectors.shape)
        noise_t *= 1e-3 * np.linalg.norm(items.vectors) / np.linalg.norm(noise_t)
        noise_w = gen.standard_normal(users.vectors.shape)
        noise_w *= 1e-3 * np.linalg.norm(users.vectors) / np.linalg.norm(noise_w)
        items2 = EmbeddingMatrix.of_items(items.vectors @ g + noise_t, ids=items.ids)
        users2 = EmbeddingMatrix.of_users(users.vectors @ g + noise_w, ids=users.ids)

        run0, ref = init_reference(items, users, "r0")
        run1, _ = stabilize_run(items2, users2, ref, "r1")
        stabilized_cos, _ = mean_same_id_cosine(
            run0.stabilized_items, run1.stabilized_items
        )
        raw_cos, _ = mean_same_id_cosine(items, items2)
        assert stabilized_cos > 0.99
        assert abs(raw_cos) < 0.2  # indistinguishable from unrelated vectors

    def test_product_preserved_after_alignment(self):
        items, users = random_pair(80, 70, 16, seed=12)
        items2, users2 = random_pair(80, 70, 16, seed=13)
        _, ref = init_reference(items, users, "r0")
        run1, _ = stabilize_run(items2, users2, ref, "r1")
        assert stabilized_product_error(run1, items2, users2) < 1e-10

    def test_anchor_rows_outside_intersection_never_influence_alignment(self):
        from embstab import ReferenceSpace

        items, users = random_pair(100, 80, 8, seed=14)
        _, ref = init_reference(items, users, "r0")
        g = random_orthogonal(8, seed=15)
        items2 = EmbeddingMatrix.of_items(items.vectors @ g, ids=items.ids)
        users2 = EmbeddingMatrix.of_users(users.vectors @ g, ids=users.ids)
        run_a, _ = stabilize_run(items2, users2, ref, "ra")

        extra = np.random.default_rng(16).standard_normal((40, 8)) * 10.0
        padded_anchor = EmbeddingMatrix.of_items(
            np.vstack([ref.anchor_items.vectors, extra]),
            ids=np.concatenate(
                [ref.anchor_items.ids, np.arange(5000, 5040, dtype=np.uint64)]
            ),
        )
        ref_padded = ReferenceSpace(run_id="r0", anchor_items=padded_anchor)
        run_b, _ = stabilize_run(items2, users2, ref_padded, "rb")
        np.testing.assert_array_equal(run_a.alignment.matrix, run_b.alignment.matrix)

    def test_vocab_drift_still_aligns_shared_items(self):
        from embstab import Rotation, SimConfig, gen_ground_truth, gen_retrained_run

        cfg = SimConfig(
            n_items=300,
            n_users=250,
            dim=8,
            rotation=Rotation.ORTHOGONAL,
            vocab_drop_fraction=0.2,
            seed=3,
        )
        items, users = gen_ground_truth(cfg)
        run0, ref = init_reference(items, users, "r0")
        items2, users2 = gen_retrained_run(items, users, cfg)
        run1, _ = stabilize_run(items2, users2, ref, "r1")
        cos, n = mean_same_id_cosine(run0.stabilized_items, run1.stabilized_items)
        assert n == 240  # 20 percent of 300 items replaced
        assert cos > 0.99

    def test_users_enter_alignment_only_through_their_gram(self):
        # Re-mixing user rows with an orthogonal matrix on the left keeps
        # W^T W fixed, so the computed maps and alignment cannot change.
        items, users = random_pair(60, 40, 8, seed=17)
        _, ref = init_reference(items, users, "r0")
        items2, users2 = random_pair(60, 40, 8, seed=18)

        mix = random_orthogonal(40, seed=19)
        users2_mixed = EmbeddingMatrix.of_users(mix @ users2.vectors, ids=users2.ids)

        run_a, _ = stabilize_run(items2, users2, ref, "ra")
        run_b, _ = stabilize_run(items2, users2_mixed, ref, "rb")
        assert np.linalg.norm(run_a.alignment.matrix - run_b.alignment.matrix) < 1e-9
        assert rel_fro(run_b.stabilized_items.vectors, run_a.stabilized_items.vectors) < 1e-9
        # Stabilized users are the mixed rows pushed through the same map.
        assert rel_fro(
            run_b.stabilized_users.vectors, mix @ run_a.stabilized_users.vectors
        ) < 1e-9

    def test_user_row_permutation_does_not_change_alignment(self):
        items, users = random_pair(60, 40, 8, seed=20)
        _, ref = init_reference(items, users, "r0")
        items2, users2 = random_pair(60, 40, 8, seed=21)
        perm = np.random.default_rng(22).permutation(40)
        users2_perm = EmbeddingMatrix.of_users(
            users2.vectors[perm], ids=users2.ids[perm]
        )
        run_a, _ = stabilize_run(items2, users2, ref, "ra")
        run_b, _ = stabilize_run(items2, users2_perm, ref, "rb")
        assert np.linalg.norm(run_a.alignment.matrix - run_b.alignment.matrix) < 1e-9

    def test_idempotent_against_own_output(self):
        items, users = random_pair(50, 40, 8, seed=23)
        _, ref0 = init_reference(items, users, "r0")
        run1, ref1 = stabilize_run(items, users, ref0, "r1")
        run2, _ = stabilize_run(items, users, ref1, "r2")
        assert np.linalg.norm(run2.alignment.matrix - np.eye(8)) < 1e-8
        assert rel_fro(run2.stabilized_items.vectors, run1.stabilized_items.vectors) < 1e-10

    def test_composed_map_is_svd_map_times_alignment(self):
        items, users = random_pair(50, 40, 8, seed=24)
        _, ref = init_reference(items, users, "r0")
        items2, users2 = random_pair(50, 40, 8, seed=25)
        run, _ = stabilize_run(items2, users2, ref, "r1")
        tr = low_rank_svd_trans(items2, users2)
        np.testing.assert_array_equal(run.item_map, tr.item_map @ run.alignment.matrix)
        np.testing.assert_array_equal(run.user_map, tr.user_map @ run.alignment.matrix)

    def test_insufficient_overlap(self):
        items, users = random_pair(20, 15, 4, seed=26)
        _, ref = init_reference(items, users, "r0")
        items2 = EmbeddingMatrix.of_items(
            items.vectors, ids=np.arange(500, 520, dtype=np.uint64)
        )
        with pytest.raises(InsufficientOverlap):
            stabilize_run(items2, users, ref, "r1")

    def test_min_overlap_default(self):
        assert default_min_overlap(4) == 10
        assert default_min_overlap(64) == 64

    def test_dimension_mismatch_with_reference(self):
        items, users = random_pair(30, 25, 4, seed=27)
        _, ref = init_reference(items, users, "r0")
        items2, users2 = random_pair(30, 25, 6, seed=28)
        with pytest.raises(DimensionMismatch):
            stabilize_run(items2, users2, ref, "r1")

    def test_truncated_run_lands_in_full_reference_space(self):
        items, users = random_pair(40, 30, 6, seed=29)
        _, ref = init_reference(items, users, "r0")

        vecs = np.random.default_rng(30).standard_normal((40, 6))
        vecs[:, 5] = vecs[:, 0]  # rank 5 of 6
        items2 = EmbeddingMatrix.of_items(vecs, ids=items.ids)
        users2 = EmbeddingMatrix.of_users(
            np.random.default_rng(31).standard_normal((30, 6)), ids=users.ids
        )
        with pytest.warns(Warning):
            run, _ = stabilize_run(items2, users2, ref, "r1", rank_policy="truncate")
        assert run.effective_rank == 5
        assert run.dim == 6  # the reference's width, like every run
        assert run.item_map.shape == run.user_map.shape == (6, 6)
        assert run.stabilized_items.dim == 6
        assert stabilized_product_error(run, items2, users2) < 1e-8


def _chain_step_input(gen, item_ids, user_ids, dim, dtype, dead, how):
    # A run of width dim; with dead > 0 its item side has rank dim - dead,
    # exactly, whatever the precision: the last `dead` columns are copies of
    # the first one, or zero. A linear combination would round at float32
    # and stay full rank.
    items = gen.standard_normal((item_ids.size, dim)).astype(dtype)
    users = gen.standard_normal((user_ids.size, dim)).astype(dtype)
    if dead:
        items[:, dim - dead :] = items[:, :1] if how == "duplicate" else 0.0
    return (
        EmbeddingMatrix.of_items(items, ids=item_ids),
        EmbeddingMatrix.of_users(users, ids=user_ids),
    )


class TestFixedWidthChain:
    @given(
        dim=st.integers(2, 8),
        dtype=st.sampled_from([np.float32, np.float64]),
        dead_fraction=st.floats(0.0, 1.0),
        how=st.sampled_from(["duplicate", "zero"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_truncate_full_truncate_full_chain(self, dim, dtype, dead_fraction, how, seed):
        # Truncated and full-rank runs alternate along one chain. Each step
        # keeps the full width, stays lossless, and aligns orthogonally.
        gen = np.random.default_rng(seed)
        dead = 1 + int(dead_fraction * (dim - 2))  # 1 .. dim - 1
        item_ids = np.arange(40, dtype=np.uint64)
        user_ids = np.arange(30, dtype=np.uint64)
        ref = None
        for step, step_dead in enumerate([dead, 0, dead, 0]):
            items, users = _chain_step_input(
                gen, item_ids, user_ids, dim, dtype, step_dead, how
            )
            policy = "truncate" if step_dead else "strict"
            with warnings.catch_warnings():
                # Truncation and the degenerate alignment it implies warn.
                warnings.simplefilter("ignore")
                if ref is None:
                    run, ref = init_reference(items, users, f"r{step}", rank_policy=policy)
                else:
                    run, ref = stabilize_run(items, users, ref, f"r{step}", rank_policy=policy)
            assert run.dim == dim
            assert run.item_map.shape == run.user_map.shape == (dim, dim)
            assert run.stabilized_items.dim == run.stabilized_users.dim == dim
            assert run.effective_rank == dim - step_dead
            t = items.vectors.astype(np.float64)
            w = users.vectors.astype(np.float64)
            rebuilt = (t @ run.item_map) @ (w @ run.user_map).T
            assert rel_fro(rebuilt, t @ w.T) <= 1e-10
            r = run.alignment.matrix
            assert np.linalg.norm(r.T @ r - np.eye(dim)) <= 1e-12 * dim


class TestScoreProductError:
    def test_full_and_sampled_agree_on_small_input(self):
        items, users = random_pair(50, 40, 8, seed=32)
        run, _ = init_reference(items, users, "r0")
        full = score_product_error(items, users, run.stabilized_items, run.stabilized_users)
        sampled = score_product_error(
            items, users, run.stabilized_items, run.stabilized_users, max_rows=100
        )
        assert full == sampled  # sampling kicks in only above max_rows

    def test_sampling_is_deterministic(self):
        items, users = random_pair(500, 400, 8, seed=33)
        run, _ = init_reference(items, users, "r0")
        a = score_product_error(
            items, users, run.stabilized_items, run.stabilized_users, max_rows=50, seed=1
        )
        b = score_product_error(
            items, users, run.stabilized_items, run.stabilized_users, max_rows=50, seed=1
        )
        assert a == b


class TestChainEquivalence:
    def test_orthogonal_runs_chain_exactly(self):
        items, users = random_pair(60, 50, 8, seed=34)
        g1 = random_orthogonal(8, seed=35)
        g2 = random_orthogonal(8, seed=36)
        run1 = (
            EmbeddingMatrix.of_items(items.vectors @ g1, ids=items.ids),
            EmbeddingMatrix.of_users(users.vectors @ g1, ids=users.ids),
        )
        run2 = (
            EmbeddingMatrix.of_items(items.vectors @ g2, ids=items.ids),
            EmbeddingMatrix.of_users(users.vectors @ g2, ids=users.ids),
        )
        item_gap, user_gap = chain_gaps((items, users), run1, run2)
        assert item_gap < 1e-8
        assert user_gap < 1e-8

    def test_degenerate_chain_through_identical_run(self):
        items, users = random_pair(50, 40, 8, seed=37)
        item_gap, user_gap = chain_gaps((items, users), (items, users), (items, users))
        assert item_gap < 1e-10
        assert user_gap < 1e-10

    def test_noisy_chain_reports_without_asserting(self):
        gen = np.random.default_rng(38)
        items, users = random_pair(60, 50, 8, seed=38)

        def perturb(emb, factory, scale=1e-2):
            noise = gen.standard_normal(emb.vectors.shape)
            noise *= scale * np.linalg.norm(emb.vectors) / np.linalg.norm(noise)
            return factory(emb.vectors + noise, ids=emb.ids)

        run1 = (
            perturb(items, EmbeddingMatrix.of_items),
            perturb(users, EmbeddingMatrix.of_users),
        )
        run2 = (
            perturb(items, EmbeddingMatrix.of_items),
            perturb(users, EmbeddingMatrix.of_users),
        )
        item_gap, _ = chain_gaps((items, users), run1, run2)
        # Noise makes chaining inexact but keeps it far below the output's
        # own size; ||stabilized items||_F^2 is the sum of the spectrum.
        scale = np.sqrt(low_rank_svd_trans(*run2).spectrum.sum())
        assert 0 < item_gap / scale < 1.0
