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
from embstab.stabilizer import StabilizedRun, score_product_error
from conftest import (
    alignment_maps,
    chain_gaps,
    random_orthogonal,
    random_pair,
    rel_fro,
    stabilized_pair,
)


def stabilized_product_error(run, items, users):
    return score_product_error(
        items, users, *stabilized_pair(run)
    )


class TestInitReference:
    def test_identity_inputs(self):
        items = EmbeddingMatrix.of_items(np.eye(2))
        users = EmbeddingMatrix.of_users(np.eye(2))
        run = init_reference(items, users, "seed-run")
        np.testing.assert_allclose(run.spectrum, [1.0, 1.0], atol=1e-12)
        product = stabilized_pair(run)[0].vectors @ stabilized_pair(run)[1].vectors.T
        np.testing.assert_allclose(product, np.eye(2), atol=1e-10)
        assert run.run_id == "seed-run"
        assert run.reference_run_id == "seed-run"

    def test_product_preserved(self):
        items, users = random_pair(50, 40, 8, seed=1)
        run = init_reference(items, users, "r0")
        assert stabilized_product_error(run, items, users) < 1e-10

    def test_anchor_gram_is_diagonal_spectrum(self):
        items, users = random_pair(50, 40, 8, seed=2)
        run = init_reference(items, users, "r0")
        anchor = stabilized_pair(run)[0]
        gram = anchor.vectors.T @ anchor.vectors
        np.testing.assert_allclose(np.diag(gram), run.spectrum, rtol=1e-8)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-8 * run.spectrum[0]

    def test_maps_equal_svd_maps(self):
        items, users = random_pair(30, 25, 4, seed=3)
        with alignment_maps() as maps:
            run = init_reference(items, users, "r0")
        tr = low_rank_svd_trans(items, users)
        assert np.array_equal(run.item_map, tr.item_map)
        assert np.array_equal(run.user_map, tr.user_map)
        assert maps == []  # the seed's alignment is the identity; none is solved


class TestStabilizeRun:
    def test_same_inputs_reproduce_reference(self):
        items, users = random_pair(50, 40, 8, seed=4)
        run0 = init_reference(items, users, "r0")
        with alignment_maps() as maps:
            run1 = stabilize_run(items, users, run0, "r1")
        assert rel_fro(stabilized_pair(run1)[0].vectors, stabilized_pair(run0)[0].vectors) < 1e-10
        assert rel_fro(stabilized_pair(run1)[1].vectors, stabilized_pair(run0)[1].vectors) < 1e-10
        assert np.linalg.norm(maps[0] - np.eye(8)) < 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_planted_orthogonal_retraining_recovered(self, seed):
        items, users = random_pair(60, 50, 8, seed=seed)
        g = random_orthogonal(8, seed=seed + 900)
        items2 = EmbeddingMatrix.of_items(items.vectors @ g, ids=items.ids)
        users2 = EmbeddingMatrix.of_users(users.vectors @ g, ids=users.ids)
        run0 = init_reference(items, users, "r0")
        run1 = stabilize_run(items2, users2, run0, "r1")
        # Identical score space means identical standard-space coordinates.
        assert np.linalg.norm(
            stabilized_pair(run1)[0].vectors - stabilized_pair(run0)[0].vectors
        ) < 1e-8
        assert np.linalg.norm(
            stabilized_pair(run1)[1].vectors - stabilized_pair(run0)[1].vectors
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

        run0 = init_reference(items, users, "r0")
        run1 = stabilize_run(items2, users2, run0, "r1")
        stabilized_cos, _ = mean_same_id_cosine(
            stabilized_pair(run0)[0], stabilized_pair(run1)[0]
        )
        raw_cos, _ = mean_same_id_cosine(items, items2)
        assert stabilized_cos > 0.99
        assert abs(raw_cos) < 0.2  # indistinguishable from unrelated vectors

    def test_product_preserved_after_alignment(self):
        items, users = random_pair(80, 70, 16, seed=12)
        items2, users2 = random_pair(80, 70, 16, seed=13)
        ref = init_reference(items, users, "r0")
        run1 = stabilize_run(items2, users2, ref, "r1")
        assert stabilized_product_error(run1, items2, users2) < 1e-10

    def test_anchor_rows_outside_intersection_never_influence_alignment(self):
        items, users = random_pair(100, 80, 8, seed=14)
        ref = init_reference(items, users, "r0")
        g = random_orthogonal(8, seed=15)
        items2 = EmbeddingMatrix.of_items(items.vectors @ g, ids=items.ids)
        users2 = EmbeddingMatrix.of_users(users.vectors @ g, ids=users.ids)

        # The same anchor plus 40 rows under ids the run never holds, as a
        # reference whose maps are the identity, so its raw items are its anchor.
        anchor = stabilized_pair(ref)[0]
        extra = np.random.default_rng(16).standard_normal((40, 8)) * 10.0
        padded_anchor = EmbeddingMatrix.of_items(
            np.vstack([anchor.vectors, extra]),
            ids=np.concatenate([anchor.ids, np.arange(5000, 5040, dtype=np.uint64)]),
        )
        ref_padded = StabilizedRun(
            run_id="r0",
            reference_run_id="r0",
            raw_items=padded_anchor,
            raw_users=stabilized_pair(ref)[1],
            item_map=np.eye(8),
            user_map=np.eye(8),
            spectrum=ref.spectrum,
        )
        with alignment_maps() as maps:
            stabilize_run(items2, users2, ref, "ra")
            stabilize_run(items2, users2, ref_padded, "rb")
        np.testing.assert_array_equal(maps[0], maps[1])

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
        run0 = init_reference(items, users, "r0")
        items2, users2 = gen_retrained_run(items, users, cfg)
        run1 = stabilize_run(items2, users2, run0, "r1")
        cos, n = mean_same_id_cosine(stabilized_pair(run0)[0], stabilized_pair(run1)[0])
        assert n == 240  # 20 percent of 300 items replaced
        assert cos > 0.99

    def test_users_enter_alignment_only_through_their_gram(self):
        # Re-mixing user rows with an orthogonal matrix on the left keeps
        # W^T W fixed, so the computed maps and alignment cannot change.
        items, users = random_pair(60, 40, 8, seed=17)
        ref = init_reference(items, users, "r0")
        items2, users2 = random_pair(60, 40, 8, seed=18)

        mix = random_orthogonal(40, seed=19)
        users2_mixed = EmbeddingMatrix.of_users(mix @ users2.vectors, ids=users2.ids)

        with alignment_maps() as maps:
            run_a = stabilize_run(items2, users2, ref, "ra")
            run_b = stabilize_run(items2, users2_mixed, ref, "rb")
        assert np.linalg.norm(maps[0] - maps[1]) < 1e-9
        assert rel_fro(stabilized_pair(run_b)[0].vectors, stabilized_pair(run_a)[0].vectors) < 1e-9
        # Stabilized users are the mixed rows pushed through the same map.
        assert rel_fro(
            stabilized_pair(run_b)[1].vectors, mix @ stabilized_pair(run_a)[1].vectors
        ) < 1e-9

    def test_user_row_permutation_does_not_change_alignment(self):
        items, users = random_pair(60, 40, 8, seed=20)
        ref = init_reference(items, users, "r0")
        items2, users2 = random_pair(60, 40, 8, seed=21)
        perm = np.random.default_rng(22).permutation(40)
        users2_perm = EmbeddingMatrix.of_users(
            users2.vectors[perm], ids=users2.ids[perm]
        )
        with alignment_maps() as maps:
            stabilize_run(items2, users2, ref, "ra")
            stabilize_run(items2, users2_perm, ref, "rb")
        assert np.linalg.norm(maps[0] - maps[1]) < 1e-9

    def test_idempotent_against_own_output(self):
        items, users = random_pair(50, 40, 8, seed=23)
        ref0 = init_reference(items, users, "r0")
        run1 = stabilize_run(items, users, ref0, "r1")
        with alignment_maps() as maps:
            run2 = stabilize_run(items, users, run1, "r2")
        assert np.linalg.norm(maps[0] - np.eye(8)) < 1e-8
        assert rel_fro(stabilized_pair(run2)[0].vectors, stabilized_pair(run1)[0].vectors) < 1e-10

    def test_composed_map_is_svd_map_times_alignment(self):
        items, users = random_pair(50, 40, 8, seed=24)
        ref = init_reference(items, users, "r0")
        items2, users2 = random_pair(50, 40, 8, seed=25)
        with alignment_maps() as maps:
            run = stabilize_run(items2, users2, ref, "r1")
        tr = low_rank_svd_trans(items2, users2)
        np.testing.assert_array_equal(run.item_map, tr.item_map @ maps[0])
        np.testing.assert_array_equal(run.user_map, tr.user_map @ maps[0])

    def test_insufficient_overlap(self):
        items, users = random_pair(20, 15, 4, seed=26)
        ref = init_reference(items, users, "r0")
        items2 = EmbeddingMatrix.of_items(
            items.vectors, ids=np.arange(500, 520, dtype=np.uint64)
        )
        with pytest.raises(InsufficientOverlap):
            stabilize_run(items2, users, ref, "r1")

    @pytest.mark.parametrize("dim", [4, 16])
    def test_overlap_boundary(self, dim):
        # max(e, 10) shared item ids align; one fewer raises. The run's other
        # items carry ids the reference never saw.
        need = max(dim, 10)
        items, users = random_pair(40, 30, dim, seed=dim)
        ref = init_reference(items, users, "r0")
        for shared in (need - 1, need):
            ids = np.concatenate([
                np.arange(shared, dtype=np.uint64),
                np.arange(1000, 1000 + 40 - shared, dtype=np.uint64),
            ])
            moved = EmbeddingMatrix.of_items(items.vectors, ids=ids)
            if shared < need:
                with pytest.raises(InsufficientOverlap, match=f"{shared} shared item ids"):
                    stabilize_run(moved, users, ref, "r1")
            else:
                with alignment_maps() as maps:
                    stabilize_run(moved, users, ref, "r1")
                assert maps[0].shape == (dim, dim)

    def test_dimension_mismatch_with_reference(self):
        items, users = random_pair(30, 25, 4, seed=27)
        ref = init_reference(items, users, "r0")
        items2, users2 = random_pair(30, 25, 6, seed=28)
        with pytest.raises(DimensionMismatch):
            stabilize_run(items2, users2, ref, "r1")

    def test_truncated_run_lands_in_full_reference_space(self):
        items, users = random_pair(40, 30, 6, seed=29)
        ref = init_reference(items, users, "r0")

        vecs = np.random.default_rng(30).standard_normal((40, 6))
        vecs[:, 5] = vecs[:, 0]  # rank 5 of 6
        items2 = EmbeddingMatrix.of_items(vecs, ids=items.ids)
        users2 = EmbeddingMatrix.of_users(
            np.random.default_rng(31).standard_normal((30, 6)), ids=users.ids
        )
        with pytest.warns(Warning):
            run = stabilize_run(items2, users2, ref, "r1")
        assert run.effective_rank == 5
        assert run.dim == 6  # the reference's width, like every run
        assert run.item_map.shape == run.user_map.shape == (6, 6)
        assert stabilized_pair(run)[0].dim == 6
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
        run = None
        for step, step_dead in enumerate([dead, 0, dead, 0]):
            items, users = _chain_step_input(
                gen, item_ids, user_ids, dim, dtype, step_dead, how
            )
            with warnings.catch_warnings(), alignment_maps() as maps:
                # Truncation and the degenerate alignment it implies warn.
                warnings.simplefilter("ignore")
                if run is None:
                    run = init_reference(items, users, f"r{step}")
                else:
                    run = stabilize_run(items, users, run, f"r{step}")
            assert run.dim == dim
            assert run.item_map.shape == run.user_map.shape == (dim, dim)
            assert stabilized_pair(run)[0].dim == stabilized_pair(run)[1].dim == dim
            assert run.effective_rank == dim - step_dead
            t = items.vectors.astype(np.float64)
            w = users.vectors.astype(np.float64)
            rebuilt = (t @ run.item_map) @ (w @ run.user_map).T
            assert rel_fro(rebuilt, t @ w.T) <= 1e-10
            assert len(maps) == (step > 0)  # the seed's alignment is the identity
            for r in maps:
                assert np.linalg.norm(r.T @ r - np.eye(dim)) <= 1e-12 * dim


class TestScoreProductError:
    def test_full_and_sampled_agree_on_small_input(self):
        items, users = random_pair(50, 40, 8, seed=32)
        run = init_reference(items, users, "r0")
        full = score_product_error(items, users, *stabilized_pair(run))
        sampled = score_product_error(
            items, users, *stabilized_pair(run), max_rows=100
        )
        assert full == sampled  # sampling kicks in only above max_rows

    def test_sampling_is_deterministic(self):
        items, users = random_pair(500, 400, 8, seed=33)
        run = init_reference(items, users, "r0")
        a = score_product_error(
            items, users, *stabilized_pair(run), max_rows=50, seed=1
        )
        b = score_product_error(
            items, users, *stabilized_pair(run), max_rows=50, seed=1
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
