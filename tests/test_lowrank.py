import os
import sys
import threading
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from embstab import (
    EmbeddingMatrix,
    Role,
    apply_transform,
    low_rank_svd_trans,
)
from embstab import lowrank
from embstab.lowrank import rowwise_matmul
from embstab.errors import (
    DimensionMismatch,
    DuplicateId,
    NonFinite,
    RankDeficient,
    RankTruncationWarning,
    RoleMismatch,
)
from conftest import random_pair, rank_r_pair, rel_fro


class TestEmbeddingMatrix:
    def test_basic_properties(self):
        emb = EmbeddingMatrix.of_items([[1.0, 2.0], [3.0, 4.0]])
        assert emb.n == 2
        assert emb.dim == 2
        assert emb.role is Role.ITEM
        assert emb.ids.dtype == np.uint64

    def test_rejects_duplicate_ids(self):
        with pytest.raises(DuplicateId):
            EmbeddingMatrix.of_items([[1.0], [2.0]], ids=[7, 7])

    def test_rejects_nan(self):
        with pytest.raises(NonFinite):
            EmbeddingMatrix.of_items([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(NonFinite):
            EmbeddingMatrix.of_users([[np.inf, 0.0]])

    def test_rejects_id_row_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            EmbeddingMatrix.of_items([[1.0], [2.0]], ids=[1, 2, 3])

    def test_arrays_are_read_only(self):
        emb = EmbeddingMatrix.of_items([[1.0, 2.0]])
        with pytest.raises(ValueError):
            emb.vectors[0, 0] = 9.0
        with pytest.raises(ValueError):
            emb.ids[0] = 9

    def test_positions_looks_up_unsorted_ids(self):
        emb = EmbeddingMatrix.of_items([[1.0], [2.0], [3.0]], ids=[30, 10, 20])
        assert emb.positions([10, 30]).tolist() == [1, 0]
        with pytest.raises(KeyError):
            emb.positions([99])

    def test_int_input_upcast_to_float64(self):
        emb = EmbeddingMatrix.of_items(np.eye(2, dtype=int))
        assert emb.vectors.dtype == np.float64

    # Small ids repeat often; the rest sit anywhere in the uint64 range.
    @given(ids=st.lists(st.one_of(st.integers(0, 20), st.integers(0, 2**64 - 1)), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_duplicate_check_agrees_with_unique(self, ids):
        ids = np.array(ids, dtype=np.uint64)
        vectors = np.zeros((ids.size, 2))
        if np.unique(ids).size != ids.size:
            with pytest.raises(DuplicateId):
                EmbeddingMatrix.of_users(vectors, ids=ids)
        else:
            assert np.array_equal(EmbeddingMatrix.of_users(vectors, ids=ids).ids, ids)


# Small ids overlap often; the rest sit anywhere in the uint64 range.
JOIN_IDS = st.lists(
    st.one_of(st.integers(0, 30), st.integers(0, 2**64 - 1)), unique=True, max_size=40
)


class TestJoin:
    @given(
        a_ids=JOIN_IDS,
        b_ids=JOIN_IDS,
        f32_a=st.booleans(),
        f32_b=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(a_ids=[3, 1, 2], b_ids=[2, 3, 1], f32_a=False, f32_b=True, seed=0)  # full, shuffled
    @example(a_ids=[0, 1], b_ids=[2, 3], f32_a=True, f32_b=False, seed=0)  # empty
    @example(a_ids=[], b_ids=[5], f32_a=False, f32_b=False, seed=0)
    @settings(max_examples=200, deadline=None)
    def test_rows_pair_by_id_against_a_dict_oracle(self, a_ids, b_ids, f32_a, f32_b, seed):
        gen = np.random.default_rng(seed)
        a = EmbeddingMatrix.of_items(
            gen.standard_normal((len(a_ids), 3)).astype(np.float32 if f32_a else np.float64),
            ids=np.array(a_ids, dtype=np.uint64),
        )
        b = EmbeddingMatrix.of_items(
            gen.standard_normal((len(b_ids), 3)).astype(np.float32 if f32_b else np.float64),
            ids=np.array(b_ids, dtype=np.uint64),
        )
        rows_of_a = dict(zip(a_ids, a.vectors))
        rows_of_b = dict(zip(b_ids, b.vectors))
        shared = sorted(rows_of_a.keys() & rows_of_b.keys())

        ids, positions_a, positions_b = lowrank._join(a, b)
        assert ids.dtype == np.uint64 and ids.tolist() == shared
        for emb, positions, oracle in ((a, positions_a, rows_of_a), (b, positions_b, rows_of_b)):
            assert positions.dtype.kind == "i" and positions.shape == (len(shared),)
            assert emb.ids[positions].tolist() == shared
            rows = emb.vectors[positions]
            expected = np.array([oracle[i] for i in shared], dtype=emb.vectors.dtype)
            assert np.array_equal(rows, expected.reshape(-1, 3))


# Frozen from a dense SVD of the materialized 3x2 product
# X = T W^T = [[2, 0], [0, 3], [1, 3]].
EXPECTED_SPECTRUM_3X2 = np.array([4.319596107466319, 2.0835281299665294])


class TestLowRankSvdTrans:
    def test_identity_score_matrix(self):
        items = EmbeddingMatrix.of_items(np.eye(2))
        users = EmbeddingMatrix.of_users(np.eye(2))
        item_map, user_map, spectrum = low_rank_svd_trans(items, users)
        np.testing.assert_allclose(spectrum, [1.0, 1.0], atol=1e-12)
        # The maps are not unique under a degenerate spectrum; check the
        # product and Gram contracts instead of the matrix entries.
        product = (np.eye(2) @ item_map) @ (np.eye(2) @ user_map).T
        np.testing.assert_allclose(product, np.eye(2), atol=1e-12)

    def test_small_example_against_dense_svd_oracle(self):
        items = EmbeddingMatrix.of_items([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        users = EmbeddingMatrix.of_users([[1.0, 0.0], [0.0, 3.0]])
        score = items.vectors @ users.vectors.T
        oracle = np.linalg.svd(score, compute_uv=False)
        np.testing.assert_allclose(oracle, EXPECTED_SPECTRUM_3X2, rtol=1e-15)

        item_map, user_map, spectrum = low_rank_svd_trans(items, users)
        np.testing.assert_allclose(spectrum, EXPECTED_SPECTRUM_3X2, rtol=1e-12)
        rebuilt = (items.vectors @ item_map) @ (users.vectors @ user_map).T
        assert np.linalg.norm(rebuilt - score) < 1e-12

    def test_random_pair_product_and_spectrum(self):
        items, users = random_pair(50, 40, 8, seed=11)
        score = items.vectors @ users.vectors.T
        dense_top = np.linalg.svd(score, compute_uv=False)[:8]

        item_map, user_map, _ = low_rank_svd_trans(items, users)
        rebuilt = (items.vectors @ item_map) @ (users.vectors @ user_map).T
        assert rel_fro(rebuilt, score) < 1e-10
        gram = (items.vectors @ item_map).T @ (items.vectors @ item_map)
        np.testing.assert_allclose(np.diag(gram), dense_top, rtol=1e-8)

    def test_gram_diagonality_both_sides(self):
        items, users = random_pair(60, 45, 8, seed=5)
        item_map, user_map, spectrum = low_rank_svd_trans(items, users)
        gt = (items.vectors @ item_map).T @ (items.vectors @ item_map)
        gw = (users.vectors @ user_map).T @ (users.vectors @ user_map)
        tol = 1e-8 * spectrum[0]
        assert np.max(np.abs(gt - np.diag(np.diag(gt)))) < tol
        assert np.max(np.abs(gw - np.diag(np.diag(gw)))) < tol
        np.testing.assert_allclose(np.diag(gt), np.diag(gw), rtol=1e-8)
        np.testing.assert_allclose(np.diag(gt), spectrum, rtol=1e-8)

    def test_inverse_free_identity(self):
        # item_map built as R_W^T V S^{-1/2} must agree with the explicit
        # solve R_T^{-1} U S^{1/2}; the solve route exists only here.
        # Row signs of R and column signs of U may differ from the library's
        # conventions; the former cancel, the latter are matched per column.
        items, users = random_pair(50, 40, 8, seed=21)
        r_t = np.linalg.qr(items.vectors, mode="r")
        r_w = np.linalg.qr(users.vectors, mode="r")
        u, s, _ = np.linalg.svd(r_t @ r_w.T)
        alt = np.linalg.solve(r_t, u * np.sqrt(s))
        item_map, _, spectrum = low_rank_svd_trans(items, users)
        np.testing.assert_allclose(spectrum, s, rtol=1e-12)
        alt *= np.sign(np.sum(alt * item_map, axis=0))
        assert np.linalg.norm(item_map - alt) < 1e-8

    def test_deterministic(self):
        items, users = random_pair(30, 25, 4, seed=9)
        a = low_rank_svd_trans(items, users)
        b = low_rank_svd_trans(items, users)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rank", [6, 4])
    def test_returns_three_read_only_float64_arrays(self, dtype, rank):
        items, users = rank_r_pair(40, 30, 6, rank, seed=rank, dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankTruncationWarning)
            result = low_rank_svd_trans(items, users)
        assert type(result) is tuple and len(result) == 3
        item_map, user_map, spectrum = result
        assert item_map.shape == user_map.shape == (6, 6)
        assert spectrum.shape == (rank,)
        for arr in result:
            assert type(arr) is np.ndarray and arr.dtype == np.float64
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_spectrum_sorted_nonincreasing(self):
        items, users = random_pair(40, 30, 6, seed=2)
        _, _, spectrum = low_rank_svd_trans(items, users)
        assert np.all(np.diff(spectrum) <= 0)
        assert np.all(spectrum > 0)

    def test_role_mismatch(self):
        items, users = random_pair(10, 10, 2)
        with pytest.raises(RoleMismatch):
            low_rank_svd_trans(users, items)

    def test_width_mismatch_names_both(self):
        items = EmbeddingMatrix.of_items(np.ones((4, 3)))
        users = EmbeddingMatrix.of_users(np.ones((4, 2)))
        with pytest.raises(DimensionMismatch, match="3.*2"):
            low_rank_svd_trans(items, users)

    @pytest.mark.parametrize("rows, width, match", [(20, 0, "width"), (0, 3, "row")])
    def test_empty_side_rejected(self, rows, width, match):
        items = EmbeddingMatrix.of_items(np.empty((rows, width)))
        users = EmbeddingMatrix.of_users(np.empty((rows, width)))
        with pytest.raises(DimensionMismatch, match=match):
            low_rank_svd_trans(items, users)

    def test_rank_deficient_truncate(self):
        vecs = np.random.default_rng(0).standard_normal((20, 3))
        vecs[:, 2] = vecs[:, 0]  # duplicated column: rank 2 of 3
        items = EmbeddingMatrix.of_items(vecs)
        users = EmbeddingMatrix.of_users(np.random.default_rng(1).standard_normal((15, 3)))
        with pytest.warns(RankTruncationWarning):
            item_map, user_map, spectrum = low_rank_svd_trans(items, users)
        assert spectrum.size == 2
        # The maps keep the input width; the dead direction is a +0.0 column.
        for m in (item_map, user_map):
            assert m.shape == (3, 3)
            assert np.array_equal(m[:, 2], np.zeros(3))
            assert not np.any(np.signbit(m[:, 2]))
        score = items.vectors @ users.vectors.T
        rebuilt = (items.vectors @ item_map) @ (users.vectors @ user_map).T
        assert rel_fro(rebuilt, score) < 1e-10

    # A float64 rank-r pair cast to float32 keeps about 1e-8 of s_1 in each
    # dead direction: rounding, which the e * eps(float32) cut drops.
    @pytest.mark.parametrize("dim, rank", [(8, 5), (64, 40), (128, 100)])
    def test_float32_rank_deficient_truncate(self, dim, rank):
        items64, users64 = rank_r_pair(3 * dim, 2 * dim + 10, dim, rank, seed=dim)
        items, users = items64.astype(np.float32), users64.astype(np.float32)
        with pytest.warns(RankTruncationWarning, match=f"effective rank {rank}"):
            item_map, user_map, spectrum = low_rank_svd_trans(items, users)
        assert spectrum.size == rank
        t = items.vectors.astype(np.float64)
        w = users.vectors.astype(np.float64)
        assert rel_fro((t @ item_map) @ (w @ user_map).T, t @ w.T) <= 1e-6
        with pytest.warns(RankTruncationWarning):
            item_map64, _, spectrum64 = low_rank_svd_trans(items64, users64)
        assert spectrum64.size == rank
        np.testing.assert_allclose(
            np.abs(item_map).max(), np.abs(item_map64).max(), rtol=1e-3
        )

    @pytest.mark.parametrize("dim", [8, 64, 128])
    def test_float64_cut_stays_at_the_fixed_floor(self, dim):
        # Singular values from 1 down to 1e-10: all above 1e-12, so float64
        # keeps every direction, although 1e-10 is far below e * eps(float32).
        gen = np.random.default_rng(dim)
        q_items = np.linalg.qr(gen.standard_normal((3 * dim, dim)))[0]
        q_users = np.linalg.qr(gen.standard_normal((2 * dim, dim)))[0]
        planted = np.geomspace(1.0, 1e-10, dim)
        items = EmbeddingMatrix.of_items(q_items * planted)
        users = EmbeddingMatrix.of_users(q_users)
        _, _, spectrum = low_rank_svd_trans(items, users)
        assert spectrum.size == dim
        np.testing.assert_allclose(spectrum, planted, rtol=1e-4)

    def test_zero_matrix_rank_deficient_even_truncating(self):
        items = EmbeddingMatrix.of_items(np.zeros((5, 2)))
        users = EmbeddingMatrix.of_users(np.ones((5, 2)))
        with pytest.raises(RankDeficient):
            low_rank_svd_trans(items, users)

    def test_fewer_rows_than_width(self):
        # 3 rows of width 5 cap the rank at 3: a rank-3 map, with the
        # product still preserved.
        items = EmbeddingMatrix.of_items(np.random.default_rng(0).standard_normal((3, 5)))
        users = EmbeddingMatrix.of_users(np.random.default_rng(1).standard_normal((10, 5)))
        with pytest.warns(RankTruncationWarning):
            item_map, user_map, spectrum = low_rank_svd_trans(items, users)
        assert spectrum.size == 3
        score = items.vectors @ users.vectors.T
        rebuilt = (items.vectors @ item_map) @ (users.vectors @ user_map).T
        assert rel_fro(rebuilt, score) < 1e-10

    @pytest.mark.parametrize("dim", [2, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spectral_equivalence_small_instances(self, dim, seed):
        gen = np.random.default_rng(seed)
        n, m = int(gen.integers(dim, 200)), int(gen.integers(dim, 200))
        items, users = random_pair(n, m, dim, seed=seed + 100)
        _, _, spectrum = low_rank_svd_trans(items, users)
        dense = np.linalg.svd(items.vectors @ users.vectors.T, compute_uv=False)[:dim]
        np.testing.assert_allclose(spectrum, dense, rtol=1e-8)


def signed_one_shot_r(a):
    """Oracle for lowrank._r_factor: LAPACK's R of all rows at once, in
    float64, with each row's sign flipped to make the diagonal nonnegative."""
    r = np.linalg.qr(np.asarray(a, dtype=np.float64), mode="r")
    return np.where(np.diag(r) < 0, -1.0, 1.0)[:, None] * r


def check_r_factor(r, a):
    """R is upper-triangular with a nonnegative diagonal, has the shape of
    the thin QR's R, and has the Gram matrix and singular values of a."""
    a = np.asarray(a, dtype=np.float64)
    assert r.dtype == np.float64
    assert r.shape == (min(a.shape), a.shape[1])
    assert np.array_equal(np.triu(r), r)
    assert np.all(np.diag(r) >= 0)
    scale = max(np.linalg.norm(a) ** 2, 1e-300)
    assert np.linalg.norm(r.T @ r - a.T @ a) <= 1e-13 * scale
    sv = np.linalg.svd(r, compute_uv=False)
    sv_oracle = np.linalg.svd(signed_one_shot_r(a), compute_uv=False)
    assert np.allclose(sv, sv_oracle, rtol=0, atol=1e-13 * max(sv_oracle[0], 1e-300))


class TestRFactor:
    # With 8-row blocks, a few dozen rows take several passes of the tree.
    @given(
        e=st.integers(min_value=1, max_value=6),
        blocks=st.integers(min_value=0, max_value=12),
        offset=st.integers(min_value=-2, max_value=2),
        f32=st.booleans(),
        rank_drop=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=200, deadline=None)
    def test_tree_matches_one_shot_qr(self, e, blocks, offset, f32, rank_drop):
        block = max(8, 2 * e)
        n = max(1, blocks * block + offset)
        rank = max(0, min(n, e) - rank_drop)
        gen = np.random.default_rng([e, n, rank])
        # Exact rank `rank`: every column a combination of `rank` columns.
        a = gen.standard_normal((n, rank)) @ gen.standard_normal((rank, e))
        a = a.astype(np.float32 if f32 else np.float64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lowrank, "QR_BLOCK_ROWS", 8)
            r = lowrank._r_factor(a)
        check_r_factor(r, a)
        if rank == e:
            # Unique for full column rank; rounding grows with the condition.
            oracle = signed_one_shot_r(a)
            assert rel_fro(r, oracle) <= 1e-14 * np.linalg.cond(oracle)

    @pytest.mark.parametrize("f32", [False, True])
    @pytest.mark.parametrize("n, e", [(1, 3), (5, 5), (700, 64), (1024, 16), (1024, 512)])
    def test_one_block_is_the_one_shot_qr_bit_for_bit(self, n, e, f32):
        a = np.random.default_rng([n, e]).standard_normal((n, e))
        a = a.astype(np.float32 if f32 else np.float64)
        assert n <= lowrank.QR_BLOCK_ROWS
        assert np.array_equal(lowrank._r_factor(a), signed_one_shot_r(a))

    @pytest.mark.parametrize("block_rows", [1, 2, 4])
    def test_block_below_twice_the_width_still_ends(self, block_rows):
        # Blocks of fewer than 2e rows would not shrink the matrix; the
        # block is raised to 2e, so the tree ends. Counting the QR calls
        # turns an endless loop into a failure.
        a = np.random.default_rng(block_rows).standard_normal((300, 5))
        one_shot_qr = np.linalg.qr
        calls = []

        def counted_qr(*args, **kwargs):
            calls.append(1)
            assert len(calls) < 1000, "R-factor tree does not shrink"
            return one_shot_qr(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lowrank, "QR_BLOCK_ROWS", block_rows)
            mp.setattr(np.linalg, "qr", counted_qr)
            r = lowrank._r_factor(a)
        check_r_factor(r, a)
        assert rel_fro(r, signed_one_shot_r(a)) < 1e-13

    def test_truncate_over_several_blocks(self, monkeypatch):
        # The rank cut sees an exact rank deficiency through the tree.
        monkeypatch.setattr(lowrank, "QR_BLOCK_ROWS", 8)
        vecs = np.random.default_rng(0).standard_normal((100, 3))
        vecs[:, 2] = vecs[:, 0] - vecs[:, 1]  # rank 2 of 3
        items = EmbeddingMatrix.of_items(vecs)
        users = EmbeddingMatrix.of_users(np.random.default_rng(1).standard_normal((90, 3)))
        with pytest.warns(RankTruncationWarning):
            item_map, user_map, spectrum = low_rank_svd_trans(items, users)
        assert spectrum.size == 2
        score = items.vectors @ users.vectors.T
        rebuilt = (items.vectors @ item_map) @ (users.vectors @ user_map).T
        assert rel_fro(rebuilt, score) < 1e-10
        dense = np.linalg.svd(score, compute_uv=False)[:2]
        np.testing.assert_allclose(spectrum, dense, rtol=1e-10)


class TestApplyTransform:
    def test_identity_is_noop(self):
        items, _ = random_pair(20, 5, 4, seed=7)
        out = apply_transform(items, np.eye(4))
        assert np.array_equal(out.vectors, items.vectors)
        assert np.array_equal(out.ids, items.ids)
        assert out.role is items.role

    def test_permutation_row(self):
        emb = EmbeddingMatrix.of_users([[1.0, 2.0]])
        out = apply_transform(emb, np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(out.vectors, [[2.0, 1.0]])

    def test_gram_diagonal_after_svd_map(self):
        items, users = random_pair(50, 40, 8, seed=3)
        item_map, _, spectrum = low_rank_svd_trans(items, users)
        out = apply_transform(items, item_map)
        gram = out.vectors.T @ out.vectors
        assert np.max(np.abs(gram - np.diag(np.diag(gram)))) < 1e-8 * spectrum[0]

    def test_dimension_mismatch(self):
        items, _ = random_pair(5, 5, 3)
        with pytest.raises(DimensionMismatch):
            apply_transform(items, np.eye(4))

    def test_float32_dtype_preserved(self):
        emb = EmbeddingMatrix.of_items(np.ones((3, 2), dtype=np.float32))
        out = apply_transform(emb, np.eye(2))
        assert out.vectors.dtype == np.float32


def ascending_k_loop(rows, m):
    """Oracle for rowwise_matmul: the explicit float64 loop over k, ascending."""
    rows = np.asarray(rows, dtype=np.float64)
    out = np.zeros((rows.shape[0], m.shape[1]))
    for k in range(m.shape[0]):
        out += rows[:, k, None] * m[k, None, :]
    return out


class TestRowwiseMatmul:
    # Pins the kernel's accumulation order: stored bytes and the CLI's
    # streamed output depend on it, so a numpy change that reorders einsum's
    # reduction must fail here. The examples are the shapes on which a
    # row-major einsum (rows by columns) differs from the loop: one output
    # column, Fortran m.
    @given(
        e=st.integers(min_value=1, max_value=128),
        out_dim=st.sampled_from(["1", "2", "e-1", "e"]),
        n=st.integers(min_value=1, max_value=200),
        f32=st.booleans(),
        fortran=st.booleans(),
        records=st.booleans(),
        cuts=st.lists(st.integers(min_value=1, max_value=199), max_size=8),
    )
    @example(e=8, out_dim="1", n=5, f32=False, fortran=False, records=False, cuts=[1, 2, 3, 4])
    @example(e=6, out_dim="e", n=16, f32=True, fortran=True, records=False, cuts=[3, 11])
    @settings(max_examples=150, deadline=None)
    def test_bit_equal_to_loop_under_any_partition(
        self, e, out_dim, n, f32, fortran, records, cuts
    ):
        e_out = max(1, {"1": 1, "2": 2, "e-1": e - 1, "e": e}[out_dim])
        gen = np.random.default_rng([e, e_out, n])
        m = np.asarray(gen.standard_normal((e, e_out)), order="F" if fortran else "C")
        rows = gen.standard_normal((n, e)).astype(np.float32 if f32 else np.float64)
        if records:
            # Strided field views, as open_embeddings chunks yield them.
            rec = np.zeros(n, dtype=[("id", "<u8"), ("vec", rows.dtype, (e,))])
            rec["vec"] = rows
            rows = rec["vec"]
        whole = rowwise_matmul(rows, m)
        assert np.array_equal(whole, ascending_k_loop(rows, m))

        bounds = [0, *sorted({c for c in cuts if c < n}), n]
        parts = [rowwise_matmul(rows[a:b], m) for a, b in zip(bounds, bounds[1:])]
        assert np.array_equal(np.concatenate(parts), whole)

    # Long inputs, whose parts each run many tiles.
    @given(
        n=st.sampled_from([d + c * 4096 for c in (1, 2) for d in (-1, 0, 1)]),
        e=st.integers(min_value=1, max_value=70),
        e_out=st.integers(min_value=1, max_value=70),
        f32=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_bits_on_one_and_two_lanes(self, n, e, e_out, f32):
        gen = np.random.default_rng([n, e, e_out])
        m = gen.standard_normal((e, e_out))
        rows = gen.standard_normal((n, e)).astype(np.float32 if f32 else np.float64)
        outs = []
        for lanes in (1, 2):
            with mock.patch.object(lowrank, "LANES", lanes):
                outs.append(rowwise_matmul(rows, m))
        assert outs[0].tobytes() == outs[1].tobytes()
        assert outs[1].tobytes() == ascending_k_loop(rows, m).tobytes()

    # Row counts at tile boundaries, one output column, and rows read from and
    # written straight into the strided `vec` fields of .emb records, as
    # `apply` does. Two lanes split every input of two or more rows, so
    # each part starts its tiles part-way through.
    @given(
        n=st.sampled_from(
            [1, *(d + c * lowrank.TILE_ROWS for c in (1, 2) for d in (-1, 0, 1))]
        ),
        e=st.integers(min_value=1, max_value=70),
        e_out=st.one_of(st.just(1), st.integers(min_value=1, max_value=70)),
        f32=st.booleans(),
        lanes=st.sampled_from([1, 2]),
    )
    @settings(max_examples=80, deadline=None)
    def test_into_record_fields_at_tile_boundaries(self, n, e, e_out, f32, lanes):
        dtype = np.float32 if f32 else np.float64
        gen = np.random.default_rng([n, e, e_out, lanes])
        m = gen.standard_normal((e, e_out))
        src = np.zeros(n, dtype=[("id", "<u8"), ("vec", dtype, (e,))])
        src["vec"] = gen.standard_normal((n, e))
        dst = np.zeros(n, dtype=[("id", "<u8"), ("vec", dtype, (e_out,))])
        dst["id"] = np.arange(n) + 7
        with mock.patch.object(lowrank, "LANES", lanes):
            rowwise_matmul(src["vec"], m, dst["vec"])
        expected = ascending_k_loop(src["vec"], m).astype(dtype)
        assert np.ascontiguousarray(dst["vec"]).tobytes() == expected.tobytes()
        assert np.array_equal(dst["id"], np.arange(n) + 7)


def _counting_threads(monkeypatch) -> list:
    """Patch threading.Thread to record every thread created."""
    made = []
    real = threading.Thread

    def counted(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(threading, "Thread", counted)
    return made


class TestLanes:
    def test_cpu_count_without_sched_getaffinity(self, monkeypatch):
        # Not every platform has sched_getaffinity (macOS, Windows).
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert lowrank._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert lowrank._usable_cpus() == 1

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_results_in_piece_order(self, monkeypatch, lanes):
        monkeypatch.setattr(lowrank, "LANES", lanes)

        def slow_evens(i):
            # Even pieces finish late, so the odd lane runs ahead.
            time.sleep(0.002 * (i % 2 == 0))
            return i * i

        assert lowrank._in_lanes(slow_evens, range(11)) == [i * i for i in range(11)]
        assert lowrank._in_lanes(slow_evens, []) == []

    def test_lowest_failure_raised_when_a_later_one_fails_first(self, monkeypatch):
        monkeypatch.setattr(lowrank, "LANES", 2)
        later_failed = threading.Event()
        ran = []

        def piece(i):
            ran.append(i)
            if i == 0:  # the caller: fails only once piece 1 has failed
                assert later_failed.wait(timeout=10)
                raise ValueError("piece 0")
            if i == 1:  # the helper
                later_failed.set()
                raise ValueError("piece 1")
            return i

        with pytest.raises(ValueError, match="piece 0"):
            lowrank._in_lanes(piece, range(8))
        # No piece starts after the failed pair.
        assert sorted(ran) == [0, 1]

    def test_a_failure_stops_the_other_lane(self, monkeypatch):
        made = _counting_threads(monkeypatch)
        monkeypatch.setattr(lowrank, "LANES", 2)
        ran = []

        def piece(i):
            ran.append(i)
            if i == 0:  # lane 0 goes on only once lane 1 has failed and ended
                made[0].join(timeout=10)
                assert not made[0].is_alive()
            if i == 1:
                raise ValueError("piece 1")
            return i

        with pytest.raises(ValueError, match="piece 1"):
            lowrank._in_lanes(piece, range(6))
        assert sorted(ran) == [0, 1]

    def test_lower_failure_on_lane_zero_wins(self, monkeypatch):
        monkeypatch.setattr(lowrank, "LANES", 2)

        def piece(i):
            if i in (2, 5):
                raise KeyError(i)
            return i

        with pytest.raises(KeyError) as raised:
            lowrank._in_lanes(piece, range(8))
        assert raised.value.args == (2,)

    def test_more_lanes_than_cores_under_fast_switching(self, monkeypatch):
        # The caller and the helper share the result list, one slot per
        # writer; a lost or misplaced write would show here.
        monkeypatch.setattr(lowrank, "LANES", 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for fail in (None, 997, 3, 0):
                def piece(i):
                    if fail is not None and i >= fail and i % 7 == fail % 7:
                        raise IndexError(i)
                    return [i] * (i % 5)

                if fail is None:
                    want = [[i] * (i % 5) for i in range(2000)]
                    assert lowrank._in_lanes(piece, range(2000)) == want
                else:
                    with pytest.raises(IndexError) as raised:
                        lowrank._in_lanes(piece, range(2000))
                    assert raised.value.args == (fail,)
        finally:
            sys.setswitchinterval(interval)

    @given(
        n=st.integers(min_value=0, max_value=40),
        failing=st.sets(st.integers(min_value=0, max_value=40)),
        slow=st.sets(st.integers(min_value=0, max_value=40)),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_outcome_as_a_plain_loop(self, n, failing, slow):
        started = []

        def piece(i):
            started.append(i)
            if i in slow:  # lets either side of a pair finish first
                time.sleep(0.0002)
            if i in failing:
                raise KeyError(i)
            return [i] * (i % 3)

        threads = set(threading.enumerate())
        lowest = min((i for i in failing if i < n), default=None)
        with mock.patch.object(lowrank, "LANES", 2):
            if lowest is None:
                assert lowrank._in_lanes(piece, range(n)) == [[i] * (i % 3) for i in range(n)]
                assert sorted(started) == list(range(n))
            else:
                with pytest.raises(KeyError) as raised:
                    lowrank._in_lanes(piece, range(n))
                assert raised.value.args == (lowest,)
                # Every piece up to the failure runs, and at most its pair
                # partner past it.
                assert set(range(lowest + 1)) <= set(started) <= set(range(lowest + 2))
                assert len(started) == len(set(started))
        assert set(threading.enumerate()) == threads

    def test_one_lane_starts_no_thread(self, monkeypatch):
        made = _counting_threads(monkeypatch)
        rows = np.ones((3 * lowrank.TILE_ROWS, 4))
        monkeypatch.setattr(lowrank, "LANES", 2)
        rowwise_matmul(rows, np.eye(4))
        assert len(made) == 1 and not made[0].is_alive()
        made.clear()
        monkeypatch.setattr(lowrank, "LANES", 1)
        assert lowrank._in_lanes(lambda i: i, range(5)) == list(range(5))
        assert np.array_equal(rowwise_matmul(rows, np.eye(4)), rows)
        assert made == []

    def test_short_input_same_bytes_on_one_and_two_lanes(self, monkeypatch):
        for n in (0, 1, 2, 3, 5):
            gen = np.random.default_rng(n)
            rows, m = gen.standard_normal((n, 3)), gen.standard_normal((3, 2))
            outs = []
            for lanes in (1, 2):
                monkeypatch.setattr(lowrank, "LANES", lanes)
                outs.append(rowwise_matmul(rows, m).tobytes())
            assert outs[0] == outs[1] == ascending_k_loop(rows, m).tobytes(), n

    # Every row count from none to past three tiles, at one lane and two.
    @given(
        n=st.integers(min_value=0, max_value=3 * lowrank.TILE_ROWS + 1),
        e=st.integers(min_value=1, max_value=16),
        e_out=st.integers(min_value=1, max_value=16),
        lanes=st.sampled_from([1, 2]),
    )
    @example(n=2, e=3, e_out=1, lanes=2)
    @settings(max_examples=100, deadline=None)
    def test_one_rule_for_every_row_count(self, n, e, e_out, lanes):
        gen = np.random.default_rng([n, e, e_out])
        rows, m = gen.standard_normal((n, e)), gen.standard_normal((e, e_out))
        threads = set(threading.enumerate())
        with pytest.MonkeyPatch.context() as patch:
            made = _counting_threads(patch)
            patch.setattr(lowrank, "LANES", lanes)
            out = rowwise_matmul(rows, m)
        assert out.tobytes() == ascending_k_loop(rows, m).tobytes()
        # One helper, for the second of two parts: two lanes split every
        # input of two or more rows.
        assert len(made) == (1 if lanes == 2 and n >= 2 else 0)
        assert not any(thread.is_alive() for thread in made)
        assert set(threading.enumerate()) == threads
