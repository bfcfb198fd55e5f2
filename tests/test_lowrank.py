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
from conftest import random_pair, rel_fro


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


# Frozen from a dense SVD of the materialized 3x2 product
# X = T W^T = [[2, 0], [0, 3], [1, 3]].
EXPECTED_SPECTRUM_3X2 = np.array([4.319596107466319, 2.0835281299665294])


class TestLowRankSvdTrans:
    def test_identity_score_matrix(self):
        items = EmbeddingMatrix.of_items(np.eye(2))
        users = EmbeddingMatrix.of_users(np.eye(2))
        tr = low_rank_svd_trans(items, users)
        np.testing.assert_allclose(tr.spectrum, [1.0, 1.0], atol=1e-12)
        # The maps are not unique under a degenerate spectrum; check the
        # product and Gram contracts instead of the matrix entries.
        product = (np.eye(2) @ tr.item_map) @ (np.eye(2) @ tr.user_map).T
        np.testing.assert_allclose(product, np.eye(2), atol=1e-12)

    def test_small_example_against_dense_svd_oracle(self):
        items = EmbeddingMatrix.of_items([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        users = EmbeddingMatrix.of_users([[1.0, 0.0], [0.0, 3.0]])
        score = items.vectors @ users.vectors.T
        oracle = np.linalg.svd(score, compute_uv=False)
        np.testing.assert_allclose(oracle, EXPECTED_SPECTRUM_3X2, rtol=1e-15)

        tr = low_rank_svd_trans(items, users)
        np.testing.assert_allclose(tr.spectrum, EXPECTED_SPECTRUM_3X2, rtol=1e-12)
        rebuilt = (items.vectors @ tr.item_map) @ (users.vectors @ tr.user_map).T
        assert np.linalg.norm(rebuilt - score) < 1e-12

    def test_random_pair_product_and_spectrum(self):
        items, users = random_pair(50, 40, 8, seed=11)
        score = items.vectors @ users.vectors.T
        dense_top = np.linalg.svd(score, compute_uv=False)[:8]

        tr = low_rank_svd_trans(items, users)
        rebuilt = (items.vectors @ tr.item_map) @ (users.vectors @ tr.user_map).T
        assert rel_fro(rebuilt, score) < 1e-10
        gram = (items.vectors @ tr.item_map).T @ (items.vectors @ tr.item_map)
        np.testing.assert_allclose(np.diag(gram), dense_top, rtol=1e-8)

    def test_gram_diagonality_both_sides(self):
        items, users = random_pair(60, 45, 8, seed=5)
        tr = low_rank_svd_trans(items, users)
        gt = (items.vectors @ tr.item_map).T @ (items.vectors @ tr.item_map)
        gw = (users.vectors @ tr.user_map).T @ (users.vectors @ tr.user_map)
        tol = 1e-8 * tr.spectrum[0]
        assert np.max(np.abs(gt - np.diag(np.diag(gt)))) < tol
        assert np.max(np.abs(gw - np.diag(np.diag(gw)))) < tol
        np.testing.assert_allclose(np.diag(gt), np.diag(gw), rtol=1e-8)
        np.testing.assert_allclose(np.diag(gt), tr.spectrum, rtol=1e-8)

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
        tr = low_rank_svd_trans(items, users)
        np.testing.assert_allclose(tr.spectrum, s, rtol=1e-12)
        alt *= np.sign(np.sum(alt * tr.item_map, axis=0))
        assert np.linalg.norm(tr.item_map - alt) < 1e-8

    def test_deterministic(self):
        items, users = random_pair(30, 25, 4, seed=9)
        a = low_rank_svd_trans(items, users)
        b = low_rank_svd_trans(items, users)
        assert np.array_equal(a.item_map, b.item_map)
        assert np.array_equal(a.user_map, b.user_map)
        assert np.array_equal(a.spectrum, b.spectrum)

    def test_spectrum_sorted_nonincreasing(self):
        items, users = random_pair(40, 30, 6, seed=2)
        tr = low_rank_svd_trans(items, users)
        assert np.all(np.diff(tr.spectrum) <= 0)
        assert np.all(tr.spectrum > 0)

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

    def test_rank_deficient_strict(self):
        vecs = np.random.default_rng(0).standard_normal((20, 3))
        vecs[:, 2] = vecs[:, 0]  # duplicated column: rank 2 of 3
        items = EmbeddingMatrix.of_items(vecs)
        users = EmbeddingMatrix.of_users(np.random.default_rng(1).standard_normal((15, 3)))
        with pytest.raises(RankDeficient):
            low_rank_svd_trans(items, users)

    def test_rank_deficient_truncate(self):
        vecs = np.random.default_rng(0).standard_normal((20, 3))
        vecs[:, 2] = vecs[:, 0]
        items = EmbeddingMatrix.of_items(vecs)
        users = EmbeddingMatrix.of_users(np.random.default_rng(1).standard_normal((15, 3)))
        with pytest.warns(RankTruncationWarning):
            tr = low_rank_svd_trans(items, users, rank_policy="truncate")
        assert tr.spectrum.size == 2
        # The maps keep the input width; the dead direction is a +0.0 column.
        for m in (tr.item_map, tr.user_map):
            assert m.shape == (3, 3)
            assert np.array_equal(m[:, 2], np.zeros(3))
            assert not np.any(np.signbit(m[:, 2]))
        score = items.vectors @ users.vectors.T
        rebuilt = (items.vectors @ tr.item_map) @ (users.vectors @ tr.user_map).T
        assert rel_fro(rebuilt, score) < 1e-10

    def test_zero_matrix_rank_deficient_even_truncating(self):
        items = EmbeddingMatrix.of_items(np.zeros((5, 2)))
        users = EmbeddingMatrix.of_users(np.ones((5, 2)))
        with pytest.raises(RankDeficient):
            low_rank_svd_trans(items, users, rank_policy="truncate")

    def test_fewer_rows_than_width(self):
        # 3 rows of width 5 cap the rank at 3: an error under strict, a
        # rank-3 map under truncate, with the product still preserved.
        items = EmbeddingMatrix.of_items(np.random.default_rng(0).standard_normal((3, 5)))
        users = EmbeddingMatrix.of_users(np.random.default_rng(1).standard_normal((10, 5)))
        with pytest.raises(RankDeficient):
            low_rank_svd_trans(items, users)
        with pytest.warns(RankTruncationWarning):
            tr = low_rank_svd_trans(items, users, rank_policy="truncate")
        assert tr.spectrum.size == 3
        score = items.vectors @ users.vectors.T
        rebuilt = (items.vectors @ tr.item_map) @ (users.vectors @ tr.user_map).T
        assert rel_fro(rebuilt, score) < 1e-10

    def test_unknown_policy(self):
        items, users = random_pair(10, 10, 2)
        with pytest.raises(ValueError):
            low_rank_svd_trans(items, users, rank_policy="pad")

    @pytest.mark.parametrize("dim", [2, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spectral_equivalence_small_instances(self, dim, seed):
        gen = np.random.default_rng(seed)
        n, m = int(gen.integers(dim, 200)), int(gen.integers(dim, 200))
        items, users = random_pair(n, m, dim, seed=seed + 100)
        tr = low_rank_svd_trans(items, users)
        dense = np.linalg.svd(items.vectors @ users.vectors.T, compute_uv=False)[:dim]
        np.testing.assert_allclose(tr.spectrum, dense, rtol=1e-8)


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
        # The truncate policy sees an exact rank deficiency through the tree.
        monkeypatch.setattr(lowrank, "QR_BLOCK_ROWS", 8)
        vecs = np.random.default_rng(0).standard_normal((100, 3))
        vecs[:, 2] = vecs[:, 0] - vecs[:, 1]  # rank 2 of 3
        items = EmbeddingMatrix.of_items(vecs)
        users = EmbeddingMatrix.of_users(np.random.default_rng(1).standard_normal((90, 3)))
        with pytest.raises(RankDeficient):
            low_rank_svd_trans(items, users)
        with pytest.warns(RankTruncationWarning):
            tr = low_rank_svd_trans(items, users, rank_policy="truncate")
        assert tr.spectrum.size == 2
        score = items.vectors @ users.vectors.T
        rebuilt = (items.vectors @ tr.item_map) @ (users.vectors @ tr.user_map).T
        assert rel_fro(rebuilt, score) < 1e-10
        dense = np.linalg.svd(score, compute_uv=False)[:2]
        np.testing.assert_allclose(tr.spectrum, dense, rtol=1e-10)


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
        tr = low_rank_svd_trans(items, users)
        out = apply_transform(items, tr.item_map)
        gram = out.vectors.T @ out.vectors
        assert np.max(np.abs(gram - np.diag(np.diag(gram)))) < 1e-8 * tr.spectrum[0]

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
    # reduction must fail here. The examples are the shapes on which the
    # unpadded einsum differs from the loop: one output column, Fortran m.
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
