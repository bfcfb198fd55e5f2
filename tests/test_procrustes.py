import warnings

import numpy as np
import pytest
import scipy.linalg

from embstab import AlignmentMap, ortho_procrustes
from embstab.errors import DegenerateAlignmentWarning, DimensionMismatch, NonFinite
from conftest import random_orthogonal


def residual(a, r, b):
    return np.linalg.norm(a @ r - b)


class TestOrthoProcrustes:
    def test_self_alignment_is_identity(self):
        a = np.random.default_rng(0).standard_normal((30, 6))
        amap = ortho_procrustes(a, a)
        assert np.linalg.norm(amap.matrix - np.eye(6)) < 1e-12

    def test_planted_quarter_turn(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        g = np.array([[0.0, -1.0], [1.0, 0.0]])
        amap = ortho_procrustes(a, a @ g)
        assert np.linalg.norm(amap.matrix - g) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_planted_random_orthogonal_recovered(self, seed):
        gen = np.random.default_rng(seed)
        a = gen.standard_normal((30, 8))
        g = random_orthogonal(8, seed=seed + 500)
        amap = ortho_procrustes(a, a @ g)
        assert np.linalg.norm(amap.matrix - g) < 1e-10

    def test_orthogonality_invariant(self):
        gen = np.random.default_rng(42)
        for _ in range(20):
            a = gen.standard_normal((25, 5))
            b = gen.standard_normal((25, 5))
            amap = ortho_procrustes(a, b)
            assert np.linalg.norm(amap.matrix.T @ amap.matrix - np.eye(5)) <= 1e-12 * 5

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_optimality_against_random_and_local_perturbations(self, dim):
        gen = np.random.default_rng(dim)
        a = gen.standard_normal((20, dim))
        b = a @ random_orthogonal(dim, seed=dim) + 0.1 * gen.standard_normal((20, dim))
        amap = ortho_procrustes(a, b)
        best = residual(a, amap.matrix, b)
        for k in range(1000):
            omega = random_orthogonal(dim, seed=10_000 * dim + k)
            assert best <= residual(a, omega, b) + 1e-9
        # First-order stationarity: orthogonal moves r exp(eps K) along any
        # skew direction K cannot beat the solution.
        for k in range(50):
            skew = gen.standard_normal((dim, dim))
            skew = skew - skew.T
            omega = amap.matrix @ scipy.linalg.expm(1e-3 * skew)
            assert best <= residual(a, omega, b) + 1e-9

    def test_equivariance_under_common_rotation(self):
        gen = np.random.default_rng(7)
        a = gen.standard_normal((30, 6))
        b = gen.standard_normal((30, 6))
        q = random_orthogonal(6, seed=77)
        r = ortho_procrustes(a, b).matrix
        r_rotated = ortho_procrustes(a @ q, b @ q).matrix
        assert np.linalg.norm(r_rotated - q.T @ r @ q) < 1e-10

    def test_residual_invariant_under_common_rotation(self):
        gen = np.random.default_rng(8)
        a = gen.standard_normal((25, 5))
        b = gen.standard_normal((25, 5))
        q = random_orthogonal(5, seed=88)
        r1 = ortho_procrustes(a, b)
        r2 = ortho_procrustes(a @ q, b @ q)
        assert np.isclose(
            residual(a, r1.matrix, b), residual(a @ q, r2.matrix, b @ q), rtol=1e-12
        )

    def test_continuity_under_small_perturbations(self):
        # Bounded sensitivity: moving a by ||delta|| <= 1e-8 ||a|| moves the
        # solution by at most a modest multiple of the relative perturbation.
        # The observed ratio tops out near 1 on full-rank instances; 50 is a
        # generous ceiling that still catches discontinuous behavior.
        for seed in range(30):
            gen = np.random.default_rng(seed)
            a = gen.standard_normal((30, 6))
            b = a @ random_orthogonal(6, seed=seed) + 0.05 * gen.standard_normal((30, 6))
            r = ortho_procrustes(a, b).matrix
            delta = gen.standard_normal((30, 6))
            delta *= 1e-8 * np.linalg.norm(a) / np.linalg.norm(delta)
            r_moved = ortho_procrustes(a + delta, b).matrix
            ratio = np.linalg.norm(r_moved - r) / (np.linalg.norm(delta) / np.linalg.norm(a))
            assert ratio < 50.0

    def test_dot_products_preserved_when_applied_to_both_sides(self):
        gen = np.random.default_rng(9)
        t = gen.standard_normal((40, 6))
        w = gen.standard_normal((30, 6))
        r = ortho_procrustes(t, gen.standard_normal((40, 6))).matrix
        score = t @ w.T
        assert np.linalg.norm((t @ r) @ (w @ r).T - score) < 1e-12 * np.linalg.norm(score)

    def test_degenerate_cross_covariance_warns_but_solves(self):
        a = np.random.default_rng(1).standard_normal((20, 4))
        a[:, 3] = 0.0  # kills one direction of b^T a
        b = np.random.default_rng(2).standard_normal((20, 4))
        with pytest.warns(DegenerateAlignmentWarning):
            amap = ortho_procrustes(a, b)
        assert np.linalg.norm(amap.matrix.T @ amap.matrix - np.eye(4)) <= 1e-12 * 4

    @pytest.mark.parametrize(
        "last, degenerate", [(0.999e-12, True), (1e-12, True), (1.001e-12, False)]
    )
    def test_degenerate_at_the_truncation_threshold(self, last, degenerate):
        # The score space's truncation rule: at e = 8 in float64, a singular
        # value at or below 1e-12 of the largest is dead.
        spectrum = np.ones(8)
        spectrum[-1] = last
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ortho_procrustes(np.eye(8), np.diag(spectrum))
        assert [w.category for w in caught] == [DegenerateAlignmentWarning] * degenerate

    def test_rectangular_source_into_larger_target(self):
        # Every map is e x e, so a narrower source never aligns into a wider
        # target: a truncated run keeps its width and zeroes columns instead.
        gen = np.random.default_rng(5)
        a = gen.standard_normal((40, 5))
        inject = np.zeros((5, 8))
        inject[:, :5] = np.eye(5)
        b = a @ inject @ random_orthogonal(8, seed=55)
        with pytest.raises(DimensionMismatch):
            ortho_procrustes(a, b)

    def test_row_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ortho_procrustes(np.ones((3, 2)), np.ones((4, 2)))

    def test_source_wider_than_target(self):
        with pytest.raises(DimensionMismatch):
            ortho_procrustes(np.ones((3, 4)), np.ones((3, 2)))

    def test_nonfinite(self):
        with pytest.raises(NonFinite):
            ortho_procrustes(np.array([[np.nan, 1.0]]), np.ones((1, 2)))


class TestAlignmentMap:
    def test_reflection_detected_and_allowed(self):
        reflect = np.diag([1.0, -1.0])
        amap = AlignmentMap(matrix=reflect)
        assert amap.is_reflection

    def test_rotation_not_reflection(self):
        amap = AlignmentMap(matrix=np.eye(3))
        assert not amap.is_reflection

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            AlignmentMap(matrix=np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_rejects_non_square(self):
        # Orthonormal rows, but not e x e: no such map exists any more.
        with pytest.raises(DimensionMismatch):
            AlignmentMap(matrix=np.eye(3)[:2])

    def test_matrix_read_only(self):
        amap = AlignmentMap(matrix=np.eye(2))
        with pytest.raises(ValueError):
            amap.matrix[0, 0] = 5.0
