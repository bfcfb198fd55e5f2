import warnings

import numpy as np
import pytest
import scipy.linalg

from embstab import ortho_procrustes
from embstab.errors import DegenerateAlignmentWarning, DimensionMismatch, NonFinite
from conftest import random_orthogonal


def residual(a, r, b):
    return np.linalg.norm(a @ r - b)


class TestOrthoProcrustes:
    def test_self_alignment_is_identity(self):
        a = np.random.default_rng(0).standard_normal((30, 6))
        r = ortho_procrustes(a.T @ a)
        assert np.linalg.norm(r - np.eye(6)) < 1e-12

    def test_planted_quarter_turn(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        g = np.array([[0.0, -1.0], [1.0, 0.0]])
        r = ortho_procrustes((a @ g).T @ a)
        assert np.linalg.norm(r - g) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_planted_random_orthogonal_recovered(self, seed):
        gen = np.random.default_rng(seed)
        a = gen.standard_normal((30, 8))
        g = random_orthogonal(8, seed=seed + 500)
        r = ortho_procrustes((a @ g).T @ a)
        assert np.linalg.norm(r - g) < 1e-10

    def test_orthogonality_invariant(self):
        gen = np.random.default_rng(42)
        for _ in range(20):
            a = gen.standard_normal((25, 5))
            b = gen.standard_normal((25, 5))
            r = ortho_procrustes(b.T @ a)
            assert np.linalg.norm(r.T @ r - np.eye(5)) <= 1e-12 * 5

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_optimality_against_random_and_local_perturbations(self, dim):
        gen = np.random.default_rng(dim)
        a = gen.standard_normal((20, dim))
        b = a @ random_orthogonal(dim, seed=dim) + 0.1 * gen.standard_normal((20, dim))
        r = ortho_procrustes(b.T @ a)
        best = residual(a, r, b)
        for k in range(1000):
            omega = random_orthogonal(dim, seed=10_000 * dim + k)
            assert best <= residual(a, omega, b) + 1e-9
        # First-order stationarity: orthogonal moves r exp(eps K) along any
        # skew direction K cannot beat the solution.
        for k in range(50):
            skew = gen.standard_normal((dim, dim))
            skew = skew - skew.T
            omega = r @ scipy.linalg.expm(1e-3 * skew)
            assert best <= residual(a, omega, b) + 1e-9

    def test_equivariance_under_common_rotation(self):
        gen = np.random.default_rng(7)
        a = gen.standard_normal((30, 6))
        b = gen.standard_normal((30, 6))
        q = random_orthogonal(6, seed=77)
        r = ortho_procrustes(b.T @ a)
        r_rotated = ortho_procrustes((b @ q).T @ (a @ q))
        assert np.linalg.norm(r_rotated - q.T @ r @ q) < 1e-10

    def test_residual_invariant_under_common_rotation(self):
        gen = np.random.default_rng(8)
        a = gen.standard_normal((25, 5))
        b = gen.standard_normal((25, 5))
        q = random_orthogonal(5, seed=88)
        r1 = ortho_procrustes(b.T @ a)
        r2 = ortho_procrustes((b @ q).T @ (a @ q))
        assert np.isclose(
            residual(a, r1, b), residual(a @ q, r2, b @ q), rtol=1e-12
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
            r = ortho_procrustes(b.T @ a)
            delta = gen.standard_normal((30, 6))
            delta *= 1e-8 * np.linalg.norm(a) / np.linalg.norm(delta)
            r_moved = ortho_procrustes(b.T @ (a + delta))
            ratio = np.linalg.norm(r_moved - r) / (np.linalg.norm(delta) / np.linalg.norm(a))
            assert ratio < 50.0

    def test_dot_products_preserved_when_applied_to_both_sides(self):
        gen = np.random.default_rng(9)
        t = gen.standard_normal((40, 6))
        w = gen.standard_normal((30, 6))
        r = ortho_procrustes(gen.standard_normal((40, 6)).T @ t)
        score = t @ w.T
        assert np.linalg.norm((t @ r) @ (w @ r).T - score) < 1e-12 * np.linalg.norm(score)

    def test_degenerate_cross_covariance_warns_but_solves(self):
        a = np.random.default_rng(1).standard_normal((20, 4))
        a[:, 3] = 0.0  # kills one direction of b^T a
        b = np.random.default_rng(2).standard_normal((20, 4))
        with pytest.warns(DegenerateAlignmentWarning):
            r = ortho_procrustes(b.T @ a)
        assert np.linalg.norm(r.T @ r - np.eye(4)) <= 1e-12 * 4

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
            ortho_procrustes(np.diag(spectrum).T @ np.eye(8))
        assert [w.category for w in caught] == [DegenerateAlignmentWarning] * degenerate

    def test_rectangular_source_into_larger_target(self):
        # Every map is e x e, so a narrower source never aligns into a wider
        # target: a truncated run keeps its width and zeroes columns instead.
        gen = np.random.default_rng(5)
        a = gen.standard_normal((40, 5))
        inject = np.zeros((5, 8))
        inject[:, :5] = np.eye(5)
        b = a @ inject @ random_orthogonal(8, seed=55)
        with pytest.raises(DimensionMismatch, match=r"\(8, 5\)"):
            ortho_procrustes(b.T @ a)

    def test_empty_cross_covariance(self):
        for shape in [(0, 0), (0, 3), (3, 0)]:
            with pytest.raises(DimensionMismatch, match="nonempty square"):
                ortho_procrustes(np.empty(shape))

    def test_source_wider_than_target(self):
        a, b = np.ones((3, 4)), np.ones((3, 2))
        with pytest.raises(DimensionMismatch, match=r"\(2, 4\)"):
            ortho_procrustes(b.T @ a)

    def test_cross_covariance_not_two_dimensional(self):
        for shape in [(), (4,), (2, 2, 2)]:
            with pytest.raises(DimensionMismatch, match="nonempty square"):
                ortho_procrustes(np.ones(shape))

    def test_nonfinite(self):
        for bad in (np.nan, np.inf, -np.inf):
            cross = np.eye(3)
            cross[1, 2] = bad
            with pytest.raises(NonFinite):
                ortho_procrustes(cross)


class TestAgainstScipy:
    """ortho_procrustes(b.T @ a) solves what scipy.linalg.orthogonal_procrustes(a, b)
    solves, from the cross-covariance alone."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_pairs(self, seed):
        gen = np.random.default_rng(seed)
        dim = int(gen.integers(1, 33))
        a = gen.standard_normal((int(gen.integers(dim, 4 * dim + 8)), dim))
        b = gen.standard_normal(a.shape)
        expected, _ = scipy.linalg.orthogonal_procrustes(a, b)
        assert np.linalg.norm(ortho_procrustes(b.T @ a) - expected) <= 1e-12 * dim

    @pytest.mark.parametrize("dim", [2, 5, 16])
    def test_reflected_target(self, dim):
        gen = np.random.default_rng(dim)
        a = gen.standard_normal((3 * dim, dim))
        rotation = random_orthogonal(dim, seed=dim)
        rotation[:, 0] *= np.sign(np.linalg.det(rotation))  # det +1
        flip = np.ones(dim)
        flip[-1] = -1.0
        b = a @ np.diag(flip) @ rotation
        b += 1e-3 * gen.standard_normal(b.shape)
        expected, _ = scipy.linalg.orthogonal_procrustes(a, b)
        r = ortho_procrustes(b.T @ a)
        assert np.linalg.norm(r - expected) <= 1e-12 * dim
        assert np.linalg.det(r) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("dim, dead", [(4, 1), (8, 3), (16, 1)])
    def test_rank_deficient_source(self, dim, dead):
        # The completion in the dead directions is not unique, and scipy may
        # pick another sign there; on the source's rows, a @ r, the two agree.
        gen = np.random.default_rng(10 * dim + dead)
        a = gen.standard_normal((3 * dim, dim))
        a[:, dim - dead :] = a[:, :1]
        b = gen.standard_normal(a.shape)
        expected, _ = scipy.linalg.orthogonal_procrustes(a, b)
        with pytest.warns(DegenerateAlignmentWarning):
            r = ortho_procrustes(b.T @ a)
        assert np.linalg.norm(r.T @ r - np.eye(dim)) <= 1e-12 * dim
        gap = np.linalg.norm(a @ r - a @ expected) / np.linalg.norm(a)
        assert gap <= 1e-12 * dim
        assert residual(a, r, b) == pytest.approx(residual(a, expected, b), rel=1e-12)


def _perturbed_svd(monkeypatch, scale):
    """Make np.linalg.svd, as ortho_procrustes calls it, return u with
    column j times scale[j]."""
    svd = np.linalg.svd

    def perturbed(*args, **kwargs):
        u, s, vt = svd(*args, **kwargs)
        return u * scale, s, vt

    monkeypatch.setattr(np.linalg, "svd", perturbed)


class TestAlignmentMap:
    """The map ortho_procrustes returns: a read-only float64 e x e array,
    checked orthogonal where it is made."""

    def test_reflection_detected_and_allowed(self):
        a = np.random.default_rng(3).standard_normal((20, 3))
        r = ortho_procrustes((a @ np.diag([1.0, -1.0, 1.0])).T @ a)
        assert np.linalg.det(r) == pytest.approx(-1.0, abs=1e-12)

    def test_rotation_not_reflection(self):
        a = np.random.default_rng(4).standard_normal((20, 3))
        g = random_orthogonal(3, seed=44)
        g[:, 0] *= np.sign(np.linalg.det(g))  # a rotation: det +1
        r = ortho_procrustes((a @ g).T @ a)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_matrix_read_only(self):
        r = ortho_procrustes(np.eye(2))
        assert r.dtype == np.float64 and r.shape == (2, 2)
        with pytest.raises(ValueError):
            r[0, 0] = 5.0

    def test_rejects_non_orthonormal(self, monkeypatch):
        # One column longer, one shorter: det stays 1, rows leave the sphere.
        _perturbed_svd(monkeypatch, np.array([1.0 + 1e-6, 1.0 / (1.0 + 1e-6), 1.0, 1.0]))
        with pytest.raises(ValueError, match="not orthonormal"):
            ortho_procrustes(np.eye(4))

    def test_rejects_det_off_one(self, monkeypatch):
        # Every column 4e-12 longer at e = 256: r r^T is within 1e-12 * e of
        # the identity, but |det r| = (1 + 4e-12)^256 is about 1 + 1e-9.
        _perturbed_svd(monkeypatch, np.full(256, 1.0 + 4e-12))
        with pytest.raises(ValueError, match=r"\|det\|"):
            ortho_procrustes(np.eye(256))
