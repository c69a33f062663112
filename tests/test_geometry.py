"""Geometry primitives: validation, moments, factorization, ellipsoids."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.linalg import solve_triangular

from thames.errors import InvalidInput, NotPositiveDefinite
from thames.geometry import (
    _BLOCK_ROWS,
    Ellipsoid,
    _covariance,
    as_draw_matrix,
    as_log_density_vector,
    cholesky_factor,
    log_volume,
    logsumexp,
    mahalanobis_sq,
)

RNG = np.random.default_rng(12345)


class TestValidators:
    def test_vector_promoted_to_column(self):
        a = as_draw_matrix([1.0, 2.0, 3.0])
        assert a.shape == (3, 1)

    def test_rejects_nonfinite_draws(self):
        with pytest.raises(InvalidInput):
            as_draw_matrix([[1.0], [np.nan]])
        with pytest.raises(InvalidInput):
            as_draw_matrix([[1.0], [np.inf]])

    def test_rejects_too_few_rows(self):
        with pytest.raises(InvalidInput):
            as_draw_matrix([[1.0]], min_rows=2)

    def test_log_density_allows_minus_inf_only(self):
        v = as_log_density_vector([0.0, -np.inf, -3.0], 3)
        assert v[1] == -np.inf
        with pytest.raises(InvalidInput):
            as_log_density_vector([0.0, np.inf], 2)
        with pytest.raises(InvalidInput):
            as_log_density_vector([0.0, np.nan], 2)
        with pytest.raises(InvalidInput):
            as_log_density_vector([0.0], 2)


class TestMoments:
    def test_mean_and_covariance_small_case(self):
        a = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        e = Ellipsoid.fit(a, 1.0)
        assert np.allclose(e.center, [1.0, 1.0])
        assert np.allclose(e.scale @ e.scale.T, [[4.0 / 3.0, 0.0], [0.0, 4.0 / 3.0]])

    def test_covariance_is_symmetric(self):
        a = RNG.standard_normal((50, 4))
        cov = _covariance(as_draw_matrix(a))
        assert np.array_equal(cov, cov.T)


class TestCholesky:
    def test_recomposes(self):
        a = RNG.standard_normal((6, 6))
        sigma = a @ a.T + 6 * np.eye(6)
        lo = cholesky_factor(sigma)
        assert np.allclose(np.tril(lo), lo)
        assert np.allclose(lo @ lo.T, sigma)

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInput):
            cholesky_factor(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_not_positive_definite(self):
        sigma = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            cholesky_factor(sigma)
        # singular: no ridge is added
        with pytest.raises(NotPositiveDefinite):
            cholesky_factor(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestEllipsoid:
    def test_log_det_cached_from_scale(self):
        lo = np.array([[2.0, 0.0], [1.0, 3.0]])
        e = Ellipsoid(np.zeros(2), lo, 1.5)
        assert e.log_det_sigma == pytest.approx(2.0 * (math.log(2.0) + math.log(3.0)))
        assert e.dim == 2

    def test_log_det_is_not_an_argument(self):
        # a value passed in could contradict scale, and log_volume trusts it
        with pytest.raises(TypeError):
            Ellipsoid(np.zeros(2), np.eye(2), 1.0, log_det_sigma=1.0)

    def test_replace_recomputes_log_det(self):
        lo = np.array([[2.0, 0.0], [1.0, 3.0]])
        e = Ellipsoid(np.zeros(2), lo, 1.5)
        assert replace(e, radius=2.5).log_det_sigma == e.log_det_sigma
        assert replace(e, scale=np.eye(2)).log_det_sigma == 0.0

    def test_fit_matches_moments(self):
        a = RNG.standard_normal((500, 3)) * [1.0, 2.0, 0.5]
        e = Ellipsoid.fit(a, 2.0)
        assert np.allclose(e.center, a.mean(axis=0))
        assert np.allclose(e.scale @ e.scale.T, np.cov(a, rowvar=False))

    def test_rejects_bad_radius(self):
        with pytest.raises(InvalidInput):
            Ellipsoid(np.zeros(2), np.eye(2), 0.0)
        with pytest.raises(InvalidInput):
            Ellipsoid(np.zeros(2), np.eye(2), np.inf)

    @pytest.mark.parametrize("center, scale", [
        ([np.nan, 0.0], np.eye(2)),
        ([0.0, np.inf], np.eye(2)),
        ([0.0, 0.0], [[1.0, 0.0], [np.nan, 1.0]]),
        ([0.0, 0.0], [[np.nan, 0.0], [0.0, 1.0]]),
    ])
    def test_rejects_nonfinite_center_and_scale(self, center, scale):
        with pytest.raises(InvalidInput):
            Ellipsoid(np.array(center), np.array(scale), 1.0)

    @pytest.mark.parametrize("fn", [
        lambda a: Ellipsoid.fit(a, 1.0),
        lambda a: mahalanobis_sq(a[1], Ellipsoid(np.zeros(2), np.eye(2), 1.0)),
        lambda a: mahalanobis_sq(a, Ellipsoid(np.zeros(2), np.eye(2), 1.0)),
    ])
    def test_public_functions_validate_draws(self, fn):
        with pytest.raises(InvalidInput):
            fn(np.array([[1.0, 2.0], [np.nan, 0.0], [3.0, 1.0]]))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_mahalanobis_leaves_input_unchanged(self, order):
        a = np.asarray(RNG.standard_normal((50, 3)), order=order)
        before = a.copy()
        e = Ellipsoid.fit(a, 1.0)
        maha = mahalanobis_sq(a, e)
        assert np.array_equal(a, before)
        z = np.linalg.solve(e.scale, (a - e.center).T).T
        assert np.allclose(maha, np.sum(z * z, axis=1), rtol=1e-12, atol=1e-12)

    def test_mahalanobis_against_explicit_inverse(self):
        a = RNG.standard_normal((8, 3))
        sigma = a.T @ a + np.eye(3)
        center = np.array([1.0, -2.0, 0.5])
        e = Ellipsoid.from_moments(center, sigma, 2.0)
        inv = np.linalg.inv(sigma)
        for theta in RNG.standard_normal((5, 3)):
            expected = (theta - center) @ inv @ (theta - center)
            assert mahalanobis_sq(theta, e) == pytest.approx(expected, rel=1e-10)

    def test_mahalanobis_matrix_matches_rowwise(self):
        e = Ellipsoid.fit(RNG.standard_normal((100, 2)), 1.0)
        pts = RNG.standard_normal((7, 2))
        batch = mahalanobis_sq(pts, e)
        assert np.allclose(batch, [mahalanobis_sq(p, e) for p in pts])

    @staticmethod
    def _triangular_solve_reference(a, e):
        z = solve_triangular(e.scale, (a - e.center).T, lower=True).T
        return np.einsum("ij,ij->i", z, z)

    @pytest.mark.parametrize("t", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    def test_blocks_match_triangular_solve(self, t):
        a = RNG.standard_normal((t, 4)) @ np.array(
            [[1.0, 0.0, 0.0, 0.0], [0.5, 2.0, 0.0, 0.0],
             [-0.3, 0.2, 0.4, 0.0], [1.0, -1.0, 0.5, 3.0]])
        e = Ellipsoid.fit(a, 1.0)
        maha_ref = self._triangular_solve_reference(a, e)
        maha = mahalanobis_sq(a, e)
        assert maha.shape == (t,)
        assert np.allclose(maha, maha_ref, rtol=1e-12, atol=0.0)

    def test_ill_conditioned_covariance_matches_triangular_solve(self):
        d = 6
        q, _ = np.linalg.qr(RNG.standard_normal((d, d)))
        sigma = (q * np.logspace(0.0, -8.0, d)) @ q.T  # condition number 1e8
        sigma = 0.5 * (sigma + sigma.T)
        assert np.linalg.cond(sigma) == pytest.approx(1e8, rel=1e-3)
        e = Ellipsoid.from_moments(np.arange(d, dtype=float), sigma, 1.0)
        a = e.center + RNG.standard_normal((_BLOCK_ROWS + 7, d)) @ e.scale.T
        maha_ref = self._triangular_solve_reference(a, e)
        assert np.allclose(mahalanobis_sq(a, e), maha_ref, rtol=1e-10, atol=0.0)

    def test_whitens_fit_draws(self):
        # the distances of the draws the ellipsoid was fitted to sum to
        # trace((T-1) Sigma^-1 Sigma) = (T-1) d
        a = RNG.standard_normal((2000, 2)) @ np.array([[2.0, 0.0], [1.5, 0.3]])
        e = Ellipsoid.fit(a, 1.0)
        assert np.sum(mahalanobis_sq(a, e)) == pytest.approx(1999 * 2, rel=1e-10)


def ulp_distance(x, y):
    """Distance between two finite doubles in units of the larger one's ulp."""
    return abs(x - y) / np.spacing(max(abs(x), abs(y)))


class TestLogSumExp:
    @pytest.mark.parametrize("a", [
        [3.7],
        [1.0, 2.5, 2.5, -4.0, 2.5],
        [-np.inf, 0.5, -np.inf, 1.0],
        RNG.standard_normal((7, 5)),
        1000.0 + 3.0 * RNG.standard_normal(2000),
        -1000.0 + 3.0 * RNG.standard_normal(2000),
        np.concatenate([[1e3, 1e3], 1e3 - RNG.exponential(5.0, 500)]),
        [-745.0, -744.0, -746.5],
        [700.0, 709.0, 709.5],
    ], ids=["one", "duplicated-max", "minus-inf-entries", "2d",
            "around+1e3", "around-1e3", "duplicated-max-1e3", "underflow",
            "near-overflow"])
    def test_matches_scipy_within_2_ulp(self, a):
        expected = float(special.logsumexp(a))
        got = logsumexp(a)
        assert isinstance(got, float)
        assert ulp_distance(got, expected) <= 2.0

    @pytest.mark.parametrize("a, expected", [
        ([], -np.inf),
        ([-np.inf, -np.inf], -np.inf),
        ([0.0, np.inf], np.inf),
    ])
    def test_edge_cases_match_scipy(self, a, expected):
        assert logsumexp(a) == expected == special.logsumexp(a)

    def test_nan_propagates(self):
        assert math.isnan(logsumexp([0.0, np.nan]))


class TestLogVolume:
    def test_matches_gammaln_formula(self):
        radius = 1.3
        for d in range(1, 501):
            e = Ellipsoid(np.zeros(d), np.diag(np.full(d, 0.7)), radius)
            gamma_term = special.gammaln(0.5 * d + 1.0)
            expected = (d * np.log(radius) + 0.5 * d * np.log(np.pi)
                        + 0.5 * e.log_det_sigma - gamma_term)
            assert log_volume(e) == pytest.approx(
                expected, rel=1e-14, abs=1e-14 * abs(gamma_term))

    def test_unit_ball_low_dimensions(self):
        # d=1: 2c, d=2: pi c^2, d=3: 4/3 pi c^3
        for d, expected in ((1, 2.0 * 1.7), (2, math.pi * 1.7 ** 2),
                            (3, 4.0 / 3.0 * math.pi * 1.7 ** 3)):
            e = Ellipsoid(np.zeros(d), np.eye(d), 1.7)
            assert log_volume(e) == pytest.approx(math.log(expected), rel=1e-12)

    def test_scale_determinant_enters_linearly(self):
        lo = np.diag([2.0, 0.5, 3.0])
        e_unit = Ellipsoid(np.zeros(3), np.eye(3), 1.0)
        e = Ellipsoid(np.zeros(3), lo, 1.0)
        assert log_volume(e) - log_volume(e_unit) == pytest.approx(
            math.log(2.0 * 0.5 * 3.0), rel=1e-12)

    @given(st.integers(min_value=1, max_value=30),
           st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_radius(self, d, c):
        e_small = Ellipsoid(np.zeros(d), np.eye(d), c)
        e_big = Ellipsoid(np.zeros(d), np.eye(d), c * 1.5)
        assert log_volume(e_big) - log_volume(e_small) == pytest.approx(
            d * math.log(1.5), rel=1e-9)

    def test_affine_consistency_with_mahalanobis(self):
        # scaling the draws by M scales volumes by |det M| and leaves
        # Mahalanobis distances unchanged
        a = RNG.standard_normal((4000, 3))
        m = np.array([[2.0, 0.0, 0.0], [0.3, 1.5, 0.0], [-0.2, 0.1, 0.7]])
        e1 = Ellipsoid.fit(a, 2.0)
        e2 = Ellipsoid.fit(a @ m.T, 2.0)
        assert log_volume(e2) - log_volume(e1) == pytest.approx(
            math.log(abs(np.linalg.det(m))), rel=1e-9)
        assert np.allclose(mahalanobis_sq(a[:50], e1),
                           mahalanobis_sq(a[:50] @ m.T, e2))
