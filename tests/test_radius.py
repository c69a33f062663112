"""Radius theory: Kummer series, quadrature and recursion oracles,
optimal radius, bounds."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special, stats

from thames import radius
from thames.cli import main
from thames.errors import InvalidInput, NumericalFailure, Overflow
from thames.radius import (
    MAX_RADIUS,
    RadiusPolicy,
    chi2_cdf,
    chi_square_median_radius,
    log_f,
    optimal_radius,
    resolve_radius,
    scv_bounds,
    scv_normal,
)


def erfi_series(x, terms=80):
    """Maclaurin erfi(x) = 2/sqrt(pi) sum x^(2k+1) / (k! (2k+1))."""
    total = 0.0
    for k in range(terms):
        total += x ** (2 * k + 1) / (math.factorial(k) * (2 * k + 1))
    return 2.0 / math.sqrt(math.pi) * total


def f_value(d, c):
    return math.exp(log_f(d, c))


def brute_force_f(d, c, panels=50_000):
    """Raw-scale Simpson quadrature of c^-(d-2) int_0^c exp(r^2/2) r^(d-1) dr."""
    r = np.linspace(0.0, c, panels + 1)
    g = np.exp(0.5 * r * r) * r ** (d - 1)
    g[0] = 0.0 if d > 1 else 1.0
    return float(integrate.simpson(g, x=r) * c ** (-(d - 2)))


def scaled_quad_log_f(d, c):
    """log f(d, c) by adaptive quadrature of the integrand divided by its
    value at r = c, so that no evaluation overflows; the last 40 widths
    of the integrand's peak are integrated apart from the rest."""
    top = 0.5 * c * c + (d - 1) * math.log(c)

    def g(r):
        if r == 0.0:
            return math.exp(-top) if d == 1 else 0.0
        return math.exp(0.5 * r * r + (d - 1) * math.log(r) - top)

    split = max(0.0, c - 40.0 / (c + (d - 1) / c))
    head = integrate.quad(g, 0.0, split, epsabs=0.0, epsrel=1e-13,
                          limit=200)[0] if split > 0 else 0.0
    tail = integrate.quad(g, split, c, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return top + math.log(head + tail) - (d - 2) * math.log(c)


class TestLogF:
    def test_d1_closed_form(self):
        # f(1, c) = c sqrt(pi/2) erfi(c / sqrt(2))
        for c in (0.3, 1.0, 1.7, 2.5, 3.0):
            exact = c * math.sqrt(math.pi / 2.0) * erfi_series(c / math.sqrt(2.0))
            assert f_value(1, c) == pytest.approx(exact, rel=1e-10)

    def test_d2_closed_form(self):
        for c in (0.5, 1.0, 2.0, 3.5):
            assert f_value(2, c) == pytest.approx(math.expm1(0.5 * c * c), rel=1e-10)

    def test_recursion(self):
        # f(d, c) = exp(c^2/2) - 1{d=2} - (d-2) f(d-2, c) / c^2
        for d in range(3, 31):
            for c in (1.0, math.sqrt(d), math.sqrt(d + 1.0)):
                lhs = f_value(d, c)
                rhs = math.exp(0.5 * c * c) - (d - 2) * f_value(d - 2, c) / (c * c)
                assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_brute_force_agreement(self):
        for d in (1, 2, 3, 7, 15, 30):
            for c in (1.0, math.sqrt(d + 1.0)):
                assert f_value(d, c) == pytest.approx(brute_force_f(d, c), rel=1e-8)

    def test_large_dimension_no_overflow(self):
        value = log_f(2000, math.sqrt(2001.0))
        assert np.isfinite(value)

    @pytest.mark.parametrize("d", [200, 500, 1000, 2000])
    def test_high_dimension_matches_quadrature(self, d):
        for c in (1.0, math.sqrt(d), math.sqrt(d + 1.0), math.sqrt(2.0 * d + 4.0)):
            assert log_f(d, c) == pytest.approx(scaled_quad_log_f(d, c), rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 50, 2000])
    def test_radius_whose_square_underflows(self, d):
        # f(d, c) = c^2/d (1 + O(c^2)), and c^2 underflows to 0 here
        value = log_f(d, 1e-300)
        assert np.isfinite(value)
        assert value == pytest.approx(2.0 * math.log(1e-300) - math.log(d), rel=1e-12)

    def test_cap(self):
        # the largest window the series ever sums, at c = MAX_RADIUS
        assert np.isfinite(log_f(3, MAX_RADIUS))
        assert log_f(3, MAX_RADIUS) == pytest.approx(
            scaled_quad_log_f(3, MAX_RADIUS), rel=1e-12)
        for c in (np.nextafter(MAX_RADIUS, np.inf), 1e6, 1e300):
            with pytest.raises(Overflow):
                log_f(3, c)

    def test_scv_beyond_cap_is_one_json_line(self, capsys):
        code = main(["scv", "--dmax", "2", "--policies", "fixed:5000"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 4
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "numerical"

    @pytest.mark.parametrize("d, c", [(0, 1.0), (3, -1.0), (math.inf, 2.0),
                                      (math.nan, 2.0), (None, 2.0)])
    @pytest.mark.parametrize("fn", [log_f, scv_normal])
    def test_rejects_bad_arguments(self, fn, d, c):
        with pytest.raises(InvalidInput):
            fn(d, c)

    def test_accepts_integral_float_dimension(self):
        assert log_f(3.0, 2.0) == log_f(3, 2.0)

    @given(st.integers(min_value=1, max_value=60),
           st.floats(min_value=0.2, max_value=9.0))
    @settings(max_examples=40, deadline=None)
    def test_f_positive_and_monotone_in_c(self, d, c):
        # the defining integral int_0^c is strictly increasing in c;
        # log_f carries an extra -(d-2) log c that must be added back
        assert log_f(d, c * 1.1) + (d - 2) * math.log(1.1) > log_f(d, c)


class TestScvNormal:
    def test_small_dimension_against_direct_formula(self):
        # SCV + 1 = d 2^(d/2) Gamma(d/2 + 1) c^-(d+2) f(d, c)
        for d, c in ((1, 1.2), (2, 1.7), (5, 2.3)):
            kappa = d * 2.0 ** (0.5 * d) * math.gamma(0.5 * d + 1.0)
            direct = kappa * c ** (-(d + 2)) * brute_force_f(d, c) - 1.0
            assert scv_normal(d, c) == pytest.approx(direct, rel=1e-7)

    def test_overflow_carries_log_value(self):
        with pytest.raises(Overflow) as exc_info:
            scv_normal(1, 60.0)
        assert exc_info.value.log_value > 700.0

    @given(st.integers(min_value=1, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative_at_usual_radii(self, d):
        assert scv_normal(d, math.sqrt(d + 1.0)) >= 0.0


class TestOptimalRadius:
    def test_first_order_condition(self):
        # stationarity: 2 d f(d, c_d) / c_d^2 = exp(c_d^2 / 2)
        for d in (1, 2, 10, 50, 200):
            opt = optimal_radius(d)
            residual = (math.log(2.0 * d) + log_f(d, opt.c_d)
                        - 2.0 * math.log(opt.c_d) - 0.5 * opt.c_d ** 2)
            assert abs(residual) < 1e-9

    def test_is_a_local_minimum(self):
        for d in (1, 3, 20):
            opt = optimal_radius(d)
            for factor in (0.97, 1.03):
                assert scv_normal(d, opt.c_d * factor) > opt.scv_at_opt

    def test_l_d_consistency(self):
        for d in (1, 10, 100):
            opt = optimal_radius(d)
            assert opt.l_d == pytest.approx(opt.c_d ** 2 - d, abs=1e-12)

    def test_l_d_approaches_one(self):
        l_values = [optimal_radius(d).l_d for d in (10, 50, 100, 200)]
        assert abs(l_values[-1] - 1.0) < abs(l_values[0] - 1.0)

    @staticmethod
    def count_log_f(monkeypatch):
        calls = []
        real = radius.log_f

        def counting(dim, c):
            calls.append(c)
            return real(dim, c)

        monkeypatch.setattr(radius, "log_f", counting)
        return calls

    # Newton steps from sqrt(d + 1), one log_f each, plus scv_normal at the
    # root; the bracket ends are never evaluated
    @pytest.mark.parametrize("d, total", [(1, 5), (50, 4), (200, 3)])
    def test_log_f_calls_per_solve(self, d, total, monkeypatch):
        calls = self.count_log_f(monkeypatch)
        radius.optimal_radius.__wrapped__(d)  # bypass the cache
        assert calls[0] == math.sqrt(d + 1.0)
        assert math.sqrt(d) not in calls and math.sqrt(d + 4.0) not in calls
        assert len(calls) == total

    def test_fewer_log_f_calls_than_brentq(self, monkeypatch):
        # brentq with the bracket ends evaluated once took 1 287 calls
        calls = self.count_log_f(monkeypatch)
        for d in range(1, 201):
            radius.optimal_radius.__wrapped__(d)
        assert len(calls) <= 1287

    @pytest.mark.parametrize("dims", [range(1, 201), (500, 1000, 2000)],
                             ids=["1-200", "500-2000"])
    def test_matches_brentq(self, dims):
        for d in dims:
            root = optimize.brentq(lambda c: radius._foc(d, c), math.sqrt(d),
                                   math.sqrt(d + 4.0), xtol=1e-15, rtol=1e-15)
            assert optimal_radius(d).c_d == pytest.approx(root, rel=1e-12, abs=0)

    def test_no_sign_change_is_numerical_failure(self, monkeypatch):
        for value in (1.0, -1.0, math.nan):
            monkeypatch.setattr(radius, "_foc", lambda d, c: value)
            with pytest.raises(NumericalFailure,
                               match="no sign change bracketing c_3"):
                radius.optimal_radius.__wrapped__(3)


class TestChi2Cdf:
    def test_matches_gammainc(self):
        for d in range(1, 201):
            c_d2 = optimal_radius(d).c_d ** 2
            for q in (0.0, 1e-300, 1e-12, 1e-3, 0.3 * d, c_d2, d + 1.0, 3.0 * d,
                      4.0 * d + 399.0):
                assert abs(chi2_cdf(d, q) - special.gammainc(0.5 * d, 0.5 * q)) \
                    <= 1e-14, (d, q)

    @pytest.mark.parametrize("d", [1, 2, 7, 200, 1500, 20_000])
    def test_rescaled_sum_beyond_the_range_of_exp(self, d):
        # x = q/2 passes 700 for d > 1400: e^-x alone would underflow
        for q in (d - 1.0, d + 2.0 * math.sqrt(d), 4.0 * d + 400.0, 1e300, math.inf):
            assert chi2_cdf(d, q) == pytest.approx(
                special.gammainc(0.5 * d, 0.5 * q), rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("q", [-1.0, -1e-300, math.nan])
    def test_rejects_negative_or_nan(self, q):
        with pytest.raises(InvalidInput):
            chi2_cdf(3, q)


class TestChiSquareMedianRadius:
    def test_matches_scipy_ppf(self):
        for d in (1, 2, 5, 20, 100, 5000):
            expected = math.sqrt(stats.chi2.ppf(0.5, df=d))
            assert chi_square_median_radius(d) == pytest.approx(expected, rel=1e-9)

    def test_median_mass(self):
        for d in range(1, 201):
            c = chi_square_median_radius(d)
            assert abs(special.gammainc(0.5 * d, 0.5 * c * c) - 0.5) <= 1e-14


class TestPolicies:
    def test_resolve_each_kind(self):
        d = 9
        assert resolve_radius(RadiusPolicy.sqrt_d_plus_1(), d) == pytest.approx(
            math.sqrt(10.0))
        assert resolve_radius(RadiusPolicy.fixed(2.5), d) == 2.5
        assert resolve_radius(RadiusPolicy.chisq_median(), d) == pytest.approx(
            math.sqrt(stats.chi2.ppf(0.5, df=d)), rel=1e-9)
        assert resolve_radius(RadiusPolicy.optimal(), d) == pytest.approx(
            optimal_radius(d).c_d)
        assert resolve_radius(RadiusPolicy.empirical_grid([1.0, 2.0]), d) is None

    def test_invalid_policies(self):
        with pytest.raises(InvalidInput):
            RadiusPolicy.fixed(-1.0)
        with pytest.raises(InvalidInput):
            RadiusPolicy.empirical_grid([])
        with pytest.raises(InvalidInput):
            RadiusPolicy("bogus")

    @pytest.mark.parametrize("kind, changes", [
        ("fixed", {"value": "two"}),
        ("fixed", {"value": None}),
        ("fixed", {"value": [1.0, 2.0]}),
        ("grid", {"grid": 5}),
        ("grid", {"grid": None}),
        ("grid", {"grid": ["1", "x"]}),
    ])
    def test_wrong_types_rejected(self, kind, changes):
        with pytest.raises(InvalidInput, match=f"^{kind} radius: "):
            RadiusPolicy(kind, **changes)

    def test_values_become_floats(self):
        assert RadiusPolicy("fixed", value="2") == RadiusPolicy.fixed(2.0)
        assert RadiusPolicy("fixed", value=np.float32(2.5)).value == 2.5
        grid = RadiusPolicy("grid", grid=iter([1, "2.5"])).grid
        assert grid == (1.0, 2.5) and all(type(c) is float for c in grid)


class TestScvBounds:
    def test_shape(self):
        lower, upper = scv_bounds(10)
        root = math.sqrt(12.0 * math.pi / 4.0)
        assert lower == pytest.approx(0.63 * root - 1.0)
        assert upper == pytest.approx(1.09 * 2.0 * root - 1.0)
        assert lower < upper
