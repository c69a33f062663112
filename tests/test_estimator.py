"""Estimator core: point estimate, variance, intervals, splitting, tuning."""

import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, ndtri

from thames.correction import ConstrainedCorrectionConfig, SupportPredicate
from thames.errors import (
    DegenerateTerm,
    EmptyTruncationSet,
    InsufficientData,
    InvalidInput,
)
from thames.estimator import (
    ThamesOptions,
    ThamesResult,
    ar1_inflation,
    confidence_interval,
    empirical_scv,
    harmonic_mean_log_z,
    thames,
    variance_recip_iid,
)
from thames.geometry import Ellipsoid, _two_sided_z, log_volume, mahalanobis_sq
from thames.models import GaussianMeanModel, gaussian_dataset
from thames.radius import RadiusPolicy

RNG = np.random.default_rng(777)


def assert_same_result(a, b):
    """Field-by-field equality of two ThamesResults."""
    for f in fields(ThamesResult):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "ellipsoid":
            assert np.array_equal(x.center, y.center)
            assert np.array_equal(x.scale, y.scale)
            assert (x.radius, x.log_det_sigma) == (y.radius, y.log_det_sigma)
        else:
            assert x == y, f.name


def toy_problem(d=2, t=4000, seed=11):
    model = GaussianMeanModel(1.0, gaussian_dataset(d, seed=seed))
    draws = model.posterior_sample(t, seed + 1)
    return model, draws, model.log_post(draws)


class TestPointEstimate:
    def test_direct_reimplementation(self):
        # independently recompute Eq-style THAMES for one configuration
        model, draws, log_post = toy_problem()
        opts = ThamesOptions(split=True)
        res = thames(draws, log_post, opts)
        t_fit = draws.shape[0] // 2
        e = Ellipsoid.fit(draws[:t_fit], math.sqrt(3.0))
        est_draws, est_lp = draws[t_fit:], log_post[t_fit:]
        inside = mahalanobis_sq(est_draws, e) < 3.0
        expected = (logsumexp(-est_lp[inside]) - log_volume(e)
                    - math.log(est_draws.shape[0]))
        assert res.log_recip_z == pytest.approx(expected, rel=1e-12)
        assert res.log_z == -res.log_recip_z
        assert res.n_inside == int(inside.sum())
        assert res.t_estimation == est_draws.shape[0]

    def test_shift_invariance(self):
        # adding a constant to the log posterior shifts log Z by the same amount
        _, draws, log_post = toy_problem()
        res0 = thames(draws, log_post)
        res1 = thames(draws, log_post + 7.25)
        assert res1.log_z == pytest.approx(res0.log_z + 7.25, abs=1e-10)
        assert res1.se_recip_rel == pytest.approx(res0.se_recip_rel, rel=1e-12)

    def test_no_split_uses_all_draws(self):
        _, draws, log_post = toy_problem(t=1000)
        res = thames(draws, log_post, ThamesOptions(split=False))
        assert res.t_estimation == 1000

    def test_odd_draw_count_splits_on_floor(self):
        _, draws, log_post = toy_problem(t=1001)
        res = thames(draws, log_post)
        assert res.t_estimation == 1001 - 500

    def test_split_boundaries(self):
        # T = 3 leaves one draw on a side; T = 4 and T = 5 fit the ellipsoid
        # on the first T // 2 draws and sum over the rest
        _, draws, log_post = toy_problem(d=1, t=5)
        with pytest.raises(InvalidInput, match="in half"):
            thames(draws[:3], log_post[:3])
        opts = ThamesOptions(radius_policy=RadiusPolicy.fixed(100.0))
        for t, t_est in ((4, 2), (5, 3)):
            res = thames(draws[:t], log_post[:t], opts)
            assert res.t_estimation == t_est
            fit = Ellipsoid.fit(draws[:t // 2], 100.0)
            assert np.array_equal(res.ellipsoid.center, fit.center)
            assert np.array_equal(res.ellipsoid.scale, fit.scale)

    def test_options_are_the_ones_a_caller_sets(self):
        assert [f.name for f in fields(ThamesOptions)] == [
            "radius_policy", "split", "ci_level", "serial_correction",
            "correction"]

    @pytest.mark.parametrize("field, value", [
        ("radius_policy", "optimal"),
        ("radius_policy", None),
        ("correction", SupportPredicate.unbounded()),
        ("correction", "positive:0"),
        ("ci_level", "0.9"),
        ("ci_level", None),
        ("split", "no"),
        ("split", 1),
    ])
    def test_options_reject_wrong_types(self, field, value):
        # the level goes through the check that --ci and the volume ratio share
        message = (f"confidence level must be in \\(0, 1\\), got {value!r}"
                   if field == "ci_level" else f"{field} .* is not")
        with pytest.raises(InvalidInput, match=f"^{message}"):
            ThamesOptions(**{field: value})

    def test_explicit_ellipsoid_bypasses_split(self):
        model, draws, log_post = toy_problem(t=1000)
        m_n, s_n = model.posterior_params()
        oracle = Ellipsoid(m_n, math.sqrt(s_n) * np.eye(2), math.sqrt(3.0))
        res = thames(draws, log_post, ThamesOptions(split=True), ellipsoid=oracle)
        assert res.t_estimation == 1000
        assert res.radius_used == pytest.approx(math.sqrt(3.0))

    def test_empty_truncation_set(self):
        _, draws, log_post = toy_problem(t=200)
        tiny = Ellipsoid(np.full(2, 100.0), np.eye(2), 0.01)
        with pytest.raises(EmptyTruncationSet):
            thames(draws, log_post, ellipsoid=tiny)

    def test_degenerate_term_inside_ellipsoid(self):
        _, draws, log_post = toy_problem(t=200)
        lp = log_post.copy()
        lp[-1] = -np.inf  # zero-density draw; huge radius forces inclusion
        everything = Ellipsoid(draws.mean(axis=0), np.eye(2), 1e6)
        with pytest.raises(DegenerateTerm):
            thames(draws, lp, ellipsoid=everything)

    def test_determinism(self):
        _, draws, log_post = toy_problem()
        r1 = thames(draws, log_post)
        r2 = thames(draws, log_post)
        assert r1.log_z == r2.log_z and r1.se_recip_rel == r2.se_recip_rel

    def test_rejects_mismatched_lengths(self):
        _, draws, log_post = toy_problem(t=100)
        with pytest.raises(InvalidInput):
            thames(draws, log_post[:-1])

    def test_rejects_draws_of_three_dimensions(self):
        with pytest.raises(InvalidInput,
                           match="^draws must be 2-dimensional, got ndim=3$"):
            thames(np.zeros((10, 2, 2)), np.zeros(10))

    def test_split_needs_enough_draws(self):
        with pytest.raises(InvalidInput):
            thames(np.array([[0.0], [1.0], [2.0]]), np.zeros(3),
                   ThamesOptions(split=True))

    def test_memory_does_not_grow_with_the_draws(self):
        # the 40 000 x 100 draws take 30.5 MB; the fit and the distances
        # run a block of rows at a time, so no centered copy of the fitting
        # half is made
        rng = np.random.default_rng(5)
        draws = rng.standard_normal((40_000, 100))
        log_post = -0.5 * np.einsum("ij,ij->i", draws, draws)
        tracemalloc.start()
        try:
            thames(draws, log_post)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestVariance:
    def test_matches_raw_scale_formula(self):
        # small terms where the raw scale is safe
        terms = np.array([0.2, 0.5, 0.1, 0.9, 0.3])
        t_est = 8  # three excluded draws contribute exact zeros
        x = np.concatenate([terms, np.zeros(3)])
        m1, m2 = x.mean(), (x ** 2).mean()
        expected = math.sqrt((m2 / m1 ** 2 - 1.0) / t_est)
        got = variance_recip_iid(np.log(terms), t_est, 0.0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_log_volume_shift_is_neutral(self):
        terms = np.log(np.array([0.2, 0.5, 0.1]))
        a = variance_recip_iid(terms, 5, 0.0)
        b = variance_recip_iid(terms + 3.0, 5, 3.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_survives_extreme_log_terms(self):
        terms = np.array([-1500.0, -1501.0, -1499.5])
        se = variance_recip_iid(terms, 3, 0.0)
        assert np.isfinite(se) and se >= 0.0

    def test_requires_two_terms(self):
        with pytest.raises(InsufficientData):
            variance_recip_iid(np.array([0.0]), 5, 0.0)

    def test_rejects_fewer_draws_than_terms(self):
        with pytest.raises(InvalidInput,
                           match="^t_estimation smaller than the included count$"):
            variance_recip_iid(np.zeros(3), 2, 0.0)


class TestConfidenceInterval:
    def test_matches_hand_formula(self):
        z = ndtri(0.975)
        se = 0.1
        lower, upper = confidence_interval(2.0, se, 0.95)
        assert lower == pytest.approx(-(2.0 + math.log1p(z * se)))
        assert upper == pytest.approx(-(2.0 + math.log(1.0 - z * se)))
        assert lower < -2.0 < upper

    def test_unbounded_above_for_large_se(self):
        lower, upper = confidence_interval(0.0, 1.0, 0.95)
        assert upper == np.inf and np.isfinite(lower)

    @given(st.floats(min_value=-50.0, max_value=50.0),
           st.floats(min_value=0.0, max_value=0.4),
           st.floats(min_value=0.5, max_value=0.995))
    @settings(max_examples=60, deadline=None)
    def test_contains_point_estimate(self, log_recip_z, se, level):
        lower, upper = confidence_interval(log_recip_z, se, level)
        assert lower <= -log_recip_z <= upper

    def test_rejects_bad_level(self):
        with pytest.raises(InvalidInput):
            confidence_interval(0.0, 0.1, 1.5)

    def test_rejects_level_whose_z_is_infinite(self):
        # 0.5 * (1 + level) rounds to 1 for the largest double below 1,
        # where NormalDist.inv_cdf raises StatisticsError
        top = 0.9999999999999999
        for call in (lambda: confidence_interval(0.0, 0.1, top),
                     lambda: ThamesOptions(ci_level=top)):
            with pytest.raises(InvalidInput, match="too close to 1"):
                call()
        # the next double down has a finite z
        lower, upper = confidence_interval(0.0, 0.01, 0.9999999999999998)
        assert math.isfinite(lower) and math.isfinite(upper)

    def test_rejects_negative_se(self):
        with pytest.raises(InvalidInput,
                           match="^standard error must be nonnegative$"):
            confidence_interval(0.0, -0.1, 0.95)

    @pytest.mark.parametrize("level", [0.1, 0.5, 0.6827, 0.8, 0.9, 0.95, 0.99,
                                       0.999, 0.999999])
    def test_normal_quantile_matches_ndtri(self, level):
        expected = ndtri(0.5 * (1.0 + level))
        z = _two_sided_z(level)
        assert abs(z - expected) <= 4 * np.spacing(expected)
        lower, _ = confidence_interval(0.0, 0.01, level)
        assert lower == pytest.approx(-math.log1p(expected * 0.01), rel=1e-15)


class TestSerialCorrection:
    def test_iid_series_is_near_one(self):
        series = np.log(RNG.uniform(0.5, 1.5, size=5000))
        assert ar1_inflation(series) == pytest.approx(1.0, abs=0.2)

    def test_constant_series_is_one(self):
        assert ar1_inflation(np.zeros(100)) == 1.0

    def test_correlated_series_inflates(self):
        x = np.empty(5000)
        x[0] = 0.0
        eps = RNG.standard_normal(5000)
        for i in range(1, 5000):
            x[i] = 0.9 * x[i - 1] + eps[i]
        factor = ar1_inflation(np.log(np.exp(0.1 * x)))
        assert factor > 10.0

    def test_requires_minimum_length(self):
        with pytest.raises(InvalidInput):
            ar1_inflation(np.zeros(5))

    def test_rejects_bad_factor(self):
        # the correction is named, "none" or "ar1"; a number is not one
        with pytest.raises(InvalidInput):
            ThamesOptions(serial_correction=0.5)
        with pytest.raises(InvalidInput):
            ThamesOptions(serial_correction=4.0)
        with pytest.raises(InvalidInput):
            ThamesOptions(serial_correction="bogus")


class TestHarmonicMean:
    def test_constant_likelihood(self):
        assert harmonic_mean_log_z(np.full(10, -3.0)) == pytest.approx(-3.0)

    def test_dominated_by_smallest_likelihood(self):
        ll = np.array([-1.0] * 99 + [-1000.0])
        assert harmonic_mean_log_z(ll) < -900.0

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            harmonic_mean_log_z(np.array([-1.0, -np.inf]))


def grid_estimate(draws, log_post, grid, opts=None):
    """The grid-policy estimate."""
    opts = replace(opts or ThamesOptions(),
                   radius_policy=RadiusPolicy.empirical_grid(grid))
    return thames(draws, log_post, opts)


def fixed_radius_estimates(draws, log_post, grid, opts=None):
    """The fixed-radius estimate at each grid radius, None where the
    truncation set is empty."""
    results = []
    for c in grid:
        fixed = replace(opts or ThamesOptions(), radius_policy=RadiusPolicy.fixed(c))
        try:
            results.append(thames(draws, log_post, fixed))
        except EmptyTruncationSet:
            results.append(None)
    return results


def smallest_se(results):
    """The estimate with the smallest finite SE, ties broken toward the
    smaller radius."""
    return min((r for r in results if r is not None and np.isfinite(r.se_recip_rel)),
               key=lambda r: (r.se_recip_rel, r.radius_used))


class TestRadiusTuning:
    def test_grid_policy_matches_manual_choice(self):
        _, draws, log_post = toy_problem()
        grid = (0.8, 1.5, math.sqrt(3.0), 2.5)
        best = smallest_se(fixed_radius_estimates(draws, log_post, grid))
        via_policy = grid_estimate(draws, log_post, grid)
        assert via_policy.radius_used == best.radius_used
        assert via_policy.log_z == best.log_z

    @pytest.mark.parametrize("split", [True, False])
    @pytest.mark.parametrize("serial", ["none", "ar1"])
    def test_equals_fixed_radius_estimate_with_smallest_se(self, split, serial):
        _, draws, log_post = toy_problem(t=1000)
        # 1e-6 leaves the set empty; 0.05 and 0.08 keep at most one draw
        # (an empty set or an infinite SE)
        grid = (1e-6, 0.05, 0.08, 0.8, 1.5, math.sqrt(3.0), 2.5, 4.0)
        opts = ThamesOptions(split=split, serial_correction=serial)
        results = fixed_radius_estimates(draws, log_post, grid, opts)
        assert results[0] is None
        assert any(r is not None and r.se_recip_rel == np.inf for r in results)
        assert_same_result(grid_estimate(draws, log_post, grid, opts),
                           smallest_se(results))

    def test_one_distance_pass_per_call(self, monkeypatch):
        import thames.estimator as est

        calls = []
        kernel = est._mahalanobis_sq

        def counting(a, e):
            calls.append(a.shape)
            return kernel(a, e)

        monkeypatch.setattr(est, "_mahalanobis_sq", counting)
        _, draws, log_post = toy_problem(t=1000)
        grid = RadiusPolicy.empirical_grid(tuple(np.linspace(0.5, 3.0, 20)))
        for opts, shape in ((ThamesOptions(radius_policy=grid), (500, 2)),
                            (ThamesOptions(radius_policy=grid, split=False,
                                           serial_correction="ar1"), (1000, 2)),
                            (ThamesOptions(), (500, 2))):
            calls.clear()
            thames(draws, log_post, opts)
            assert calls == [shape]

    def test_draws_validated_once_per_call(self, monkeypatch):
        # one shape check; the elementwise finiteness test runs only for a
        # non-finite draw, and then once
        import thames.estimator as est
        import thames.geometry as geo

        shapes, finite_tests = [], []
        shape_check, finite_check = geo._as_matrix, geo._require_finite

        def counting_shape(draws, min_rows=1):
            shapes.append(np.shape(draws))
            return shape_check(draws, min_rows)

        def counting_finite(a):
            finite_tests.append(a.shape)
            return finite_check(a)

        for module in (geo, est):
            monkeypatch.setattr(module, "_as_matrix", counting_shape)
            monkeypatch.setattr(module, "_require_finite", counting_finite)
        model, draws, log_post = toy_problem(t=1000)
        m_n, s_n = model.posterior_params()
        oracle = Ellipsoid(m_n, math.sqrt(s_n) * np.eye(2), math.sqrt(3.0))
        grid = RadiusPolicy.empirical_grid((1.0, 2.0))
        for opts, ellipsoid in ((ThamesOptions(), None),
                                (ThamesOptions(radius_policy=grid), None),
                                (ThamesOptions(split=False), oracle)):
            shapes.clear()
            thames(draws, log_post, opts, ellipsoid=ellipsoid)
            assert (shapes, finite_tests) == ([(1000, 2)], [])
            for row in (300, 700):  # in the fit half, then the estimation half
                bad = draws.copy()
                bad[row, 1] = np.nan
                shapes.clear()
                finite_tests.clear()
                with pytest.raises(InvalidInput, match="non-finite"):
                    thames(bad, log_post, opts, ellipsoid=ellipsoid)
                assert (shapes, finite_tests) == ([(1000, 2)], [(1000, 2)])
            finite_tests.clear()

    def test_explicit_ellipsoid_dimension_is_checked(self):
        _, draws, log_post = toy_problem(t=200)
        wrong = Ellipsoid(np.zeros(3), np.eye(3), 2.0)
        with pytest.raises(InvalidInput, match="dimension"):
            thames(draws, log_post, ThamesOptions(split=False), ellipsoid=wrong)

    def test_unusable_radii_passed_over(self):
        _, draws, log_post = toy_problem(t=500)
        res = grid_estimate(draws, log_post, (1e-6, 2.0))
        assert res.radius_used == 2.0
        assert_same_result(res, fixed_radius_estimates(draws, log_post, (2.0,))[0])

    def test_all_empty_raises(self):
        _, draws, log_post = toy_problem(t=500)
        with pytest.raises(EmptyTruncationSet):
            grid_estimate(draws, log_post, (1e-8,))

    def test_no_finite_se_names_both_causes(self):
        # at 0.1 and 0.2 the set keeps one draw: not empty, but the SE is
        # infinite
        _, draws, log_post = toy_problem(t=200)
        for c in (0.1, 0.2):
            res = thames(draws, log_post,
                         ThamesOptions(radius_policy=RadiusPolicy.fixed(c)))
            assert res.n_inside == 1 and res.se_recip_rel == np.inf
        with pytest.raises(EmptyTruncationSet,
                           match="no grid radius gives a finite SE.*empty.*single draw"):
            grid_estimate(draws, log_post, (0.1, 0.2))

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidInput):
            ThamesOptions(radius_policy=RadiusPolicy.empirical_grid(()))

    def test_explicit_ellipsoid_ignores_grid(self):
        model, draws, log_post = toy_problem(t=500)
        m_n, s_n = model.posterior_params()
        oracle = Ellipsoid(m_n, math.sqrt(s_n) * np.eye(2), math.sqrt(3.0))
        grid = RadiusPolicy.empirical_grid((1.0, 2.0))
        res = thames(draws, log_post, ThamesOptions(radius_policy=grid),
                     ellipsoid=oracle)
        assert res.radius_used == math.sqrt(3.0)

    @pytest.mark.parametrize("seed", [1, 2, 4])
    def test_grid_choice_ignores_a_support_that_cuts_the_draws(self, seed):
        # a box cut at the median of theta_1 leaves about half of the
        # estimation draws out of the sum; the grid picks by the SEs over
        # every estimation draw, and only the result is masked
        draws = np.random.default_rng(seed).standard_normal((1000, 2))
        log_post = -0.5 * np.einsum("ij,ij->i", draws, draws)
        cut = float(np.median(draws[:, 0]))
        box = SupportPredicate.box((-50.0, -50.0), (cut, 50.0))
        opts = ThamesOptions(correction=ConstrainedCorrectionConfig(box, 1000))
        grid = (1.0, 1.5, 2.0, 2.5, 3.0)
        res = grid_estimate(draws, log_post, grid, opts)
        assert res.n_outside_support > 200
        assert res.radius_used == smallest_se(
            fixed_radius_estimates(draws, log_post, grid)).radius_used
        fixed = replace(opts, radius_policy=RadiusPolicy.fixed(res.radius_used))
        assert_same_result(res, thames(draws, log_post, fixed))
        # on these draws the masked sums' SEs would pick another radius
        masked = [empirical_scv(draws, log_post, c, opts) for c in grid]
        assert grid[int(np.argmin(masked))] != res.radius_used


class TestEmpiricalScv:
    def test_consistent_with_reported_se(self):
        _, draws, log_post = toy_problem()
        c = 2.0
        res = thames(draws, log_post,
                     ThamesOptions(radius_policy=RadiusPolicy.fixed(c)))
        assert empirical_scv(draws, log_post, c) == pytest.approx(
            res.t_estimation * res.se_recip_rel ** 2, rel=1e-12)

    def test_volume_ratio_adds_nothing(self):
        # every draw of |N(0, I_3)| lies in the orthant, so the terms are
        # the same with or without the support correction
        draws = np.abs(np.random.default_rng(0).standard_normal((4000, 3)))
        log_post = -0.5 * np.einsum("ij,ij->i", draws, draws)
        plain = empirical_scv(draws, log_post, 2.0)
        for n in (100, 1000, 100_000):
            cfg = ConstrainedCorrectionConfig(
                SupportPredicate.positive_orthant([0, 1, 2]), n_samples=n)
            opts = ThamesOptions(correction=cfg)
            assert empirical_scv(draws, log_post, 2.0, opts) == plain

    def test_support_masks_the_sum_without_the_ratio_variance(self):
        # with draws outside S the sum runs over A intersect S, and the SE
        # is that of the sum: thames()'s SE less R_hat's variance
        draws = np.random.default_rng(0).standard_normal((4000, 3))
        log_post = -0.5 * np.einsum("ij,ij->i", draws, draws)
        cfg = ConstrainedCorrectionConfig(SupportPredicate.positive_orthant([0]),
                                          n_samples=1000)
        opts = ThamesOptions(correction=cfg)
        res = thames(draws, log_post,
                     replace(opts, radius_policy=RadiusPolicy.fixed(2.0)))
        assert res.n_outside_support > 500
        r = res.correction_ratio
        sum_var = res.se_recip_rel ** 2 - (1.0 - r) / (cfg.n_samples * r)
        scv = empirical_scv(draws, log_post, 2.0, opts)
        assert scv == pytest.approx(res.t_estimation * sum_var, rel=1e-9)
        assert scv != empirical_scv(draws, log_post, 2.0)


def _fail_if_called(points):
    raise AssertionError("support callback called")


# each half of 2 * (2048 + 100) draws ends in a partial 2048-row block
T_BLOCKS = 2 * (2048 + 100)
# rows for the non-finite entry: the first, the last of the 64-row part of
# the fit half's partial block, the last and first of the two halves, the
# same row of the estimation half's partial block, and the last
NONFINITE_ROWS = (0, 2048 + 63, T_BLOCKS // 2 - 1, T_BLOCKS // 2,
                  T_BLOCKS // 2 + 2048 + 63, T_BLOCKS - 1)
NONFINITE_OPTIONS = {
    "default": ThamesOptions(),
    "no split": ThamesOptions(split=False),
    "grid": ThamesOptions(radius_policy=RadiusPolicy.empirical_grid((1.0, 2.0))),
    "explicit ellipsoid": ThamesOptions(split=False),
    "ar1": ThamesOptions(serial_correction="ar1"),
    "box": ThamesOptions(correction=ConstrainedCorrectionConfig(
        SupportPredicate.box([-50.0] * 3, [50.0] * 3), n_samples=1000)),
    "callback": ThamesOptions(correction=ConstrainedCorrectionConfig(
        SupportPredicate.callback(_fail_if_called))),
}


def _faulty(fault):
    """(draws, log_post, ellipsoid) of a d = 3 problem with one more fault
    than the non-finite draw to come, or none."""
    _, draws, log_post = toy_problem(d=3, t=T_BLOCKS)
    ellipsoid = None
    if fault == "log_post one short":
        log_post = log_post[:-1]
    elif fault == "NaN in log_post":
        log_post[1] = np.nan
    elif fault == "log_post of strings":
        log_post = ["x"] * len(log_post)
    elif fault == "T = 3":
        draws, log_post = draws[:3], log_post[:3]
    elif fault == "wrong-dimension ellipsoid":
        ellipsoid = Ellipsoid(np.zeros(4), np.eye(4), 2.0)
    return draws, log_post, ellipsoid


def _assert_nonfinite_wins(call, draws):
    """call(bad) raises the non-finite error for each bad value at each row."""
    for value in (np.nan, np.inf, -np.inf):
        for row in NONFINITE_ROWS:
            bad = draws.copy()
            row = min(row, bad.shape[0] - 1)
            bad[row, row % bad.shape[1]] = value
            with pytest.raises(InvalidInput,
                               match="^draw matrix contains non-finite entries$"):
                call(bad)


class TestNonFiniteDraws:
    """A non-finite draw raises the same error wherever it sits, whatever
    the options and whatever else is wrong with the call, and a support
    callback never sees it. A RuntimeWarning on the way fails the test."""

    @pytest.mark.parametrize("fault", ["none", "log_post one short",
                                       "NaN in log_post", "log_post of strings",
                                       "T = 3", "wrong-dimension ellipsoid"])
    @pytest.mark.parametrize("option", list(NONFINITE_OPTIONS))
    def test_thames(self, option, fault):
        draws, log_post, ellipsoid = _faulty(fault)
        if option == "explicit ellipsoid" and ellipsoid is None:
            ellipsoid = Ellipsoid(np.zeros(3), np.eye(3), 2.0)
        opts = NONFINITE_OPTIONS[option]
        _assert_nonfinite_wins(
            lambda bad: thames(bad, log_post, opts, ellipsoid=ellipsoid), draws)

    @pytest.mark.parametrize("fault", ["none", "log_post one short",
                                       "NaN in log_post", "log_post of strings",
                                       "T = 3"])
    @pytest.mark.parametrize("option", ["default", "no split", "box", "callback"])
    def test_empirical_scv(self, option, fault):
        draws, log_post, _ = _faulty(fault)
        opts = NONFINITE_OPTIONS[option]
        _assert_nonfinite_wins(
            lambda bad: empirical_scv(bad, log_post, 2.0, opts), draws)

    def test_finite_draws_whose_products_overflow(self):
        # the covariance of rows of +-1e200 overflows; the draws are finite,
        # so the error is the ellipsoid's
        signs = np.sign(np.random.default_rng(0).standard_normal((T_BLOCKS, 3)))
        with pytest.raises(InvalidInput,
                           match="^ellipsoid center and scale must be finite$"):
            thames(1e200 * signs, np.zeros(T_BLOCKS))
