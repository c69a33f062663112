"""Constrained-support correction: predicates, uniform sampling, volume ratio."""

import itertools
import math
import threading
import tracemalloc

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, ndtr, ndtri

from thames.correction import (
    _BLOCK_ROWS,
    ConstrainedCorrectionConfig,
    SupportPredicate,
    _into_ellipsoid,
    _uniform_blocks,
    estimate_volume_ratio,
)
from thames.errors import DegenerateTerm, InvalidInput, ZeroSupportOverlap
from thames.estimator import (
    ThamesOptions,
    ar1_inflation,
    thames,
    variance_recip_iid,
)
from thames.geometry import Ellipsoid, log_volume, mahalanobis_sq
from thames.models import GaussianMeanModel, gaussian_dataset
from thames.radius import RadiusPolicy


def sample_uniform(e, n, seed):
    """All n points of the volume ratio's uniform stream, as one array;
    each block is copied, since the next one is drawn into its memory."""
    return np.concatenate([pts.copy() for pts in _uniform_blocks(e, n, seed)])


def reference_points(e, n, seed):
    """The points of _uniform_blocks(e, n, seed) from the whole-array
    formula, as one C-ordered array: block b of _BLOCK_ROWS rows draws
    its normals, then its radii, from the seed's Philox stream jumped b
    times."""
    bits = np.random.Philox(key=np.uint64(seed))
    blocks = []
    for b, start in enumerate(range(0, n, _BLOCK_ROWS)):
        rows = min(_BLOCK_ROWS, n - start)
        gen = np.random.Generator(bits.jumped(b))
        g = gen.standard_normal((rows, e.dim))
        r = e.radius * gen.random(rows) ** (1.0 / e.dim)
        norms = np.sqrt(np.einsum("ij,ij->i", g, g))
        norms[norms == 0.0] = 1.0
        blocks.append(e.center + (g @ e.scale.T) * (r / norms)[:, None])
    return np.concatenate(blocks)


def cut_ellipsoid(d):
    """An ellipsoid around (1, ..., 1) / (d + 1), with a lower-triangular
    scale, that each support in CUT_SUPPORTS cuts for d from 1 to 100."""
    rng = np.random.default_rng(d)
    scale = np.tril(rng.standard_normal((d, d))) / math.sqrt(d)
    np.fill_diagonal(scale, 0.5 + 0.5 * rng.random(d))
    c = 1.0 / (d + 1)
    return Ellipsoid(np.full(d, c), scale * (c / (0.5 + math.sqrt(d) / 3)),
                     math.sqrt(d + 1.0))


# one support of each kind per dimension d, with the indices and bounds
# that cut_ellipsoid(d) sticks out of
CUT_SUPPORTS = {
    "orthant-some": lambda d: SupportPredicate.positive_orthant(range(0, d, 3)),
    "orthant-all": lambda d: SupportPredicate.positive_orthant(range(d)),
    "box": lambda d: SupportPredicate.box([0.0] * d, [2.0 / (d + 1)] * d),
    "simplex": lambda d: SupportPredicate.simplex(),
    "simplex-some": lambda d: SupportPredicate.simplex(range(0, d, 2)),
    "callback": lambda d: SupportPredicate.callback(
        lambda p: p[:, 0] + p[:, -1] > 2.0 / (d + 1)),
}


# a well-formed support of each kind, for dataclasses.replace to break
VALID = {
    "positive_orthant": SupportPredicate.positive_orthant([0]),
    "simplex": SupportPredicate.simplex([0]),
    "box": SupportPredicate.box([0.0], [1.0]),
    "callback": SupportPredicate.callback(lambda p: p[:, 0] > 0.0),
}

# (kind, fields) of supports that must not be built
MALFORMED = [
    ("bogus", {}),
    ("positive_orthant", {"indices": None}),
    ("positive_orthant", {"indices": ()}),
    ("simplex", {"indices": ()}),
    ("positive_orthant", {"indices": (0, -1)}),
    ("simplex", {"indices": (-1,)}),
    ("positive_orthant", {"indices": (1.5,)}),
    ("box", {"lower": None, "upper": None}),
    ("box", {"lower": (), "upper": ()}),
    ("box", {"lower": (0.0, 0.0), "upper": (1.0,)}),
    ("box", {"lower": (2.0,), "upper": (1.0,)}),
    ("box", {"lower": (1.0,), "upper": (1.0,)}),
    ("box", {"lower": (math.nan,), "upper": (1.0,)}),
    ("box", {"lower": ("x",), "upper": (1.0,)}),
    ("callback", {"func": None}),
    ("callback", {"func": 3}),
]


class TestSupportPredicate:
    def test_unbounded(self):
        pts = np.array([[1.0, -5.0], [0.0, 0.0]])
        assert SupportPredicate.unbounded().contains(pts).all()

    def test_positive_orthant_selected_indices(self):
        pred = SupportPredicate.positive_orthant([0])
        got = pred.contains(np.array([[1.0, -2.0], [-0.1, 3.0], [0.0, 1.0]]))
        assert got.tolist() == [True, False, False]

    def test_box(self):
        pred = SupportPredicate.box([-1.0, 0.0], [1.0, 2.0])
        got = pred.contains(np.array([[0.0, 1.0], [0.0, 2.0], [-2.0, 1.0]]))
        assert got.tolist() == [True, False, False]

    def test_box_validates_bounds(self):
        with pytest.raises(InvalidInput):
            SupportPredicate.box([1.0], [1.0])

    @pytest.mark.parametrize("lower, upper", [([math.nan], [1.0]),
                                              ([0.0], [math.nan])])
    def test_box_rejects_nan_bounds(self, lower, upper):
        # no comparison with NaN holds, so a NaN bound would hold no point
        with pytest.raises(InvalidInput):
            SupportPredicate.box(lower, upper)

    def test_simplex(self):
        pred = SupportPredicate.simplex()
        got = pred.contains(np.array([[0.2, 0.3], [0.6, 0.6], [-0.1, 0.5]]))
        assert got.tolist() == [True, False, False]

    def test_callback(self):
        pred = SupportPredicate.callback(lambda p: p[:, 0] > p[:, 1])
        got = pred.contains(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert got.tolist() == [True, False]

    def test_callback_matches_positive_orthant(self):
        pts = np.random.default_rng(12).standard_normal((5000, 4))
        pts[::9, 2] = 0.0
        calls = []

        def func(p):
            calls.append(p.shape)
            return np.all(p[:, [0, 2]] > 0.0, axis=1)

        got = SupportPredicate.callback(func).contains(pts)
        assert calls == [(5000, 4)]  # one call for the whole array
        assert np.array_equal(
            got, SupportPredicate.positive_orthant([0, 2]).contains(pts))

    @pytest.mark.parametrize("func", [
        lambda p: p[0] > 0.0,  # a per-point predicate: shape (d,)
        lambda p: p > 0.0,  # n x d
        lambda p: bool(p[0, 0] > 0.0),  # a scalar
    ])
    def test_callback_wrong_shape_rejected(self, func):
        with pytest.raises(InvalidInput, match="callback"):
            SupportPredicate.callback(func).contains(np.ones((3, 2)))

    def test_index_validation(self):
        with pytest.raises(InvalidInput):
            SupportPredicate.positive_orthant([3]).contains(np.zeros((1, 2)))

    @pytest.mark.parametrize("indices", [[-1], [0, -2]])
    def test_simplex_negative_index_rejected(self, indices):
        # as for positive_orthant: a negative index would otherwise wrap
        # round to a column counted from the end
        with pytest.raises(InvalidInput, match="out of range"):
            SupportPredicate.simplex(indices).contains(np.full((1, 2), 0.25))

    @pytest.mark.parametrize("make", [SupportPredicate.positive_orthant,
                                      SupportPredicate.simplex])
    def test_empty_index_list_rejected(self, make):
        # an empty list would select no coordinate and hold every point
        with pytest.raises(InvalidInput, match="at least one index"):
            make([])

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("indices", [None, (0, 2, 3, 5, 6, 7, 8, 9, 10, 1)])
    def test_simplex_sums_in_index_order(self, indices, order):
        # the summed coordinates are normalized to sum to 1, so that the
        # order of the sum decides membership: numpy sums pts[:, indices]
        # one coordinate at a time, in index order, in either input layout,
        # and the count passes the simplex its points in the column layout
        x = np.random.default_rng(0).dirichlet(np.ones(11), 4000)
        cols = list(range(11) if indices is None else indices)
        x[:, cols] /= x[:, cols].sum(axis=1, keepdims=True)
        total = x[:, cols[0]].copy()
        for i in cols[1:]:
            total += x[:, i]
        want = np.all(x[:, cols] > 0.0, axis=1) & (total < 1.0)
        # a row-ordered (pairwise) sum would decide other rows
        pairwise = np.ascontiguousarray(x[:, cols]).sum(axis=1) < 1.0
        assert np.count_nonzero(want != pairwise) > 100
        got = SupportPredicate.simplex(indices).contains(np.asarray(x, order=order))
        assert np.array_equal(got, want)

    def test_simplex_selected_indices(self):
        pred = SupportPredicate.simplex([0, 2])
        got = pred.contains(np.array([[0.2, -5.0, 0.3], [0.6, 0.1, 0.6]]))
        assert got.tolist() == [True, False]

    @pytest.mark.parametrize("build", ["direct", "replace"])
    @pytest.mark.parametrize("kind, changes", MALFORMED,
                             ids=[f"{k} {c}" for k, c in MALFORMED])
    def test_malformed_support_rejected_when_built(self, build, kind, changes):
        # however it is built, a malformed support fails at construction,
        # before thames() or contains() sees it
        with pytest.raises(InvalidInput):
            if build == "direct":
                SupportPredicate(kind, **changes)
            else:
                replace(VALID.get(kind, SupportPredicate.unbounded()),
                        kind=kind, **changes)

    def test_classmethods_equal_direct_construction(self):
        def func(p):
            return p[:, 0] > 0.0

        assert SupportPredicate.unbounded() == SupportPredicate("unbounded")
        assert (SupportPredicate.positive_orthant([0, 2])
                == SupportPredicate.positive_orthant(np.array([0, 2]))
                == SupportPredicate("positive_orthant", indices=(0, 2)))
        assert (SupportPredicate.box([0, -1], [1, 2])
                == SupportPredicate("box", lower=[0, -1], upper=(1, 2))
                == SupportPredicate("box", lower=(0.0, -1.0), upper=(1.0, 2.0)))
        assert SupportPredicate.simplex() == SupportPredicate("simplex")
        assert (SupportPredicate.simplex(range(2))
                == SupportPredicate("simplex", indices=(0, 1)))
        assert SupportPredicate.callback(func) == SupportPredicate("callback",
                                                                   func=func)

    @pytest.mark.parametrize("indices", [[4, 0], [2], [0, 3, 1], [1, 1, 4]])
    def test_positive_orthant_matches_fancy_index_form(self, indices):
        pts = np.random.default_rng(11).standard_normal((2000, 5))
        pts[::7, 1] = 0.0  # the boundary is outside the open orthant
        got = SupportPredicate.positive_orthant(indices).contains(pts)
        assert np.array_equal(got, np.all(pts[:, indices] > 0.0, axis=1))


class TestUniformSampling:
    """The points _uniform_blocks yields, which estimate_volume_ratio counts."""

    def test_all_points_inside(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 3))
        e = Ellipsoid.from_moments(np.array([1.0, 2.0, -1.0]),
                                   a.T @ a + np.eye(3), 2.0)
        pts = sample_uniform(e, 5000, seed=9)
        assert pts.shape == (5000, 3)
        assert np.all(mahalanobis_sq(pts, e) < e.radius ** 2)

    def test_deterministic_per_seed(self):
        e = Ellipsoid(np.zeros(2), np.eye(2), 1.0)
        assert np.array_equal(sample_uniform(e, 100, seed=3),
                              sample_uniform(e, 100, seed=3))
        assert not np.array_equal(sample_uniform(e, 100, seed=3),
                                  sample_uniform(e, 100, seed=4))

    def test_radial_distribution(self):
        # within a ball, P(|x| <= r) = (r/c)^d
        d, c = 3, 2.0
        e = Ellipsoid(np.zeros(d), np.eye(d), c)
        pts = sample_uniform(e, 100_000, seed=1)
        radii = np.linalg.norm(pts, axis=1)
        for frac in (0.25, 0.5, 0.75):
            expected = frac ** d
            got = np.mean(radii <= frac * c)
            assert got == pytest.approx(expected, abs=0.01)

    def test_mean_is_center(self):
        e = Ellipsoid(np.array([3.0, -1.0]), np.eye(2), 1.5)
        pts = sample_uniform(e, 50_000, seed=2)
        assert np.allclose(pts.mean(axis=0), e.center, atol=0.02)

    @pytest.mark.parametrize("d", [1, 10, 100])
    @pytest.mark.parametrize("n", [1000, 2 * _BLOCK_ROWS, 33_333])
    def test_blockwise_matches_whole_array_formula(self, n, d):
        rng = np.random.default_rng(d)
        scale = np.tril(rng.standard_normal((d, d)))
        np.fill_diagonal(scale, 1.0 + rng.random(d))
        e = Ellipsoid(rng.standard_normal(d), scale, math.sqrt(d + 1.0))
        # the reference stream: block b of _BLOCK_ROWS rows draws its
        # normals, then its radii, from the seed's Philox stream jumped b
        # times, and maps them with the whole-block formula
        bits = np.random.Philox(key=np.uint64(17))
        blocks = []
        for b, start in enumerate(range(0, n, _BLOCK_ROWS)):
            rows = min(_BLOCK_ROWS, n - start)
            gen = np.random.Generator(bits.jumped(b))
            g = gen.standard_normal((rows, d))
            r = e.radius * gen.random(rows) ** (1.0 / d)
            norms = np.sqrt(np.einsum("ij,ij->i", g, g))
            norms[norms == 0.0] = 1.0
            blocks.append(e.center + (g @ e.scale.T) * (r / norms)[:, None])
        expected = np.concatenate(blocks)
        assert np.array_equal(sample_uniform(e, n, seed=17), expected)

    @pytest.mark.parametrize("b", [0, 1, 5])
    def test_block_matches_arrays_filled_from_its_stream(self, b):
        # a block's normals and radii are the numbers that filling
        # preallocated arrays from its jumped stream gives, so how the
        # arrays are made does not move R_hat; block 5 is the short last one
        d, n = 3, 5 * _BLOCK_ROWS + 7
        e = Ellipsoid(np.array([0.5, -1.0, 2.0]), np.diag([1.0, 2.0, 0.5]), 1.5)
        rows = min(_BLOCK_ROWS, n - b * _BLOCK_ROWS)
        gen = np.random.Generator(np.random.Philox(key=np.uint64(11)).jumped(b))
        g, u = np.empty((rows, d)), np.empty(rows)
        gen.standard_normal(out=g)
        gen.random(out=u)
        block = next(itertools.islice(_uniform_blocks(e, n, seed=11), b, None))
        assert np.array_equal(block, _into_ellipsoid(e, g, u))

    def test_blocks_are_drawn_one_at_a_time(self, monkeypatch):
        # block b + 1's stream is made only when block b has been taken,
        # so a count's memory does not grow with n
        made = []
        generator = np.random.Generator

        def recorded(bits):
            made.append(bits)
            return generator(bits)

        monkeypatch.setattr(np.random, "Generator", recorded)
        e = Ellipsoid(np.zeros(2), np.eye(2), 1.0)
        sizes = []
        for pts in _uniform_blocks(e, 3 * _BLOCK_ROWS + 5, seed=1):
            sizes.append(len(pts))
            # the seed's generator, then one per block taken so far
            assert len(made) == 1 + len(sizes)
        assert sizes == [_BLOCK_ROWS] * 3 + [5]

    def test_rejects_bad_count(self):
        e = Ellipsoid(np.zeros(1), np.eye(1), 1.0)
        with pytest.raises(InvalidInput):
            sample_uniform(e, 0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_rejects_seed_outside_64_bits(self, seed):
        e = Ellipsoid(np.zeros(1), np.eye(1), 1.0)
        with pytest.raises(InvalidInput):
            sample_uniform(e, 10, seed=seed)

    def test_accepts_largest_64_bit_seed(self):
        e = Ellipsoid(np.zeros(1), np.eye(1), 1.0)
        assert sample_uniform(e, 10, seed=2 ** 64 - 1).shape == (10, 1)


class TestVolumeRatio:
    def test_halfspace_through_center(self):
        e = Ellipsoid(np.zeros(2), np.eye(2), 1.0)
        r_hat, ci = estimate_volume_ratio(
            e, SupportPredicate.positive_orthant([0]), 20_000, seed=7)
        assert r_hat == pytest.approx(0.5, abs=0.02)
        assert ci[0] < r_hat < ci[1]

    def test_unbounded_is_exactly_one(self):
        e = Ellipsoid(np.zeros(3), np.eye(3), 1.0)
        r_hat, ci = estimate_volume_ratio(e, SupportPredicate.unbounded(),
                                          100, seed=0)
        assert r_hat == 1.0 and ci == (1.0, 1.0)

    def test_unbounded_draws_nothing(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("an unbounded support drew a sample")

        monkeypatch.setattr("thames.correction._uniform_blocks", no_sampling)
        e = Ellipsoid(np.zeros(3), np.eye(3), 1.0)
        unbounded = SupportPredicate.unbounded()
        assert estimate_volume_ratio(e, unbounded, 10 ** 9, seed=0) == (
            1.0, (1.0, 1.0))
        for n, seed in [(0, 0), (100, -1)]:  # the count and seed are checked
            with pytest.raises(InvalidInput):
                estimate_volume_ratio(e, unbounded, n, seed)

    def test_zero_overlap_raises(self):
        # at R_hat = 0 the interval would be [0, 0]: the error carries none
        e = Ellipsoid(np.full(2, -100.0), np.eye(2), 1.0)
        with pytest.raises(ZeroSupportOverlap) as exc_info:
            estimate_volume_ratio(e, SupportPredicate.positive_orthant([0, 1]),
                                  200, seed=0)
        assert not hasattr(exc_info.value, "ci")

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, float("nan")])
    def test_rejects_bad_level(self, level):
        e = Ellipsoid(np.zeros(2), np.eye(2), 1.0)
        with pytest.raises(InvalidInput):
            estimate_volume_ratio(e, SupportPredicate.unbounded(), 100, seed=0,
                                  ci_level=level)

    @pytest.mark.parametrize("d, n, kind", [
        (d, n, kind) for d in (1, 3, 10, 100)
        for n in (_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 33_333)
        for kind in CUT_SUPPORTS])
    def test_counts_the_sampled_points(self, d, n, kind):
        # the blockwise count, on transposed blocks, accepts exactly the
        # C-ordered whole-array points that the support accepts
        e = cut_ellipsoid(d)
        support = CUT_SUPPORTS[kind](d)
        r_hat, _ = estimate_volume_ratio(e, support, n, seed=5)
        assert 0.0 < r_hat < 1.0
        assert r_hat == support.contains(reference_points(e, n, 5)).mean()

    def test_callback_gets_c_ordered_blocks(self):
        # once per block, on a copy in the n x d row layout
        d, n = 3, 2 * _BLOCK_ROWS + 5
        e = cut_ellipsoid(d)
        seen = []

        def record(pts):
            seen.append(pts.copy())
            assert pts.dtype == np.float64 and pts.flags.c_contiguous
            return pts[:, 0] > pts[:, 1]

        estimate_volume_ratio(e, SupportPredicate.callback(record), n, seed=5)
        assert [len(pts) for pts in seen] == [_BLOCK_ROWS, _BLOCK_ROWS, 5]
        assert np.array_equal(np.concatenate(seen), reference_points(e, n, 5))

    def test_callback_error_stops_the_count(self):
        # blocks are drawn and counted on the calling thread, one after the
        # other: no thread is started, and an error in the support's
        # callback ends the count at the block that raised it
        baseline = threading.active_count()
        running, calls = [], []

        def positive(pts):
            running.append(threading.active_count())
            return pts[:, 0] > 0.0

        def failing(pts):
            calls.append(len(pts))
            if len(calls) == 2:
                raise RuntimeError("support callback failed")
            return pts[:, 0] > 0.0

        e = Ellipsoid(np.zeros(2), np.eye(2), 1.0)
        estimate_volume_ratio(e, SupportPredicate.callback(positive),
                              3 * _BLOCK_ROWS, seed=1)
        assert running == [baseline] * 3
        with pytest.raises(RuntimeError, match="support callback failed"):
            estimate_volume_ratio(e, SupportPredicate.callback(failing),
                                  10 * _BLOCK_ROWS, seed=1)
        assert calls == [_BLOCK_ROWS, _BLOCK_ROWS]
        assert threading.active_count() == baseline

    def test_memory_does_not_grow_with_n(self):
        # the whole 10**6 x 10 sample alone would take 80 MB
        d = 10
        e = Ellipsoid(np.full(d, 0.2), np.eye(d), math.sqrt(d + 1.0))
        support = SupportPredicate.positive_orthant(range(d))
        tracemalloc.start()
        try:
            estimate_volume_ratio(e, support, 1_000_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_memory_holds_two_blocks(self):
        # at d = 100 a block of _BLOCK_ROWS points takes 13 MB; a count
        # holds the normals, which the points overwrite, and their product
        # with the scale factor, and a third block would take it past 39 MB
        d = 100
        e = Ellipsoid(np.full(d, 2.5), np.eye(d), math.sqrt(d + 1.0))
        support = SupportPredicate.positive_orthant(range(d))
        tracemalloc.start()
        try:
            r_hat, _ = estimate_volume_ratio(e, support, 200_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < r_hat < 1.0
        assert peak < 32e6

    def test_quarter_plane_oracle(self):
        # orthant through the center of a spherical ellipsoid: ratio 1/4
        e = Ellipsoid(np.zeros(2), np.eye(2), 2.0)
        r_hat, _ = estimate_volume_ratio(
            e, SupportPredicate.positive_orthant([0, 1]), 40_000, seed=21)
        assert r_hat == pytest.approx(0.25, abs=0.01)


def truncated_problem(d=2, t=2000, seed=4, n=20, mu=0.2):
    """Draws, log posterior and exact log Z of the Gaussian mean model
    with y_i ~ N(mu, I) and the prior N(0, I) truncated to the positive
    orthant (density 2^d N(0, I) there). The posterior is the untruncated
    one restricted to the orthant, drawn by inverse CDF, so
    Z = 2^d Z_untruncated prod_j Phi(m_j / s_n^(1/2))."""
    rng = np.random.default_rng(seed)
    model = GaussianMeanModel(1.0, mu + rng.standard_normal((n, d)))
    m, s_n = model.posterior_params()
    sd = math.sqrt(s_n)
    lo = ndtr(-m / sd)
    u = lo + (1.0 - lo) * rng.random((t, d))
    draws = np.maximum(m + sd * ndtri(u), np.finfo(float).tiny)
    log_post = model.log_post(draws) + d * math.log(2.0)
    exact = (model.exact_log_marginal() + d * math.log(2.0)
             + float(np.sum(np.log(ndtr(m / sd)))))
    return draws, log_post, exact


def corrected(support, n_samples=5000, seed=13, **opts):
    """(plain, corrected) estimates on the truncated_problem() draws."""
    draws, log_post, _ = truncated_problem()
    cfg = ConstrainedCorrectionConfig(support, n_samples, seed)
    return (thames(draws, log_post, ThamesOptions(**opts)),
            thames(draws, log_post, ThamesOptions(correction=cfg, **opts)))


ORTHANT = SupportPredicate.positive_orthant([0, 1])


class TestApplyCorrection:
    """The support correction inside thames(): the truncation set is the
    ellipsoid intersected with the support, of volume V(A) * R_hat."""

    def test_shifts_by_log_ratio(self):
        plain, res = corrected(ORTHANT)
        r = res.correction_ratio
        assert 0.0 < r < 1.0
        # every draw lies in the support, so only the volume changes
        assert res.n_inside == plain.n_inside
        assert res.log_recip_z == plain.log_recip_z - math.log(r)
        assert res.log_z == plain.log_z + math.log(r)
        assert res.ellipsoid.radius == plain.ellipsoid.radius

    def test_ratio_one_is_identity(self):
        plain, res = corrected(SupportPredicate.unbounded())
        assert res.correction_ratio == 1.0 and res.correction_ci == (1.0, 1.0)
        assert res.n_outside_support == 0
        for f in fields(res):
            if f.name not in ("ellipsoid", "correction_ratio", "correction_ci",
                              "n_outside_support"):
                assert getattr(res, f.name) == getattr(plain, f.name), f.name

    def test_rejects_out_of_range(self):
        # a support that misses the ellipsoid gives R_hat = 0: no estimate
        with pytest.raises(ZeroSupportOverlap, match="no uniform sample"):
            corrected(SupportPredicate.box((50.0, 50.0), (60.0, 60.0)), 200)

    @given(st.integers(min_value=100, max_value=5000),
           st.integers(min_value=0, max_value=2 ** 64 - 1))
    @settings(max_examples=30, deadline=None)
    def test_round_trips_through_reciprocal(self, n_samples, seed):
        _, res = corrected(ORTHANT, n_samples, seed)
        assert res.log_z + res.log_recip_z == 0.0

    def test_se_adds_volume_ratio_variance(self):
        plain, res = corrected(ORTHANT, n_samples=400)
        r = res.correction_ratio
        expected = math.sqrt(plain.se_recip_rel ** 2 + (1.0 - r) / (400 * r))
        assert res.se_recip_rel == pytest.approx(expected, rel=1e-14)
        z = 1.959963984540054
        assert res.ci_log_z[0] == pytest.approx(
            -(res.log_recip_z + math.log1p(z * res.se_recip_rel)), rel=1e-14)
        assert res.ci_log_z[1] == pytest.approx(
            -(res.log_recip_z + math.log(1.0 - z * res.se_recip_rel)), rel=1e-14)

    def test_grid_choice_is_uncorrected(self):
        # at n = 200 the volume ratio's variance moves the smallest
        # corrected SE to 1.5; the uncorrected one is at 2.0
        grid = RadiusPolicy.empirical_grid((1.0, 1.5, 2.0, 2.5))
        plain, res = corrected(ORTHANT, n_samples=200, radius_policy=grid)
        assert res.radius_used == plain.radius_used == 2.0
        assert res.log_z == plain.log_z + math.log(res.correction_ratio)


def wilson_interval(k, n, z=1.959963984540054):
    p = k / n
    center = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
    return center - half, center + half


class TestEstimatorIntegration:
    def test_correction_option_matches_manual_application(self):
        self.check_against_numpy(cut=False)  # every draw lies in S

    def test_draws_outside_support_match_manual_application(self):
        self.check_against_numpy(cut=True)  # half the draws lie outside S

    @staticmethod
    def check_against_numpy(cut):
        # the sum runs over A and S, with volume V(A) * R_hat; T' counts
        # every estimation draw, in S or not
        draws, log_post, _ = truncated_problem()
        support = ORTHANT
        if cut:
            m = draws[:, 0].mean()
            support = SupportPredicate.box((m, -100.0), (100.0, 100.0))
        cfg = ConstrainedCorrectionConfig(support, n_samples=5000, seed=13)
        auto = thames(draws, log_post, ThamesOptions(correction=cfg))
        plain = thames(draws, log_post, ThamesOptions())
        r_hat, r_ci = estimate_volume_ratio(plain.ellipsoid, cfg.support,
                                            cfg.n_samples, cfg.seed)
        e, est, lp = plain.ellipsoid, draws[1000:], log_post[1000:]
        in_s = support.contains(est)
        keep = (mahalanobis_sq(est, e) < e.radius ** 2) & in_s
        x = -lp[keep] - log_volume(e) - math.log(r_hat)
        log_m1 = logsumexp(x) - math.log(1000)
        log_m2 = logsumexp(2.0 * x) - math.log(1000)
        se = math.sqrt((math.exp(log_m2 - 2.0 * log_m1) - 1.0) / 1000
                       + (1.0 - r_hat) / (cfg.n_samples * r_hat))
        assert auto.log_recip_z == pytest.approx(log_m1, rel=1e-12)
        assert auto.se_recip_rel == pytest.approx(se, rel=1e-10)
        assert auto.n_inside == int(keep.sum())
        assert auto.t_estimation == plain.t_estimation == 1000
        assert auto.correction_ratio == r_hat < 1.0
        assert auto.correction_ci == r_ci
        assert plain.correction_ci is None
        assert in_s.all() != cut
        assert auto.n_outside_support == (int((~in_s).sum()) if cut else 0)
        assert plain.n_outside_support is None
        if cut:
            assert auto.n_inside < plain.n_inside
        else:
            assert auto.n_inside == plain.n_inside

    def test_draw_outside_support_is_left_out(self):
        # a zero-density draw outside S would make the plain sum infinite
        draws, log_post, _ = truncated_problem()
        center = thames(draws, log_post).ellipsoid.center
        draws[-1] = (-1e-3, center[1])
        log_post[-1] = -np.inf
        with pytest.raises(DegenerateTerm):
            thames(draws, log_post)
        cfg = ConstrainedCorrectionConfig(ORTHANT, 5000, 13)
        res = thames(draws, log_post, ThamesOptions(correction=cfg))
        assert np.isfinite(res.log_z) and res.t_estimation == 1000

    def test_ar1_inflates_only_the_sum_over_the_support(self):
        # the estimation half sorted within blocks of 10 draws: a series
        # with positive lag-1 autocorrelation; the box cuts the ellipsoid
        draws, log_post, _ = truncated_problem()
        blocks = np.arange(1000, 2000).reshape(100, 10)
        order = np.take_along_axis(
            blocks, np.argsort(log_post[blocks], axis=1), axis=1).ravel()
        draws[1000:], log_post[1000:] = draws[order], log_post[order]
        support = SupportPredicate.box((draws[:, 0].mean(), -100.0), (100.0, 100.0))
        cfg = ConstrainedCorrectionConfig(support, n_samples=400, seed=13)
        iid = thames(draws, log_post, ThamesOptions(correction=cfg))
        ar1 = thames(draws, log_post,
                     ThamesOptions(correction=cfg, serial_correction="ar1"))
        assert ar1.log_recip_z == iid.log_recip_z
        assert ar1.correction_ratio == iid.correction_ratio

        e, est, lp = iid.ellipsoid, draws[1000:], log_post[1000:]
        in_a = mahalanobis_sq(est, e) < e.radius ** 2
        in_s = support.contains(est)
        assert (in_a & ~in_s).any()
        se_sum = variance_recip_iid(-lp[in_a & in_s], 1000, 0.0)
        r = iid.correction_ratio
        var_r = (1.0 - r) / (400 * r)
        factor = ar1_inflation(np.where(in_a & in_s, -lp, -np.inf))
        # the series without the draws outside S gives another factor
        factor_a = ar1_inflation(np.where(in_a, -lp, -np.inf))
        assert factor > 1.0 and factor != pytest.approx(factor_a, rel=1e-3)
        assert iid.se_recip_rel ** 2 == pytest.approx(se_sum ** 2 + var_r, rel=1e-12)
        assert ar1.se_recip_rel ** 2 == pytest.approx(
            se_sum ** 2 * factor + var_r, rel=1e-12)
        # the variance of R_hat is not inflated
        assert ar1.se_recip_rel < math.sqrt(factor) * iid.se_recip_rel

    def test_interval_covers_on_truncated_prior(self):
        # d = 1, the prior truncated to theta > 0: the ellipsoid sticks
        # out of the support, and R_hat from 100 uniform points carries a
        # large share of the error
        reps, covered = 1000, 0
        for rep in range(reps):
            draws, log_post, exact = truncated_problem(d=1, seed=rep)
            cfg = ConstrainedCorrectionConfig(
                SupportPredicate.positive_orthant([0]), n_samples=100, seed=rep)
            res = thames(draws, log_post, ThamesOptions(correction=cfg))
            covered += res.ci_log_z[0] <= exact <= res.ci_log_z[1]
        lower, upper = wilson_interval(covered, reps)
        assert lower <= 0.95 <= upper, covered

    def test_correction_ci_follows_ci_level(self):
        model = GaussianMeanModel(1.0, gaussian_dataset(2, seed=8))
        draws = model.posterior_sample(2000, 9)
        log_post = model.log_post(draws)
        c0, c1 = thames(draws, log_post).ellipsoid.center
        # a box through the ellipsoid's center, so R is near 1/2
        cfg = ConstrainedCorrectionConfig(
            support=SupportPredicate.box((c0, c1 - 100.0), (c0 + 100.0, c1 + 100.0)),
            n_samples=5000, seed=13)
        widths = []
        for level in (0.5, 0.95, 0.99):
            res = thames(draws, log_post,
                         ThamesOptions(ci_level=level, correction=cfg))
            _, r_ci = estimate_volume_ratio(res.ellipsoid, cfg.support,
                                            cfg.n_samples, cfg.seed, level)
            assert res.correction_ci == r_ci
            lower, upper = res.correction_ci
            assert lower < res.correction_ratio < upper
            widths.append(upper - lower)
        assert widths[0] < widths[1] < widths[2]

    def test_config_validates_sample_count(self):
        with pytest.raises(InvalidInput):
            ConstrainedCorrectionConfig(support=SupportPredicate.unbounded(),
                                        n_samples=0)

    @pytest.mark.parametrize("support", ["positive:0", None, ORTHANT.contains])
    def test_config_rejects_a_support_that_is_not_a_predicate(self, support):
        # thames() would end in AttributeError on any of these
        with pytest.raises(InvalidInput, match="^support must be a SupportPredicate"):
            ConstrainedCorrectionConfig(support=support)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, None])
    def test_config_validates_seed(self, seed):
        with pytest.raises(InvalidInput):
            ConstrainedCorrectionConfig(support=SupportPredicate.unbounded(),
                                        seed=seed)

    @pytest.mark.parametrize("n_samples", [20000.0, "100"])
    def test_config_rejects_non_integer_count(self, n_samples):
        with pytest.raises(InvalidInput, match="^sample count .* is not an integer"):
            ConstrainedCorrectionConfig(support=SupportPredicate.unbounded(),
                                        n_samples=n_samples)

    def test_config_accepts_numpy_integers(self):
        cfg = ConstrainedCorrectionConfig(SupportPredicate.positive_orthant([0]),
                                          n_samples=np.int64(500),
                                          seed=np.uint64(2 ** 64 - 1))
        e = Ellipsoid(np.zeros(1), np.eye(1), 1.0)
        assert estimate_volume_ratio(e, cfg.support, cfg.n_samples, cfg.seed) == \
            estimate_volume_ratio(e, cfg.support, 500, 2 ** 64 - 1)
