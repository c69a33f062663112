"""Truncation-radius theory for a normal posterior.

The squared coefficient of variation (SCV) of a single truncated
reciprocal term has a closed form built from the radial integral

    f(d, c) = c^-(d-2) * int_0^c exp(r^2/2) r^(d-1) dr
            = (c^2/d) * M(d/2, d/2 + 1, c^2/2),

where M is Kummer's confluent hypergeometric function (DLMF 13.2.2).
With a = d/2 and x = c^2/2 its series is sum_k a/(a+k) * x^k/k!, whose
terms are all positive, so log f is one log-sum-exp with no
cancellation and nothing to converge. Only the terms with k within
12 sqrt(x) + 40 of x can matter (together the rest weigh less than
exp(-70) of the sum), so a call costs O(sqrt(x)) terms. Radii above
MAX_RADIUS are refused with Overflow; below it no call needs more than
about 17 000 terms. The recursion

    f(d, c) = exp(c^2/2) - 1{d=2} - (d-2) f(d-2, c) / c^2,  f(0, c) = 0

and the d=1,2 closed forms are kept as test oracles only.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalFailure, Overflow
from .geometry import logsumexp

# the series window grows with c; at this radius the SCV already overflows
# a double for every d up to 500 000
MAX_RADIUS = 1000.0
# Newton steps allowed for c_d and the chi-squared median; a few suffice
# whenever the function changes sign
_MAX_STEPS = 100
_EXP_M700 = math.exp(-700.0)


@dataclass(frozen=True)
class RadiusPolicy:
    """How the truncation radius is chosen for a given dimension."""

    kind: str  # "sqrt_d_plus_1" | "fixed" | "chisq_median" | "optimal" | "grid"
    value: float = None
    grid: tuple = None

    def __post_init__(self):
        if self.kind not in ("sqrt_d_plus_1", "fixed", "chisq_median", "optimal", "grid"):
            raise InvalidInput(f"unknown radius policy {self.kind!r}")
        try:  # value and grid become floats; a missing one is a TypeError
            if self.kind == "fixed":
                object.__setattr__(self, "value", float(self.value))
            elif self.kind == "grid":
                object.__setattr__(self, "grid", tuple(map(float, self.grid)))
        except (TypeError, ValueError) as exc:
            raise InvalidInput(f"{self.kind} radius: {exc}") from None
        if self.kind == "fixed" and not 0 < self.value < np.inf:
            raise InvalidInput("fixed radius must be finite and positive")
        if self.kind == "grid" and (not self.grid or any(not 0 < c < np.inf
                                                         for c in self.grid)):
            raise InvalidInput("radius grid must be nonempty, finite and positive")

    @classmethod
    def sqrt_d_plus_1(cls):
        return cls("sqrt_d_plus_1")

    @classmethod
    def fixed(cls, c):
        return cls("fixed", value=c)

    @classmethod
    def chisq_median(cls):
        return cls("chisq_median")

    @classmethod
    def optimal(cls):
        return cls("optimal")

    # kept only while bench/ times grid_tune_d100; ROADMAP item 2 deletes it
    @classmethod
    def empirical_grid(cls, cs):
        return cls("grid", grid=cs)


@dataclass(frozen=True)
class OptimalRadius:
    """Variance-minimizing radius c_d, its shift L_d = c_d^2 - d, and the SCV there."""

    c_d: float
    l_d: float
    scv_at_opt: float


def _check_dim(d):
    try:
        ok = int(d) == d and d >= 1
    except (TypeError, ValueError, OverflowError):  # None, NaN, inf
        ok = False
    if not ok:
        raise InvalidInput(f"dimension must be a positive integer, got {d!r:.40}")
    return int(d)


def log_f(d, c):
    """log f(d, c), the log of (c^2/d) * M(d/2, d/2 + 1, c^2/2).

    The Kummer series is summed in log space over the window
    k in [x - 12 sqrt(x) - 40, x + 12 sqrt(x) + 40], x = c^2/2, with
    log(x^k / k!) from one lgamma anchor and a running sum of log(x/k).
    x is carried as its log, so a radius whose square underflows still
    gives 2 log c - log d. Raises Overflow above MAX_RADIUS. The
    recursion and the d = 1, 2 closed forms above serve as test oracles.
    """
    d = _check_dim(d)
    if not (np.isfinite(c) and c > 0):
        raise InvalidInput(f"radius must be positive, got {c}")
    if c > MAX_RADIUS:
        raise Overflow(f"radius {c} exceeds the radius-theory cap {MAX_RADIUS:g}",
                       log_value=math.inf)
    a = 0.5 * d
    log_c = math.log(c)
    log_x = 2.0 * log_c - math.log(2.0)
    x = 0.5 * c * c
    spread = 12.0 * math.sqrt(x) + 40.0
    k0 = max(0, math.floor(x - spread))
    k = np.arange(k0, math.ceil(x + spread) + 1, dtype=float)
    steps = np.empty(k.size)
    steps[0] = k0 * log_x - math.lgamma(k0 + 1.0)
    steps[1:] = log_x - np.log(k[1:])
    terms = np.log(a / (a + k)) + np.cumsum(steps)
    return 2.0 * log_c - math.log(d) + logsumexp(terms)


def _log_scv_plus_one(d, c):
    # kappa_d * c^-(d+2) * f(d, c), assembled in logs
    log_kappa = math.log(d) + 0.5 * d * math.log(2.0) + math.lgamma(0.5 * d + 1.0)
    return log_kappa - (d + 2) * math.log(c) + log_f(d, c)


def scv_normal(d, c):
    """Squared coefficient of variation of one truncated reciprocal term."""
    d = _check_dim(d)
    if not (np.isfinite(c) and c > 0):
        raise InvalidInput(f"radius must be positive, got {c}")
    log_val = _log_scv_plus_one(d, c)
    if log_val > 700.0:
        raise Overflow("SCV overflows double precision", log_value=log_val)
    return float(np.expm1(log_val))


def _foc(d, c):
    """Log of the first-order-condition ratio; zero at the optimal radius.

    The stationarity condition is 2d f(d,c) / c^2 = exp(c^2/2).
    """
    return np.log(2.0 * d) + log_f(d, c) - 2.0 * np.log(c) - 0.5 * c * c


def _newton_root(value_and_slope, x, lo, hi, failure):
    """Root in (lo, hi) of a function positive at lo and negative at hi.

    value_and_slope(x) gives the function and its derivative at x.
    Newton steps start at x; one that would leave the bracket of the
    signs seen so far bisects it instead. The iteration stops at a
    Newton step of at most 1e-12 x, or at x once values of both signs
    have been seen at adjacent doubles: rounding noise in the function
    can keep every Newton step above 1e-12 x, and such a bracket cannot
    be split. It raises NumericalFailure(failure) after _MAX_STEPS.
    """
    signs = set()
    for _ in range(_MAX_STEPS):
        g, slope = value_and_slope(x)
        if g == 0.0:
            return x
        if g > 0.0:
            lo = x
        else:
            hi = x
        signs.add(g > 0.0)
        step = -g / slope
        if abs(step) <= 1e-12 * x:
            return x + step
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi) and len(signs) == 2:
            return x
        x = x + step if lo < x + step < hi else mid
    raise NumericalFailure(failure)


@functools.cache
def optimal_radius(d):
    """Unique SCV-minimizing radius c_d, the root of _foc in [sqrt(d), sqrt(d+4)]; cached.

    _foc is positive at sqrt(d), negative at sqrt(d+4), and its
    derivative is (2d exp(-g) - d - c^2) / c with g = _foc(d, c), so a
    Newton step costs one log_f call. The steps start at sqrt(d+1).
    """
    d = _check_dim(d)

    def foc_and_slope(c):
        g = float(_foc(d, c))
        return g, (2.0 * d * math.exp(-g) - d - c * c) / c

    c = _newton_root(foc_and_slope, math.sqrt(d + 1.0), math.sqrt(d),
                     math.sqrt(d + 4.0),
                     f"Newton iteration for c_{d} did not converge")
    return OptimalRadius(c_d=c, l_d=c * c - d, scv_at_opt=scv_normal(d, c))


def chi2_cdf(d, q):
    """P(d/2, q/2), the chi-squared(d) CDF at q, for a positive integer d.

    One minus the finite upper tail (Abramowitz & Stegun 26.4.4-5) with
    x = q/2: e^-x sum_{k < d/2} x^k / k! for even d, and for odd d
    erfc(sqrt x) + e^-x sum_{k < (d-1)/2} x^(k+1/2) / Gamma(k + 3/2).
    Each term is the one before times x / (k + h), h = 0 or 1/2. The
    sum is kept scaled by e^x, which is taken back at the end, so that
    no term underflows for x > 700; whenever it passes 1e290 it is
    multiplied by e^-700 and the shift is carried exactly. From
    q = 4d + 400 on, the tail is below 2^-60 and 1.0 is returned, so no
    ratio overflows.
    """
    d = _check_dim(d)
    if not q >= 0.0:
        raise InvalidInput(f"chi-squared argument must be >= 0, got {q}")
    if q >= 4.0 * d + 400.0:
        return 1.0
    x = 0.5 * q
    h = 0.5 * (d % 2)
    term = 2.0 * math.sqrt(x / math.pi) if h else 1.0
    total, shift = 0.0, 0.0
    for k in range(d // 2):
        if k:
            term *= x / (k + h)
        total += term
        if total > 1e290:
            total, term, shift = total * _EXP_M700, term * _EXP_M700, shift + 700.0
    tail = total * math.exp(shift - x)
    if h:
        tail += math.erfc(math.sqrt(x))
    return 1.0 - tail


@functools.cache
def chi_square_median_radius(d):
    """sqrt of the chi-squared(d) median, the q with chi2_cdf(d, q) = 1/2; cached.

    The median lies in (d - 1, d). Newton steps on 1/2 - chi2_cdf(d, q),
    whose slope is minus the chi-squared(d) density, start at the
    Wilson-Hilferty value d (1 - 2/(9d))^3.
    """
    d = _check_dim(d)
    log_norm = 0.5 * d * math.log(2.0) + math.lgamma(0.5 * d)

    def gap_and_slope(q):
        density = math.exp((0.5 * d - 1.0) * math.log(q) - 0.5 * q - log_norm)
        return 0.5 - chi2_cdf(d, q), -density

    q = _newton_root(gap_and_slope, d * (1.0 - 2.0 / (9.0 * d)) ** 3, d - 1.0,
                     float(d), f"Newton iteration for the chi-squared median, "
                     f"d = {d}, did not converge")
    return math.sqrt(q)


def scv_bounds(d):
    """(lower, upper) sandwich bounds on the SCV at c_d and sqrt(d+1)."""
    d = _check_dim(d)
    root = np.sqrt((d + 2.0) * np.pi / 4.0)
    return 0.63 * root - 1.0, 1.09 * 2.0 * root - 1.0


def resolve_radius(policy: RadiusPolicy, d):
    """Concrete radius for a policy, or None when grid tuning is required."""
    d = _check_dim(d)
    if policy.kind == "sqrt_d_plus_1":
        return float(np.sqrt(d + 1.0))
    if policy.kind == "fixed":
        return policy.value
    if policy.kind == "chisq_median":
        return chi_square_median_radius(d)
    if policy.kind == "optimal":
        return optimal_radius(d).c_d
    return None  # grid: tuned empirically by the estimator
