"""Truncation-radius theory for a normal posterior.

The squared coefficient of variation (SCV) of a single truncated
reciprocal term has a closed form built from the radial integral

    f(d, c) = c^-(d-2) * int_0^c exp(r^2/2) r^(d-1) dr.

The explicit double-factorial expansion of f alternates in sign and
cancels catastrophically for moderate d, so f is evaluated here by
panel quadrature carried entirely in log space; the recursion

    f(d, c) = exp(c^2/2) - 1{d=2} - (d-2) f(d-2, c) / c^2,  f(0, c) = 0

and the d=1,2 closed forms are kept as test oracles only.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalFailure, Overflow
from .geometry import logsumexp

_GL_ORDER = 24


@functools.cache
def _gauss_legendre():
    """Nodes and log weights of the order-_GL_ORDER Gauss-Legendre rule."""
    nodes, weights = np.polynomial.legendre.leggauss(_GL_ORDER)
    return nodes, np.log(weights)


@dataclass(frozen=True)
class RadiusPolicy:
    """How the truncation radius is chosen for a given dimension."""

    kind: str  # "sqrt_d_plus_1" | "fixed" | "chisq_median" | "optimal" | "grid"
    value: float = None
    grid: tuple = None

    def __post_init__(self):
        if self.kind == "fixed":
            if self.value is None or not 0 < self.value < np.inf:
                raise InvalidInput("fixed radius must be finite and positive")
        elif self.kind == "grid":
            if not self.grid or any(not 0 < c < np.inf for c in self.grid):
                raise InvalidInput("radius grid must be nonempty, finite and positive")
        elif self.kind not in ("sqrt_d_plus_1", "chisq_median", "optimal"):
            raise InvalidInput(f"unknown radius policy {self.kind!r}")

    @classmethod
    def sqrt_d_plus_1(cls):
        return cls("sqrt_d_plus_1")

    @classmethod
    def fixed(cls, c):
        return cls("fixed", value=float(c))

    @classmethod
    def chisq_median(cls):
        return cls("chisq_median")

    @classmethod
    def optimal(cls):
        return cls("optimal")

    @classmethod
    def empirical_grid(cls, cs):
        return cls("grid", grid=tuple(float(c) for c in cs))


@dataclass(frozen=True)
class OptimalRadius:
    """Variance-minimizing radius c_d, its shift L_d = c_d^2 - d, and the SCV there."""

    c_d: float
    l_d: float
    scv_at_opt: float


def _check_dim(d):
    if int(d) != d or d < 1:
        raise InvalidInput(f"dimension must be a positive integer, got {d}")
    return int(d)


def _log_integral_panels(d, c, n_panels):
    """log int_0^c exp(r^2/2) r^(d-1) dr by composite Gauss-Legendre in log space."""
    edges = np.linspace(0.0, c, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes, log_weights = _gauss_legendre()
    # nodes: (n_panels, order)
    r = mid[:, None] + half[:, None] * nodes[None, :]
    with np.errstate(divide="ignore"):
        log_g = 0.5 * r * r + (d - 1) * np.log(r)
    log_w = np.log(half)[:, None] + log_weights[None, :]
    return logsumexp(log_g + log_w)


def log_f(d, c, tol=1e-10, max_panels=4096):
    """log f(d, c), stable up to d ~ 2000 without overflow.

    Panel count doubles until successive log results agree within tol.
    """
    d = _check_dim(d)
    if not (np.isfinite(c) and c > 0):
        raise InvalidInput(f"radius must be positive, got {c}")
    prev = None
    n = 8
    while n <= max_panels:
        cur = _log_integral_panels(d, c, n)
        if prev is not None and abs(cur - prev) <= tol:
            return cur - (d - 2) * np.log(c)
        prev = cur
        n *= 2
    raise NumericalFailure(f"quadrature for f({d}, {c}) did not stabilize")


def _log_scv_plus_one(d, c):
    # kappa_d * c^-(d+2) * f(d, c), assembled in logs. scipy's gammaln,
    # not math.lgamma: the two can differ in the last bit, and the scv
    # table prints 17 digits
    from scipy.special import gammaln

    log_kappa = np.log(d) + 0.5 * d * np.log(2.0) + gammaln(0.5 * d + 1.0)
    return log_kappa - (d + 2) * np.log(c) + log_f(d, c)


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


@functools.cache
def optimal_radius(d):
    """Unique SCV-minimizing radius, by bracketing on [sqrt(d), sqrt(d+4)]; cached."""
    from scipy.optimize import brentq

    d = _check_dim(d)
    lo, hi = np.sqrt(d), np.sqrt(d + 4.0)
    g = lambda c: _foc(d, c)
    if g(lo) * g(hi) > 0:
        hi = np.sqrt(2.0 * d + 4.0)
        if g(lo) * g(hi) > 0:
            raise NumericalFailure(f"no sign change bracketing c_{d}")
    c_d = brentq(g, lo, hi, rtol=1e-12, xtol=1e-12)
    return OptimalRadius(c_d=c_d, l_d=c_d * c_d - d, scv_at_opt=scv_normal(d, c_d))


def chi_square_median_radius(d):
    """sqrt of the chi-squared(d) median, the x with P(d/2, x/2) = 1/2."""
    from scipy.special import gammaincinv

    d = _check_dim(d)
    return float(np.sqrt(2.0 * gammaincinv(0.5 * d, 0.5)))


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
