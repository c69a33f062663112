"""Truncated harmonic mean estimation of the reciprocal marginal likelihood.

One kernel, _estimate, takes per-draw log terms x_t over the T'
estimation draws, a mask of the truncation set A and the log mass log N
of the importance density on A, and returns the relative SE and

    log Zhat^-1 = logsumexp_{t in A} x_t - log N - log T'.

Only the mask and N depend on the radius. _Fit, built once per call from
(one half of) the draws, holds the rest: x_t = -log Lpi_t, the distances
to a fitted ellipsoid and the mask of a support S. Its one estimate, at
an ellipsoid A, masks by A intersect S with N = V(A); thames() then
subtracts log R_hat, R_hat the Monte Carlo share of A in S, and adds its
variance. A radius grid estimates at each radius without the S mask.
log Zhat^-1 sums in log space, since on the raw scale |log Lpi| ~ 10^3
overflows; the relative SE is scale-free, so it sums the terms divided
by the largest, each in [0, 1].
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .correction import ConstrainedCorrectionConfig, estimate_volume_ratio
from .errors import (
    DegenerateTerm,
    EmptyTruncationSet,
    InsufficientData,
    InvalidInput,
    ThamesError,
    _check_level,
)
from .geometry import (
    Ellipsoid,
    _as_matrix,
    _fit,
    _mahalanobis_sq,
    _require_finite,
    _two_sided_z,
    as_log_density_vector,
    log_volume,
    logsumexp,
)
from .radius import RadiusPolicy, resolve_radius


@dataclass(frozen=True)
class ThamesOptions:
    """Estimator configuration; serial_correction is "none" or "ar1", and
    correction None or a ConstrainedCorrectionConfig."""

    radius_policy: RadiusPolicy = RadiusPolicy.sqrt_d_plus_1()
    split: bool = True
    ci_level: float = 0.95
    serial_correction: str = "none"
    correction: object = None

    def __post_init__(self):
        _check_level(self.ci_level)
        if not isinstance(self.split, bool):
            raise InvalidInput(f"split {self.split!r:.40} is not a bool")
        if not isinstance(self.radius_policy, RadiusPolicy):
            raise InvalidInput(f"radius_policy {self.radius_policy!r:.40} is not "
                               "a RadiusPolicy")
        if not isinstance(self.correction, (type(None), ConstrainedCorrectionConfig)):
            raise InvalidInput(f"correction {self.correction!r:.40} is not None "
                               "or a ConstrainedCorrectionConfig")
        if self.serial_correction not in ("none", "ar1"):
            raise InvalidInput(
                f"unknown serial correction {self.serial_correction!r}")


@dataclass(frozen=True)
class ThamesResult:
    log_recip_z: float
    log_z: float
    se_recip_rel: float
    ci_log_z: tuple  # (lower, upper) on the log Z scale; may be +-inf
    t_estimation: int
    n_inside: int
    radius_used: float
    ellipsoid: Ellipsoid
    correction_ratio: float = None
    correction_ci: tuple = None  # (lower, upper) CI of the volume ratio
    n_outside_support: int = None  # correction: estimation draws outside S


def variance_recip_iid(log_terms, t_estimation):
    """Relative standard error of the mean of per-draw reciprocal terms.

    log_terms holds log(1/(L pi)) for the included draws only; excluded
    draws contribute exact zeros. The relative SE does not depend on the
    scale of the terms, so with x the terms over the largest,
    SE^2 = (T' sum x^2 / (sum x)^2 - 1) / T'. Each x lies in [0, 1], so
    no term overflows whatever the scale of log_terms, and one more than
    1.8e308 below the largest is the 0 it rounds to.
    """
    lt = np.asarray(log_terms, dtype=float).reshape(-1)
    if lt.size < 2:
        raise InsufficientData("need at least 2 included draws for a variance")
    if t_estimation < lt.size:
        raise InvalidInput("t_estimation smaller than the included count")
    with np.errstate(over="ignore"):
        x = np.exp(lt - lt.max())
    ratio = t_estimation * np.einsum("i,i->", x, x) / x.sum() ** 2  # m2 / m1^2 >= 1
    return float(np.sqrt(max(ratio - 1.0, 0.0) / t_estimation))


def confidence_interval(log_recip_z, se_recip_rel, level):
    """Normal CI for Zhat^-1, reciprocated onto the log Z scale.

    The interval is symmetric on the reciprocal scale; after
    reciprocation it is not. A nonpositive lower reciprocal endpoint
    leaves the log Z interval unbounded above.
    """
    if se_recip_rel < 0:
        raise InvalidInput("standard error must be nonnegative")
    _check_level(level)
    delta = _two_sided_z(level) * se_recip_rel
    lower_log_z = -(log_recip_z + np.log1p(delta))
    if delta >= 1.0:
        upper_log_z = np.inf
    else:
        upper_log_z = -(log_recip_z + np.log(1.0 - delta))
    return float(lower_log_z), float(upper_log_z)


def ar1_inflation(log_series):
    """Variance inflation 1/(1-phi)^2 from the lag-1 autocorrelation.

    log_series holds the per-draw reciprocal terms in log space, with
    -inf for excluded draws (raw-scale zeros). The factor is clamped to
    [1, 1e6]; a constant series yields 1.
    """
    ls = np.asarray(log_series, dtype=float).reshape(-1)
    if ls.size < 10:
        raise InvalidInput(f"need at least 10 terms for an AR(1) fit, got {ls.size}")
    m = np.max(ls)
    if m == -np.inf:
        return 1.0
    with np.errstate(over="ignore"):  # an entry 1.8e308 below m is -inf
        x = np.exp(ls - m)  # scale-free; autocorrelation is scale invariant
    xc = x - x.mean()
    # numpy's own reductions: a BLAS dot rounds by its thread count
    denom = np.einsum("i,i->", xc, xc)
    if denom == 0.0:
        return 1.0
    phi = np.einsum("i,i->", xc[:-1], xc[1:]) / denom
    factor = 1.0 / (1.0 - phi) ** 2 if phi < 1.0 else np.inf
    return float(np.clip(factor, 1.0, 1e6))


def harmonic_mean_log_z(log_likelihoods):
    """Classical (untruncated) harmonic mean of the likelihoods; unstable baseline."""
    ll = np.asarray(log_likelihoods, dtype=float).reshape(-1)
    if ll.size < 1 or not np.all(np.isfinite(ll)):
        raise InvalidInput("log-likelihoods must be nonempty and finite")
    return float(np.log(ll.size) - logsumexp(-ll))


def _estimate(log_terms, inside, log_norm, opts: ThamesOptions):
    """(log Zhat^-1, relative SE of the sum, included count) from the log
    terms of the T' estimation draws, the truncation-set mask inside and
    the log mass log_norm of the importance density on that set. "ar1"
    inflates the SE by the autocorrelation of the terms, zero outside.
    """
    n_inside = int(np.count_nonzero(inside))
    if n_inside == 0:
        raise EmptyTruncationSet("no draw inside the truncation ellipsoid")
    lt_in = log_terms[inside]
    if np.any(lt_in == np.inf):
        raise DegenerateTerm(
            "zero-density draw inside the ellipsoid makes the sum infinite"
        )
    t_est = inside.shape[0]
    log_recip_z = float(logsumexp(lt_in) - log_norm - np.log(t_est))
    se = variance_recip_iid(lt_in, t_est) if n_inside >= 2 else math.inf
    if opts.serial_correction == "ar1":
        se *= math.sqrt(ar1_inflation(np.where(inside, log_terms, -np.inf)))
    return log_recip_z, se, n_inside


@dataclass(frozen=True)
class _Fit:
    """What every radius shares: -log_post over the T' estimation draws,
    their squared distances and support mask (None without a correction),
    and the ellipsoid, fitted at the policy's radius (1 for a grid)."""

    log_terms: np.ndarray
    maha: np.ndarray
    in_support: np.ndarray
    ellipsoid: Ellipsoid

    @classmethod
    def build(cls, draws, log_post, opts: ThamesOptions, e=None):
        # only the shape is checked up front: a non-finite draw leaves a
        # non-finite mean (no ellipsoid accepts one) or distance, and each
        # entry is tested only then or before another error is raised
        a = draws = _as_matrix(draws, min_rows=2)
        try:
            lp = as_log_density_vector(log_post, a.shape[0])
            if e is None:
                policy = opts.radius_policy
                c = 1.0 if policy.grid else resolve_radius(policy, a.shape[1])
                fit_part = a
                if opts.split:  # fit on the first T // 2 draws
                    t_fit = a.shape[0] // 2
                    if t_fit < 2:
                        raise InvalidInput(f"splitting T={a.shape[0]} draws in "
                                           "half leaves fewer than 2 on one side")
                    fit_part, a, lp = a[:t_fit], a[t_fit:], lp[t_fit:]
            # a non-finite draw, or products that overflow, would warn here
            with np.errstate(invalid="ignore", over="ignore"):
                if e is None:
                    e = _fit(fit_part, c)
                maha = _mahalanobis_sq(a, e)
        except ThamesError:
            _require_finite(draws)
            raise
        if not np.isfinite(maha).all():
            _require_finite(draws)
        support = None if opts.correction is None else opts.correction.support.contains(a)
        return cls(-lp, maha, support, e)

    def estimate(self, e, opts: ThamesOptions):
        """_estimate over the draws strictly inside e and the support."""
        inside = self.maha < e.radius * e.radius  # boundary ties excluded
        if self.in_support is not None:
            inside &= self.in_support
        return _estimate(self.log_terms, inside, log_volume(e), opts)


def _grid_choice(fit, opts: ThamesOptions):
    """fit's ellipsoid at the grid radius of smallest finite SE without the
    support mask, ties to the smaller; an empty or zero-density set is skipped."""
    fit = replace(fit, in_support=None)
    usable = []
    for c in opts.radius_policy.grid:
        try:
            _, se, _ = fit.estimate(replace(fit.ellipsoid, radius=c), opts)
        except (EmptyTruncationSet, DegenerateTerm):
            continue
        if np.isfinite(se):
            usable.append((se, c))
    if not usable:
        raise EmptyTruncationSet(
            "no grid radius gives a finite SE: each left the truncation set "
            "empty, kept a single draw or held a zero-density draw")
    return replace(fit.ellipsoid, radius=min(usable)[1])


def thames(draws, log_post, opts: ThamesOptions = None, ellipsoid: Ellipsoid = None):
    """Estimate log Z^-1 (and log Z) from posterior draws.

    With splitting enabled, the ellipsoid is fit on the first T // 2
    draws and the sum runs over the remainder. An explicit ellipsoid
    bypasses fitting and splitting, e.g. for oracle posterior moments.
    A grid picks the radius by the SE it reports, which biases it low.
    """
    opts = opts or ThamesOptions()
    fit = _Fit.build(draws, log_post, opts, ellipsoid)
    e = fit.ellipsoid
    if ellipsoid is None and opts.radius_policy.grid:
        e = _grid_choice(fit, opts)
    r_hat = r_ci = n_out = None
    if opts.correction is not None:
        cfg = opts.correction
        n_out = fit.in_support.size - int(np.count_nonzero(fit.in_support))
        r_hat, r_ci = estimate_volume_ratio(e, cfg.support, cfg.n_samples,
                                            cfg.seed, opts.ci_level)
    log_recip_z, se, n_inside = fit.estimate(e, opts)
    if r_hat is not None:
        # V(A intersect S) is V(A) * R_hat, and the Monte Carlo variance of
        # R_hat, (1 - R)/(n R) on the relative scale, adds to that of the sum
        log_recip_z -= float(np.log(r_hat))
        se = math.hypot(se, math.sqrt((1.0 - r_hat) / (cfg.n_samples * r_hat)))
    return ThamesResult(
        log_recip_z=log_recip_z,
        log_z=-log_recip_z,
        se_recip_rel=se,
        ci_log_z=confidence_interval(log_recip_z, se, opts.ci_level),
        t_estimation=fit.maha.size,
        n_inside=n_inside,
        radius_used=e.radius,
        ellipsoid=e,
        correction_ratio=r_hat,
        correction_ci=r_ci,
        n_outside_support=n_out,
    )


def empirical_scv(draws, log_post, c, opts: ThamesOptions = None):
    """Plug-in squared coefficient of variation, T' * (relative SE)^2,
    from the SE of the sum alone: a volume ratio adds no error to it."""
    opts = replace(opts or ThamesOptions(), radius_policy=RadiusPolicy.fixed(c),
                   serial_correction="none")
    fit = _Fit.build(draws, log_post, opts)
    _, se, _ = fit.estimate(fit.ellipsoid, opts)
    return float(fit.maha.size * se ** 2)
