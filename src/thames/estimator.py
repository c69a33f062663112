"""Truncated harmonic mean estimation of the reciprocal marginal likelihood.

One kernel, _estimate, takes per-draw log terms x_t over the T'
estimation draws, a mask of the truncation set A and the log mass log N
of the importance density on A, and returns the relative SE and

    log Zhat^-1 = logsumexp_{t in A} x_t - log N - log T'.

thames() fits a Mahalanobis ellipsoid A to (one half of) the draws and
passes x_t = -log Lpi_t and N = V(A). With a constrained support S it
masks by A intersect S, then subtracts log R_hat, R_hat the Monte Carlo
share of A in S, and adds its variance. All accumulation is in log
space; the raw-scale sum overflows for |log Lpi| of order 10^3.
"""

import math
import numbers
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .errors import (
    DegenerateTerm,
    EmptyTruncationSet,
    InsufficientData,
    InvalidInput,
)
from .geometry import (
    Ellipsoid,
    _fit,
    _mahalanobis_sq,
    as_draw_matrix,
    as_log_density_vector,
    log_volume,
    logsumexp,
)
from .radius import RadiusPolicy, resolve_radius


def _check_level(level):
    """Raise InvalidInput unless level is a real number in (0, 1)."""
    if not (isinstance(level, numbers.Real) and 0.0 < level < 1.0):
        raise InvalidInput(f"confidence level must be in (0, 1), got {level!r:.40}")


def _two_sided_z(level):
    """The standard normal z with P(|Z| <= z) = level."""
    return NormalDist().inv_cdf(0.5 * (1.0 + level))


@dataclass(frozen=True)
class ThamesOptions:
    """Estimator configuration.

    serial_correction is "none" or "ar1". correction, when set, is a
    ConstrainedCorrectionConfig from the correction module.
    """

    radius_policy: RadiusPolicy = RadiusPolicy.sqrt_d_plus_1()
    split: bool = True
    ci_level: float = 0.95
    serial_correction: str = "none"
    correction: object = None

    def __post_init__(self):
        from .correction import ConstrainedCorrectionConfig

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


def variance_recip_iid(log_terms, t_estimation, log_vol):
    """Relative standard error of the mean of per-draw reciprocal terms.

    log_terms holds log(1/(L pi)) for the included draws only; excluded
    draws contribute exact zeros. The shifted-moment identity
    m2/m1^2 = exp(lse(2x) - 2 lse(x) + log T') keeps everything finite
    even when the terms themselves underflow on the raw scale.
    """
    lt = np.asarray(log_terms, dtype=float).reshape(-1) - log_vol
    if lt.size < 2:
        raise InsufficientData("need at least 2 included draws for a variance")
    if t_estimation < lt.size:
        raise InvalidInput("t_estimation smaller than the included count")
    log_m1 = logsumexp(lt) - np.log(t_estimation)
    log_m2 = logsumexp(2.0 * lt) - np.log(t_estimation)
    ratio = np.exp(log_m2 - 2.0 * log_m1)  # m2 / m1^2 >= 1
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
        raise InvalidInput("need at least 10 terms for an AR(1) fit")
    m = np.max(ls)
    if m == -np.inf:
        return 1.0
    x = np.exp(ls - m)  # scale-free; autocorrelation is scale invariant
    xc = x - x.mean()
    denom = np.dot(xc, xc)
    if denom == 0.0:
        return 1.0
    phi = np.dot(xc[:-1], xc[1:]) / denom
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
    se = variance_recip_iid(lt_in, t_est, log_norm) if n_inside >= 2 else np.inf
    if opts.serial_correction == "ar1":
        se *= np.sqrt(ar1_inflation(np.where(inside, log_terms, -np.inf)))
    return log_recip_z, se, n_inside


def _sweep(maha, log_terms, base, grid, opts: ThamesOptions):
    """base at the grid radius with the smallest finite SE, ties broken
    toward the smaller radius, from one set of distances. A radius that
    leaves the set empty or holds a zero-density draw is passed over."""
    usable = []
    for c in grid:
        try:
            _, se, _ = _estimate(log_terms, maha < c * c,
                                 log_volume(replace(base, radius=c)), opts)
        except (EmptyTruncationSet, DegenerateTerm):
            continue
        if np.isfinite(se):
            usable.append((se, c))
    if not usable:
        raise EmptyTruncationSet(
            "no grid radius gives a finite SE: each left the truncation set "
            "empty, kept a single draw or held a zero-density draw")
    return replace(base, radius=min(usable)[1])


def _truncate(draws, log_post, opts: ThamesOptions, ellipsoid=None):
    """(log_terms, inside, e, n_outside): -log_post over the estimation
    draws, the mask of e intersected with the support of opts.correction,
    the ellipsoid and the count of estimation draws outside the support,
    or None without a correction.
    """
    a = as_draw_matrix(draws, min_rows=2)
    lp = as_log_density_vector(log_post, a.shape[0])
    grid = opts.radius_policy.grid if ellipsoid is None else None

    e = ellipsoid
    if e is None:
        c = 1.0 if grid else resolve_radius(opts.radius_policy, a.shape[1])
        fit_part = a
        if opts.split:  # fit on the first T // 2 draws
            t_fit = a.shape[0] // 2
            if t_fit < 2:
                raise InvalidInput(f"splitting T={a.shape[0]} draws in half "
                                   "leaves fewer than 2 on one side")
            fit_part, a, lp = a[:t_fit], a[t_fit:], lp[t_fit:]
        e = _fit(fit_part, c)
    maha = _mahalanobis_sq(a, e)
    log_terms = -lp  # log(1/(L pi)) per estimation draw
    if grid:
        e = _sweep(maha, log_terms, e, grid, opts)

    inside = maha < e.radius * e.radius  # strict: boundary ties excluded
    n_outside = None
    if opts.correction is not None:
        in_support = opts.correction.support.contains(a)
        n_outside = in_support.size - int(np.count_nonzero(in_support))
        inside &= in_support
    return log_terms, inside, e, n_outside


def thames(draws, log_post, opts: ThamesOptions = None, ellipsoid: Ellipsoid = None):
    """Estimate log Z^-1 (and log Z) from posterior draws.

    With splitting enabled, the ellipsoid is fit on the first T // 2
    draws and the sum runs over the remainder. Passing an explicit
    ellipsoid bypasses fitting (and splitting) entirely, e.g. for oracle
    posterior moments. A radius grid reuses one set of distances for
    every radius and picks the radius with the smallest SE on the
    estimation draws, which biases that SE low. A support correction is
    applied after the kernel.
    """
    opts = opts or ThamesOptions()
    log_terms, inside, e, n_out = _truncate(draws, log_post, opts, ellipsoid)
    r_hat = r_ci = None
    if opts.correction is not None:
        from .correction import estimate_volume_ratio

        cfg = opts.correction
        r_hat, r_ci = estimate_volume_ratio(e, cfg.support, cfg.n_samples,
                                            cfg.seed, opts.ci_level)
    log_recip_z, se, n_inside = _estimate(log_terms, inside, log_volume(e), opts)
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
        t_estimation=inside.shape[0],
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
    log_terms, inside, e, _ = _truncate(draws, log_post, opts)
    _, se, _ = _estimate(log_terms, inside, log_volume(e), opts)
    return float(inside.shape[0] * se ** 2)
