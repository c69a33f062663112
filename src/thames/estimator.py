"""Truncated harmonic mean estimation of the reciprocal marginal likelihood.

The core quantity is

    log Zhat^-1 = -log T' - log V(A) + logsumexp_{t in A} ( -log Lpi_t )

where A is a Mahalanobis ellipsoid fit to (one half of) the posterior
draws. With a constrained support S, the sum runs over A intersect S and
V(A) becomes V(A) * R_hat, R_hat the Monte Carlo share of A in S. All
accumulation is in log space; the raw-scale sum overflows for realistic
|log Lpi| of order 10^3.
"""

import math
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
    """Raise InvalidInput unless level is a confidence level, in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise InvalidInput(f"confidence level must be in (0, 1), got {level}")


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
        _check_level(self.ci_level)
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
    radius_table: tuple = None  # grid policy: (c, log_z, se_recip_rel) rows
    n_outside_support: int = None  # correction: estimation draws outside S


def _split_index(t):
    """Rows of the fitting half: the first T // 2 of T draws."""
    if t < 4:
        raise InvalidInput(f"splitting T={t} draws in half leaves fewer than 2 "
                           "on one side")
    return t // 2


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


def _estimate_inside(inside, log_post_est, e, opts: ThamesOptions, ratio=None,
                     table=None, n_outside=None):
    """The estimate for ellipsoid e over the estimation draws that inside
    flags, those strictly inside e; table is the grid table, if any.

    ratio, when given, is (R_hat, its CI) for the support S of
    opts.correction, and n_outside the number of estimation draws outside
    S; the truncation set is then A intersect S, so inside must be False
    for every draw outside S, and V(A intersect S) is V(A) * R_hat. The
    Monte Carlo variance of R_hat, (1 - R)/(n R) on the relative scale,
    adds to that of the sum.
    """
    n_inside = int(np.count_nonzero(inside))
    if n_inside == 0:
        raise EmptyTruncationSet("no draw inside the truncation ellipsoid")
    lp_in = log_post_est[inside]
    if np.any(lp_in == -np.inf):
        raise DegenerateTerm(
            "zero-density draw inside the ellipsoid makes the sum infinite"
        )
    t_est = inside.shape[0]
    log_vol = log_volume(e)
    log_terms = -lp_in  # log(1/(L pi)) per included draw
    log_recip_z = float(logsumexp(log_terms) - log_vol - np.log(t_est))

    if n_inside >= 2:
        se = variance_recip_iid(log_terms, t_est, log_vol)
    else:
        se = np.inf
    if opts.serial_correction == "ar1":
        series = np.where(inside, -log_post_est, -np.inf)
        se *= np.sqrt(ar1_inflation(series))

    r_hat, r_ci = ratio or (None, None)
    if ratio is not None:
        log_recip_z -= float(np.log(r_hat))
        n = opts.correction.n_samples
        se = math.hypot(se, math.sqrt((1.0 - r_hat) / (n * r_hat)))

    return ThamesResult(
        log_recip_z=log_recip_z,
        log_z=-log_recip_z,
        se_recip_rel=se,
        ci_log_z=confidence_interval(log_recip_z, se, opts.ci_level),
        t_estimation=t_est,
        n_inside=n_inside,
        radius_used=e.radius,
        ellipsoid=e,
        correction_ratio=r_hat,
        correction_ci=r_ci,
        radius_table=table,
        n_outside_support=n_outside,
    )


def _sweep(maha, lp_est, base, grid, opts: ThamesOptions):
    """Estimates over a radius grid from one set of distances.

    Returns (table, e): the (c, log_z, se_recip_rel) rows, NaN where a
    radius leaves the set empty or holds a zero-density draw, and base at
    the radius with the smallest finite SE, ties broken toward the
    smaller radius.
    """
    table = []
    for c in map(float, grid):
        try:
            res = _estimate_inside(maha < c * c, lp_est, replace(base, radius=c), opts)
        except (EmptyTruncationSet, DegenerateTerm):
            table.append((c, np.nan, np.nan))
            continue
        table.append((c, res.log_z, res.se_recip_rel))
    usable = [(se, c) for c, _, se in table if np.isfinite(se)]
    if not usable:
        raise EmptyTruncationSet("every grid radius left the truncation set empty")
    return tuple(table), replace(base, radius=min(usable)[1])


def thames(draws, log_post, opts: ThamesOptions = None, ellipsoid: Ellipsoid = None):
    """Estimate log Z^-1 (and log Z) from posterior draws.

    With splitting enabled, the ellipsoid is fit on the first T // 2
    draws and the sum runs over the remainder.
    Passing an explicit ellipsoid bypasses fitting (and splitting)
    entirely, e.g. for oracle posterior moments.

    The ellipsoid is fit once and the Mahalanobis distances are computed
    once. A radius grid reuses them for every radius, picks the radius
    with the smallest SE on the estimation draws, which biases that SE
    low, and reports every radius in result.radius_table. With
    opts.correction, the sum runs over the ellipsoid intersected with
    the support, and the volume is V(A) times the Monte Carlo volume
    ratio R_hat.
    """
    opts = opts or ThamesOptions()
    a = as_draw_matrix(draws, min_rows=2)
    lp = as_log_density_vector(log_post, a.shape[0])
    grid = opts.radius_policy.grid if ellipsoid is None else None

    e = ellipsoid
    if e is None:
        c = 1.0 if grid else resolve_radius(opts.radius_policy, a.shape[1])
        fit_part = a
        if opts.split:
            t_fit = _split_index(a.shape[0])
            fit_part, a, lp = a[:t_fit], a[t_fit:], lp[t_fit:]
        e = _fit(fit_part, c)
    maha = _mahalanobis_sq(a, e)
    table = None
    if grid:
        table, e = _sweep(maha, lp, e, grid, opts)

    inside = maha < e.radius * e.radius  # strict: boundary ties excluded
    ratio = n_outside = None
    if opts.correction is not None:
        from .correction import estimate_volume_ratio

        cfg = opts.correction
        ratio = estimate_volume_ratio(e, cfg.support, cfg.n_samples, cfg.seed,
                                      opts.ci_level)
        in_support = cfg.support.contains(a)
        n_outside = in_support.size - int(np.count_nonzero(in_support))
        inside &= in_support
    return _estimate_inside(inside, lp, e, opts, ratio, table, n_outside)


def empirical_scv(draws, log_post, c, opts: ThamesOptions = None):
    """Plug-in squared coefficient of variation, T' * (relative SE)^2."""
    opts = opts or ThamesOptions()
    opts = replace(opts, radius_policy=RadiusPolicy.fixed(c),
                   serial_correction="none")
    res = thames(draws, log_post, opts)
    return float(res.t_estimation * res.se_recip_rel ** 2)
