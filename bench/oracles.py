"""Independent reference computations for checking the program's outputs.

Nothing here calls the package's estimator, radius theory or exact
marginal likelihoods: each evidence is recomputed from its textbook form
(a dense multivariate-normal density, a closed-form gamma-function ratio,
a truncated-normal mass), the estimator is recomputed with plain numpy,
and the radius theory with scipy quadrature.
"""

import math

import numpy as np
from scipy import integrate, stats
from scipy.linalg import solve_triangular
from scipy.special import gammainc, gammaln, logsumexp, ndtr

LOG_2PI = math.log(2.0 * math.pi)

# Tolerances are this many standard errors: wide enough that a correct
# program fails a check with probability far below 1e-6 per check.
N_SE = 6.0


# ---------------------------------------------------------------------------
# Exact log evidences
# ---------------------------------------------------------------------------


def gaussian_mean_log_z(data, s0=1.0):
    """Y_i ~ N_d(mu, I), mu ~ N_d(0, s0 I): each data column is
    N_n(0, s0 11^T + I); sum the dense log densities over the columns."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    n = data.shape[0]
    cov = s0 * np.ones((n, n)) + np.eye(n)
    mvn = stats.multivariate_normal(mean=np.zeros(n), cov=cov)
    return float(sum(mvn.logpdf(data[:, j]) for j in range(data.shape[1])))


def gaussian_posterior(data, s0=1.0):
    """Posterior mean vector and scalar variance of the Gaussian mean model."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    n = data.shape[0]
    s_n = 1.0 / (n + 1.0 / s0)
    return n * data.mean(axis=0) * s_n, s_n


def truncated_gaussian_log_z(data, s0=1.0):
    """Same likelihood, prior N(0, s0 I) restricted to the positive orthant
    (density 2^d N(0, s0 I) there): Z_trunc = Z 2^d prod Phi(m_j / sqrt(s_n))."""
    m, s_n = gaussian_posterior(data, s0)
    d = m.size
    return (gaussian_mean_log_z(data, s0)
            + float(np.sum(np.log(ndtr(m / math.sqrt(s_n)))))
            - d * math.log(0.5))


def dirmult_log_z(counts, a0):
    """Dirichlet(a0 1_K) prior, rows Multinomial(l, mu): the closed-form
    ratio B(a0 + column sums) / B(a0 1_K) times the multinomial coefficients."""
    counts = np.asarray(counts, dtype=float)
    k = counts.shape[1]
    col = counts.sum(axis=0)
    l = counts.sum(axis=1)
    coeff = float(np.sum(gammaln(l + 1.0)) - np.sum(gammaln(counts + 1.0)))
    return (coeff + gammaln(k * a0) - k * gammaln(a0)
            + float(np.sum(gammaln(a0 + col))) - gammaln(k * a0 + col.sum()))


def linreg_log_z(X, y, sigma2, alpha):
    """y ~ N_n(0, X X^T / alpha + sigma2 I) as a dense density."""
    n = X.shape[0]
    cov = X @ X.T / alpha + sigma2 * np.eye(n)
    return float(stats.multivariate_normal(mean=np.zeros(n), cov=cov).logpdf(y))


# ---------------------------------------------------------------------------
# Log posterior densities written into the input files
# ---------------------------------------------------------------------------


def gaussian_log_prior(theta, s0=1.0):
    d = theta.shape[1]
    sq = np.einsum("ij,ij->i", theta, theta)
    return -0.5 * (d * (LOG_2PI + math.log(s0)) + sq / s0)


def gaussian_log_lik(theta, data):
    n, d = data.shape
    sq = (np.sum(data ** 2) - 2.0 * theta @ data.sum(axis=0)
          + n * np.einsum("ij,ij->i", theta, theta))
    return -0.5 * (n * d * LOG_2PI + sq)


# ---------------------------------------------------------------------------
# The estimator, recomputed with numpy
# ---------------------------------------------------------------------------


class EstimateOracle:
    """log 1/Z-hat, n_inside and the iid relative SE for one split of the
    draws, from its own mean, covariance, Cholesky factor and log volume.

    Distances are computed once, in row chunks so that the check itself
    allocates little, and any radius can then be evaluated cheaply.
    """

    CHUNK = 4096

    def __init__(self, draws, log_post, split=True):
        t, self.d = draws.shape
        t_fit = t // 2 if split else t
        fit = draws[:t_fit]
        est = draws[t_fit:] if split else draws
        self.lp = np.array(log_post[t_fit:] if split else log_post)
        center = fit.mean(axis=0)
        cov = np.zeros((self.d, self.d))
        for i in range(0, t_fit, self.CHUNK):
            x = fit[i:i + self.CHUNK] - center
            cov += x.T @ x
        lo = np.linalg.cholesky(cov / (t_fit - 1))
        self.log_det = 2.0 * float(np.sum(np.log(np.diag(lo))))
        self.maha = np.concatenate([
            np.einsum("ij,ij->j", z, z) for z in (
                solve_triangular(lo, (est[i:i + self.CHUNK] - center).T,
                                 lower=True, check_finite=False)
                for i in range(0, est.shape[0], self.CHUNK))])
        self.center, self.chol = center, lo
        self.t_est = est.shape[0]

    def log_volume(self, c):
        d = self.d
        return (d * math.log(c) + 0.5 * d * math.log(math.pi)
                + 0.5 * self.log_det - gammaln(0.5 * d + 1.0))

    def evaluate(self, c):
        """(log_recip_z, n_inside, n_near_boundary, se_recip_rel_iid)."""
        r2 = c * c
        inside = self.maha < r2
        near = int(np.count_nonzero(np.abs(self.maha - r2) <= 1e-9 * r2))
        terms = -self.lp[inside] - self.log_volume(c)
        log_m1 = logsumexp(terms) - math.log(self.t_est)
        log_m2 = logsumexp(2.0 * terms) - math.log(self.t_est)
        se = math.sqrt(max(math.exp(log_m2 - 2.0 * log_m1) - 1.0, 0.0) / self.t_est)
        return float(log_m1), int(np.count_nonzero(inside)), near, se

    def volume_ratio(self, c, positive_idx, n, seed):
        """Own Monte Carlo estimate of V(ellipsoid and orthant) / V(ellipsoid)."""
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, self.d))
        g *= (c * rng.random(n) ** (1.0 / self.d) / np.linalg.norm(g, axis=1))[:, None]
        pts = self.center + g @ self.chol.T
        return float(np.mean(np.all(pts[:, positive_idx] > 0.0, axis=1)))


def check_estimate(report, oracle, exact, problems, label, log_r=0.0,
                   extra_tol=0.0):
    """Compare one estimate against the numpy recomputation and the exact
    evidence. report maps log_recip_z, log_z, n_inside, se_recip_rel,
    radius, t_estimation; log_r is the applied volume-ratio correction."""
    lrz, n_in, near, _ = oracle.evaluate(report["radius"])
    base_lrz = report["log_recip_z"] + log_r
    if abs(base_lrz - lrz) > 1e-12 * max(1.0, abs(lrz)):
        problems.append(f"{label}: log_recip_z {base_lrz!r} != numpy {lrz!r}")
    if abs(report["n_inside"] - n_in) > near:
        problems.append(f"{label}: n_inside {report['n_inside']} != numpy {n_in}")
    if report["t_estimation"] != oracle.t_est:
        problems.append(f"{label}: t_estimation {report['t_estimation']}")
    tol = N_SE * report["se_recip_rel"] + extra_tol
    if not abs(report["log_z"] - exact) <= tol:
        problems.append(f"{label}: log_z {report['log_z']!r} vs exact {exact!r} "
                        f"beyond {tol:.3g}")


# ---------------------------------------------------------------------------
# Radius theory by quadrature
# ---------------------------------------------------------------------------


def log_f(d, c):
    """log of c^-(d-2) int_0^c exp(r^2/2) r^(d-1) dr, scaled by the
    integrand's value at r = c so that quad never overflows."""
    top = 0.5 * c * c + (d - 1) * math.log(c)

    def g(r):
        return math.exp(0.5 * r * r + (d - 1) * math.log(r) - top) if r > 0 else \
            (math.exp(-top) if d == 1 else 0.0)

    width = 1.0 / (c + (d - 1) / c)
    split = max(0.0, c - 40.0 * width)
    head = integrate.quad(g, 0.0, split, epsabs=0.0, epsrel=1e-13, limit=200)[0] \
        if split > 0 else 0.0
    tail = integrate.quad(g, split, c, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return top + math.log(head + tail) - (d - 2) * math.log(c)


def scv(d, c):
    """Squared coefficient of variation of one truncated reciprocal term."""
    log_kappa = math.log(d) + 0.5 * d * math.log(2.0) + gammaln(0.5 * d + 1.0)
    return math.expm1(log_kappa - (d + 2) * math.log(c) + log_f(d, c))


def stationarity_residual(d, c):
    """log(2d f(d, c) / c^2) - c^2 / 2, zero at the SCV-minimizing radius."""
    return math.log(2.0 * d) + log_f(d, c) - 2.0 * math.log(c) - 0.5 * c * c


def sandwich(d):
    root = math.sqrt((d + 2.0) * math.pi / 4.0)
    return 0.63 * root - 1.0, 1.09 * 2.0 * root - 1.0


def hpd_mass(d, c):
    return float(gammainc(0.5 * d, 0.5 * c * c))
