"""Conjugate models with closed-form marginal likelihoods.

These serve as validation oracles: each model evaluates per-draw
log prior + log likelihood, draws exact iid posterior samples, and
computes its exact log marginal likelihood. Exact samplers (rather than
MCMC) are used throughout so that estimator checks are not confounded by
serial correlation.
"""

import functools
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .correction import SupportPredicate
from .errors import InvalidInput
from .geometry import cholesky_factor
from .seeds import _rng

LOG_2PI = np.log(2.0 * np.pi)


# ---------------------------------------------------------------------------
# Isotropic Gaussian mean model: Y_i | mu ~ MVN_d(mu, I), mu ~ MVN_d(0, s0 I)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianMeanModel:
    s0: float
    data: np.ndarray  # n x d

    def __post_init__(self):
        data = np.atleast_2d(np.asarray(self.data, dtype=float))
        object.__setattr__(self, "data", data)
        if self.s0 <= 0 or data.shape[0] < 1:
            raise InvalidInput("need s0 > 0 and at least one observation")

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def d(self):
        return self.data.shape[1]

    def posterior_params(self):
        """Posterior is MVN_d(m_n, s_n I)."""
        s_n = 1.0 / (self.n + 1.0 / self.s0)
        m_n = self.n * self.data.mean(axis=0) * s_n
        return m_n, s_n

    def exact_log_marginal(self):
        """Columnwise MVN_n(y_.j; 0, s0 11^T + I), via rank-one identities.

        log det = log(1 + n s0); the quadratic form uses
        (s0 11^T + I)^-1 = I - (s0 / (1 + n s0)) 11^T. The n x n matrix
        is never materialized.
        """
        n, s0 = self.n, self.s0
        shrink = s0 / (1.0 + n * s0)
        col_ss = np.sum(self.data ** 2, axis=0)
        col_sums = self.data.sum(axis=0)
        quad = col_ss - shrink * col_sums ** 2
        per_col = -0.5 * (n * LOG_2PI + np.log1p(n * s0) + quad)
        return float(per_col.sum())

    def posterior_sample(self, t, seed):
        m_n, s_n = self.posterior_params()
        rng = _rng(seed)
        return m_n + np.sqrt(s_n) * rng.standard_normal((t, self.d))

    def log_prior(self, draws):
        mu = np.atleast_2d(np.asarray(draws, dtype=float))
        sq = np.sum(mu ** 2, axis=1)
        return -0.5 * (self.d * (LOG_2PI + np.log(self.s0)) + sq / self.s0)

    def log_likelihood(self, draws):
        mu = np.atleast_2d(np.asarray(draws, dtype=float))
        y_ss = float(np.sum(self.data ** 2))
        y_sum = self.data.sum(axis=0)
        sq = y_ss - 2.0 * mu @ y_sum + self.n * np.sum(mu ** 2, axis=1)
        return -0.5 * (self.n * self.d * LOG_2PI + sq)

    def log_post(self, draws):
        return self.log_prior(draws) + self.log_likelihood(draws)


def gaussian_dataset(d, n=20, mu=2.0, seed=0):
    """Data drawn as Y_i = mu 1_d + standard normal noise."""
    rng = _rng(seed)
    return mu + rng.standard_normal((n, d))


# ---------------------------------------------------------------------------
# Bayesian linear regression with known noise variance:
# y | X, beta ~ MVN_n(X beta, sigma2 I), beta ~ MVN_d(0, I / alpha)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinRegModel:
    X: np.ndarray  # n x d
    y: np.ndarray  # n
    sigma2: float
    alpha: float

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).reshape(-1)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if X.shape[0] != y.shape[0]:
            raise InvalidInput("X and y row counts differ")
        if self.sigma2 <= 0 or self.alpha <= 0:
            raise InvalidInput("need sigma2 > 0 and alpha > 0")

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]

    def posterior_params(self):
        """Posterior MVN_d(m_n, Sigma_n) with precision X^T X / sigma2 + alpha I."""
        prec = self.X.T @ self.X / self.sigma2 + self.alpha * np.eye(self.d)
        lo = cholesky_factor(prec)
        rhs = self.X.T @ self.y / self.sigma2
        m_n = np.linalg.solve(lo.T, np.linalg.solve(lo, rhs))
        inv_lo = np.linalg.solve(lo, np.eye(self.d))
        sigma_n = inv_lo.T @ inv_lo
        return m_n, 0.5 * (sigma_n + sigma_n.T)

    def exact_log_marginal(self):
        """MVN_n(y; 0, X X^T / alpha + sigma2 I) through the d x d Woodbury route."""
        n, d = self.n, self.d
        gram = self.X.T @ self.X
        inner = np.eye(d) + gram / (self.alpha * self.sigma2)
        lo = cholesky_factor(inner)
        log_det = n * np.log(self.sigma2) + 2.0 * np.sum(np.log(np.diag(lo)))
        xty = self.X.T @ self.y
        solve = np.linalg.solve(lo.T, np.linalg.solve(lo, xty))
        quad = (self.y @ self.y - xty @ solve / (self.alpha * self.sigma2)) \
            / self.sigma2
        return float(-0.5 * (n * LOG_2PI + log_det + quad))

    def posterior_sample(self, t, seed):
        m_n, sigma_n = self.posterior_params()
        lo = cholesky_factor(sigma_n)
        rng = _rng(seed)
        return m_n + rng.standard_normal((t, self.d)) @ lo.T

    def log_prior(self, draws):
        b = np.atleast_2d(np.asarray(draws, dtype=float))
        sq = np.sum(b ** 2, axis=1)
        return 0.5 * self.d * (np.log(self.alpha) - LOG_2PI) - 0.5 * self.alpha * sq

    def log_likelihood(self, draws):
        b = np.atleast_2d(np.asarray(draws, dtype=float))
        # y - b X^T, squared, in the one T x n array the product makes
        resid = b @ self.X.T
        np.subtract(self.y, resid, out=resid)
        np.square(resid, out=resid)
        sq = np.sum(resid, axis=1)
        return -0.5 * (self.n * (LOG_2PI + np.log(self.sigma2)) + sq / self.sigma2)

    def log_post(self, draws):
        return self.log_prior(draws) + self.log_likelihood(draws)


# ---------------------------------------------------------------------------
# Dirichlet-multinomial: mu ~ Dirichlet(a0 1_K), Y_i | mu ~ Multinomial(l, mu)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirMultModel:
    """Parameterized by the first K-1 simplex coordinates (d = K - 1)."""

    a0: float
    l: int
    data: np.ndarray  # n x K counts, each row summing to l

    def __post_init__(self):
        data = np.atleast_2d(np.asarray(self.data, dtype=float))
        object.__setattr__(self, "data", data)
        if self.a0 <= 0:
            raise InvalidInput("concentration must be positive")
        if np.any(data < 0) or np.any(data != np.round(data)):
            raise InvalidInput("counts must be nonnegative integers")
        if np.any(data.sum(axis=1) != self.l):
            raise InvalidInput(f"every count row must sum to l={self.l}")

    @property
    def k(self):
        return self.data.shape[1]

    @property
    def d(self):
        return self.k - 1

    def posterior_alpha(self):
        return self.a0 + self.data.sum(axis=0)

    def _full_simplex(self, draws):
        mu = np.atleast_2d(np.asarray(draws, dtype=float))
        last = 1.0 - mu.sum(axis=1, keepdims=True)
        return np.concatenate([mu, last], axis=1)

    def _simplex_logs(self, draws):
        """(ok, log full[ok]): which draws lie inside the open simplex, and
        the logs of their K coordinates, the last completed to sum to one."""
        full = self._full_simplex(draws)
        ok = np.all(full > 0.0, axis=1)
        if not ok.all():
            full = full[ok]
        return ok, np.log(full, out=full)

    @staticmethod
    def _log_dirichlet_pdf(ok, log_full, alpha):
        out = np.full(ok.shape[0], -np.inf)
        if np.any(ok):
            log_norm = (math.lgamma(np.sum(alpha))
                        - np.sum(np.array([math.lgamma(a) for a in alpha])))
            out[ok] = log_norm + log_full @ (alpha - 1.0)
        return out

    @functools.cached_property
    def _log_multinomial_coeff(self):
        """Sum over rows of log(l! / prod_j y_ij!), from a table of log k!."""
        l = int(self.l)
        log_factorial = np.array([math.lgamma(k + 1.0) for k in range(l + 1)])
        counts = self.data.astype(np.intp)
        return float(np.sum(log_factorial[l] - log_factorial[counts].sum(axis=1)))

    def _log_multinomial(self, ok, log_full):
        out = np.full(ok.shape[0], -np.inf)
        if np.any(ok):
            counts = self.data.sum(axis=0)
            out[ok] = self._log_multinomial_coeff + log_full @ counts
        return out

    def log_prior(self, draws):
        return self._log_dirichlet_pdf(*self._simplex_logs(draws),
                                       np.full(self.k, self.a0))

    def log_likelihood(self, draws):
        """Multinomial coefficients are included; the exact marginal uses the
        same convention, which is all that matters for consistency."""
        return self._log_multinomial(*self._simplex_logs(draws))

    def log_post(self, draws):
        """log_prior(draws) + log_likelihood(draws), bit for bit, with the
        simplex completion and its logs computed once."""
        ok, log_full = self._simplex_logs(draws)
        return (self._log_dirichlet_pdf(ok, log_full, np.full(self.k, self.a0))
                + self._log_multinomial(ok, log_full))

    def _log_posterior_pdf(self, draws):
        return self._log_dirichlet_pdf(*self._simplex_logs(draws),
                                       self.posterior_alpha())

    def exact_log_marginal(self):
        """log prior + log likelihood - log posterior at an interior point.

        The identity holds anywhere in the open simplex; the posterior
        mean (clamped away from the boundary) is used. This conditioning
        beats assembling gamma-function ratios at n*l in the tens of
        thousands.
        """
        alpha = self.posterior_alpha()
        mu_star = (alpha / alpha.sum())[: self.d]
        mu_star = np.maximum(mu_star, 1e-12).reshape(1, -1)
        value = (self.log_prior(mu_star) + self.log_likelihood(mu_star)
                 - self._log_posterior_pdf(mu_star))
        return float(value[0])

    def posterior_sample(self, t, seed):
        """Exact Dirichlet draws (normalized Gammas), last coordinate dropped."""
        rng = _rng(seed)
        g = rng.standard_gamma(self.posterior_alpha(), size=(t, self.k))
        g /= g.sum(axis=1, keepdims=True)
        return g[:, : self.d]

    def support(self):
        return SupportPredicate.simplex()


PROSTATE_PREDICTORS = ("lcavol", "lweight", "age", "lbph", "svi", "lcp",
                       "gleason", "pgg45")


def prostate_data():
    """The bundled prostate study table: (X: 97 x 8, y: 97).

    Predictor columns follow PROSTATE_PREDICTORS order; the target is
    log prostate-specific antigen. Values are used as shipped, with no
    standardization and no intercept column.
    """
    path = resources.files("thames").joinpath("data/prostate.csv")
    with path.open("rb") as fh:
        table = np.loadtxt(fh, delimiter=",", skiprows=1)
    return table[:, :8], table[:, 8]


def prostate_models(sigma2=1.0, alpha=0.5):
    """Nested regressions M_2..M_8 on the first k predictors, keyed by k."""
    X, y = prostate_data()
    return {k: LinRegModel(X[:, :k], y, sigma2, alpha) for k in range(2, 9)}


def dirmult_mu(k, a0, seed):
    """A true probability vector drawn from the Dirichlet prior."""
    rng = _rng(seed)
    g = rng.standard_gamma(a0, size=k)
    return g / g.sum()


def dirmult_dataset(mu, n, l, seed):
    """n multinomial count rows with l trials each."""
    rng = _rng(seed)
    return rng.multinomial(l, np.asarray(mu, dtype=float), size=n)
