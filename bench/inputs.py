"""Deterministic benchmark inputs.

Every array comes from numpy's default generator keyed by
spawn_seed(seed, k), with a fixed k per input, so the same --seed gives
the same files and arrays on every machine. The log densities are
computed here from the model definitions, not by the package.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter
from scipy.special import ndtr, ndtri

import oracles
from thames.seeds import spawn_seed


@dataclass
class Problem:
    """Posterior draws with their per-draw log densities and exact log Z."""

    draws: np.ndarray
    log_prior: np.ndarray
    log_lik: np.ndarray
    log_z: float

    @property
    def log_post(self):
        return self.log_prior + self.log_lik


def _rng(seed, k):
    return np.random.default_rng(spawn_seed(seed, k))


def _data(seed, k, d, mu, n=20):
    return mu + _rng(seed, k).standard_normal((n, d))


def gaussian(seed, k, d, t, mu=2.0):
    """Gaussian mean model, n = 20 observations, s0 = 1: iid exact draws."""
    data = _data(seed, k, d, mu)
    m, s_n = oracles.gaussian_posterior(data)
    draws = _rng(seed, k + 1).standard_normal((t, d))
    draws *= math.sqrt(s_n)
    draws += m
    return Problem(draws, oracles.gaussian_log_prior(draws),
                   oracles.gaussian_log_lik(draws, data),
                   oracles.gaussian_mean_log_z(data))


def gaussian_ar1(seed, k, d, t, rho, mu=2.0):
    """Same model as gaussian(seed, k, ...), but the draws form a stationary
    AR(1) chain with lag-one correlation rho whose marginal is the exact
    posterior."""
    data = _data(seed, k, d, mu)
    m, s_n = oracles.gaussian_posterior(data)
    rng = _rng(seed, k + 2)
    x0 = math.sqrt(s_n) * rng.standard_normal(d)
    eps = rng.standard_normal((t, d))
    eps *= math.sqrt(s_n * (1.0 - rho * rho))
    draws = lfilter([1.0], [1.0, -rho], eps, axis=0, zi=(rho * x0)[None, :])[0]
    del eps
    draws += m
    return Problem(draws, oracles.gaussian_log_prior(draws),
                   oracles.gaussian_log_lik(draws, data),
                   oracles.gaussian_mean_log_z(data))


def truncated_gaussian(seed, k, d, t, mu=0.2):
    """Gaussian mean model with the prior restricted to the positive orthant;
    draws by inverse-CDF sampling of the truncated normal posterior."""
    data = _data(seed, k, d, mu)
    m, s_n = oracles.gaussian_posterior(data)
    sd = math.sqrt(s_n)
    lo = ndtr(-m / sd)
    u = lo + (1.0 - lo) * _rng(seed, k + 1).random((t, d))
    draws = np.maximum(m + sd * ndtri(u), np.finfo(float).tiny)
    log_prior = oracles.gaussian_log_prior(draws) + d * math.log(2.0)
    return Problem(draws, log_prior, oracles.gaussian_log_lik(draws, data),
                   oracles.truncated_gaussian_log_z(data))


def write_csv(path, p: Problem):
    """theta_1..theta_d, log_prior, log_likelihood at full round-trip precision."""
    d = p.draws.shape[1]
    header = ",".join([f"theta_{j}" for j in range(1, d + 1)]
                      + ["log_prior", "log_likelihood"])
    rows = np.column_stack([p.draws, p.log_prior, p.log_lik]).tolist()
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
    return len(rows) * len(rows[0])


def write_jsonl(path, p: Problem):
    """One object per draw with a single log_unnorm_posterior field."""
    d = p.draws.shape[1]
    names = [f"theta_{j}" for j in range(1, d + 1)] + ["log_unnorm_posterior"]
    rows = np.column_stack([p.draws, p.log_post]).tolist()
    with open(path, "w") as fh:
        fh.writelines(json.dumps(dict(zip(names, row))) + "\n" for row in rows)
    return len(rows) * len(names)
