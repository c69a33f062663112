"""The built-in replication experiments behind ``thames replicate``.

Each experiment is a function ``(seed, reps) -> [row]`` that returns
its CSV rows in memory. ``EXPERIMENTS`` lists each with its CSV name
and header, and ``run`` checks the arguments and calls it. A setting
that draws its own sample runs in one call of a local function, so its
draws are freed when that call returns, before the next one is drawn.

The estimator and the models are called through their modules, so a
wrapper set on a module attribute, such as a tracing span, sees every call.
Each experiment imports ``models`` when it runs, so that ``estimate``,
``correct`` and ``scv``, which import this module for the CLI's
experiment names, do not load it.
"""

import math

import numpy as np

from . import estimator
from .correction import ConstrainedCorrectionConfig
from .errors import InvalidInput, NumericalError, _check_count
from .geometry import Ellipsoid
from .seeds import _check_seed, spawn_seed

# each experiment's fixed design: T is the posterior draws per run
GAUSSIAN_T_GRID = tuple([5] + list(range(1005, 9006, 1000)))
GAUSSIAN_D_GRID = (1, 5, 10, 25, 50)
GAUSSIAN_D_T = 10000
DIRMULT_D_GRID = (1, 20, 50)
DIRMULT_N = 400  # observations per dataset
DIRMULT_L = 150  # trials per observation
DIRMULT_T = 10000
DIRMULT_A0 = 1.0  # symmetric Dirichlet prior concentration
PROSTATE_T = 10000
PROSTATE_SIGMA2 = 1.0  # known noise variance
TOY_T = 2000
TOY_STRIDE = 50  # draws between running estimates


def gaussian_t(seed, reps):
    """One-dimensional conjugate Gaussian runs over a grid of sample sizes."""
    from . import models

    data = models.gaussian_dataset(d=1, n=20, mu=2.0, seed=spawn_seed(seed, 0))
    model = models.GaussianMeanModel(s0=1.0, data=data)
    exact = model.exact_log_marginal()
    opts = estimator.ThamesOptions()

    def row(i, t):
        draws = model.posterior_sample(t, spawn_seed(seed, 1 + i))
        try:
            res = estimator.thames(draws, model.log_post(draws), opts)
        except NumericalError:
            # tiny T can leave the fitted ellipsoid empty; record the
            # failed run instead of aborting the grid
            return (t, math.nan, exact, math.nan, math.nan, math.nan, "false")
        covered = res.ci_log_z[0] <= exact <= res.ci_log_z[1]
        return (t, res.log_z, exact, res.log_z - exact,
                res.ci_log_z[0], res.ci_log_z[1], str(bool(covered)).lower())

    return [row(i, t) for i, t in enumerate(GAUSSIAN_T_GRID)]


def gaussian_d(seed, reps):
    """Split / no-split / oracle-moment comparison across dimensions."""
    from . import models

    opts_split = estimator.ThamesOptions(split=True)
    opts_nosplit = estimator.ThamesOptions(split=False)

    def rows(index, d, rep):
        data_seed = spawn_seed(seed, 2 * index)
        draw_seed = spawn_seed(seed, 2 * index + 1)
        model = models.GaussianMeanModel(
            s0=1.0, data=models.gaussian_dataset(d, seed=data_seed))
        exact = model.exact_log_marginal()
        draws = model.posterior_sample(GAUSSIAN_D_T, draw_seed)
        log_post = model.log_post(draws)
        m_n, s_n = model.posterior_params()
        oracle = Ellipsoid(m_n, math.sqrt(s_n) * np.eye(d), math.sqrt(d + 1.0))
        fits = (("no-split", estimator.thames(draws, log_post, opts_nosplit)),
                ("split", estimator.thames(draws, log_post, opts_split)),
                ("oracle", estimator.thames(draws, log_post, opts_nosplit,
                                            ellipsoid=oracle)))
        return [(variant, d, rep, res.log_z, exact, res.log_z - exact)
                for variant, res in fits]

    settings = [(d, rep) for d in GAUSSIAN_D_GRID for rep in range(reps)]
    return [r for index, (d, rep) in enumerate(settings) for r in rows(index, d, rep)]


def dirmult(seed, reps):
    """Count-model runs: fixed true frequencies versus frequencies drawn
    from the prior, the latter with the simplex volume-ratio adjustment."""
    from . import models

    def row(index, regime, d, rep, mu):
        data_seed = spawn_seed(seed, 3 * index + 1)
        draw_seed = spawn_seed(seed, 3 * index + 2)
        model = models.DirMultModel(
            a0=DIRMULT_A0, l=DIRMULT_L,
            data=models.dirmult_dataset(mu, DIRMULT_N, DIRMULT_L, data_seed))
        exact = model.exact_log_marginal()
        draws = model.posterior_sample(DIRMULT_T, draw_seed)
        log_post = model.log_post(draws)
        plain = estimator.thames(draws, log_post, estimator.ThamesOptions())
        corr_cfg = ConstrainedCorrectionConfig(
            support=model.support(), n_samples=1000, seed=draw_seed ^ 1)
        adjusted = estimator.thames(draws, log_post,
                                    estimator.ThamesOptions(correction=corr_cfg))
        return (regime, d, rep, plain.log_z, adjusted.log_z, exact,
                plain.log_z - exact, adjusted.log_z - plain.log_z,
                plain.se_recip_rel)

    rows = []
    for regime in ("fixed", "stochastic"):
        for d in DIRMULT_D_GRID:
            # one true frequency vector per (regime, d), shared by all
            # datasets: uniform when fixed, a single prior draw when stochastic
            mu = (np.full(d + 1, 1.0 / (d + 1)) if regime == "fixed" else
                  models.dirmult_mu(d + 1, DIRMULT_A0, spawn_seed(seed, 100_000 + d)))
            for rep in range(reps):
                rows.append(row(len(rows), regime, d, rep, mu))
    return rows


def prostate(seed, reps):
    """Nested-regression comparison on the bundled prostate table."""
    from . import models

    opts = estimator.ThamesOptions(split=False)

    def row(i, k, model):
        draws = model.posterior_sample(PROSTATE_T, spawn_seed(seed, i))
        res = estimator.thames(draws, model.log_post(draws), opts)
        return (f"M{k}", k, model.exact_log_marginal(), res.log_z,
                res.ci_log_z[0], res.ci_log_z[1])

    nested = sorted(models.prostate_models(sigma2=PROSTATE_SIGMA2, alpha=0.5).items())
    return [row(i, k, model) for i, (k, model) in enumerate(nested)]


def toy(seed, reps):
    """Running-estimate traces on the two-dimensional all-zeros dataset,
    contrasting the truncated estimator with the plain harmonic mean."""
    from . import models

    model = models.GaussianMeanModel(s0=1.0, data=np.zeros((20, 2)))
    exact = model.exact_log_marginal()
    draws = model.posterior_sample(TOY_T, spawn_seed(seed, 0))
    log_post = model.log_post(draws)
    log_lik = model.log_likelihood(draws)
    opts = estimator.ThamesOptions(split=False)  # radius sqrt(d + 1), d = 2

    return [(upto, estimator.thames(draws[:upto], log_post[:upto], opts).log_z,
             estimator.harmonic_mean_log_z(log_lik[:upto]), exact)
            for upto in range(TOY_STRIDE, TOY_T + 1, TOY_STRIDE)]


EXPERIMENTS = {
    "gaussian-T": (gaussian_t, "gaussian_T.csv",
                   ["T", "log_z", "exact_log_z", "error", "ci_lower", "ci_upper",
                    "covered"]),
    "gaussian-d": (gaussian_d, "gaussian_d.csv",
                   ["variant", "d", "rep", "log_z", "exact_log_z", "error"]),
    "dirmult": (dirmult, "dirmult.csv",
                ["regime", "d", "rep", "log_z", "log_z_corrected", "exact_log_z",
                 "error", "correction_shift", "se_recip_rel"]),
    "prostate": (prostate, "prostate.csv",
                 ["model", "k", "exact_log_z", "thames_log_z", "ci_lower",
                  "ci_upper"]),
    "toy-figure7": (toy, "toy_running.csv",
                    ["T", "thames_log_z", "harmonic_log_z", "exact_log_z"]),
}


def run(name, seed, reps):
    """The CSV rows of experiment name."""
    if name not in EXPERIMENTS:
        raise InvalidInput(f"unknown experiment {name!r:.40}; expected one of "
                           + ", ".join(sorted(EXPERIMENTS)))
    _check_seed(seed)
    _check_count(reps, "replication")
    return EXPERIMENTS[name][0](seed, reps)
