"""Conjugate models: closed-form marginals against dense oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from thames.errors import InvalidInput
from thames.models import (
    DirMultModel,
    GaussianMeanModel,
    LinRegModel,
    PROSTATE_PREDICTORS,
    dirmult_dataset,
    dirmult_mu,
    gaussian_dataset,
    prostate_data,
    prostate_models,
)
from thames.seeds import _rng

RNG = np.random.default_rng(2024)
LOG_2PI = math.log(2.0 * math.pi)


class TestGaussianMeanModel:
    def test_marginal_matches_dense_mvn(self):
        # each column is MVN_n(0, s0 11^T + I); evaluate the n x n form directly
        for d, n, s0 in ((1, 7, 1.0), (3, 12, 0.5), (2, 40, 2.0)):
            data = RNG.standard_normal((n, d)) + 1.0
            model = GaussianMeanModel(s0, data)
            cov = s0 * np.ones((n, n)) + np.eye(n)
            dense = sum(
                stats.multivariate_normal.logpdf(data[:, j], np.zeros(n), cov)
                for j in range(d))
            assert model.exact_log_marginal() == pytest.approx(dense, rel=1e-10)

    def test_conjugacy_identity(self):
        # log prior + log lik - log posterior = log Z at every point
        model = GaussianMeanModel(1.5, RNG.standard_normal((10, 3)))
        m_n, s_n = model.posterior_params()
        mus = RNG.standard_normal((20, 3))
        post_pdf = stats.multivariate_normal.logpdf(mus, m_n, s_n * np.eye(3))
        values = model.log_prior(mus) + model.log_likelihood(mus) - post_pdf
        assert np.allclose(values, model.exact_log_marginal(), atol=1e-9)

    def test_log_likelihood_matches_pointwise(self):
        model = GaussianMeanModel(1.0, RNG.standard_normal((6, 2)))
        mu = np.array([0.3, -0.7])
        direct = sum(
            stats.multivariate_normal.logpdf(row, mu, np.eye(2))
            for row in model.data)
        assert model.log_likelihood(mu[None, :])[0] == pytest.approx(direct)

    def test_posterior_sample_moments(self):
        model = GaussianMeanModel(1.0, gaussian_dataset(2, n=20, seed=0))
        m_n, s_n = model.posterior_params()
        draws = model.posterior_sample(200_000, seed=1)
        assert np.allclose(draws.mean(axis=0), m_n, atol=0.005)
        assert np.allclose(np.var(draws, axis=0), s_n, atol=0.005)

    def test_posterior_params_hand_check(self):
        model = GaussianMeanModel(1.0, np.array([[4.0], [6.0]]))
        m_n, s_n = model.posterior_params()
        assert s_n == pytest.approx(1.0 / 3.0)
        assert m_n[0] == pytest.approx(10.0 / 3.0)

    def test_sampler_deterministic(self):
        model = GaussianMeanModel(1.0, gaussian_dataset(3, seed=5))
        assert np.array_equal(model.posterior_sample(50, 7),
                              model.posterior_sample(50, 7))

    def test_validation(self):
        with pytest.raises(InvalidInput):
            GaussianMeanModel(0.0, np.ones((3, 1)))


class TestLinRegModel:
    def _random_model(self, n, d, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        beta = rng.standard_normal(d)
        y = X @ beta + rng.standard_normal(n)
        return LinRegModel(X, y, sigma2=0.8, alpha=0.5)

    def test_marginal_matches_dense_mvn(self):
        for n, d, seed in ((10, 2, 0), (25, 4, 1), (60, 8, 2)):
            model = self._random_model(n, d, seed)
            cov = model.X @ model.X.T / model.alpha + model.sigma2 * np.eye(n)
            dense = stats.multivariate_normal.logpdf(model.y, np.zeros(n), cov)
            assert model.exact_log_marginal() == pytest.approx(dense, rel=1e-9)

    def test_prior_independent_when_design_is_zero(self):
        n = 9
        model = LinRegModel(np.zeros((n, 3)), RNG.standard_normal(n),
                            sigma2=1.3, alpha=0.5)
        expected = stats.multivariate_normal.logpdf(
            model.y, np.zeros(n), 1.3 * np.eye(n))
        assert model.exact_log_marginal() == pytest.approx(expected, rel=1e-10)

    def test_conjugacy_identity(self):
        model = self._random_model(15, 3, 3)
        m_n, sigma_n = model.posterior_params()
        betas = RNG.standard_normal((10, 3))
        post = stats.multivariate_normal.logpdf(betas, m_n, sigma_n)
        values = model.log_prior(betas) + model.log_likelihood(betas) - post
        assert np.allclose(values, model.exact_log_marginal(), atol=1e-8)

    def test_posterior_params_solve_normal_equations(self):
        model = self._random_model(30, 4, 4)
        m_n, sigma_n = model.posterior_params()
        prec = model.X.T @ model.X / model.sigma2 + model.alpha * np.eye(4)
        assert np.allclose(prec @ m_n, model.X.T @ model.y / model.sigma2)
        assert np.allclose(sigma_n, np.linalg.inv(prec))

    def test_posterior_sample_moments(self):
        model = self._random_model(20, 2, 5)
        m_n, sigma_n = model.posterior_params()
        draws = model.posterior_sample(200_000, seed=6)
        assert np.allclose(draws.mean(axis=0), m_n, atol=0.01)
        assert np.allclose(np.cov(draws, rowvar=False), sigma_n, atol=0.01)

    def test_log_likelihood_matches_out_of_place_expression(self):
        # the residuals are formed and squared in place; the floats are those
        # of the expression below
        model = prostate_models()[8]
        b = model.posterior_sample(300, seed=7)
        resid = model.y[None, :] - b @ model.X.T
        sq = np.sum(resid ** 2, axis=1)
        expected = -0.5 * (model.n * (LOG_2PI + np.log(model.sigma2))
                           + sq / model.sigma2)
        assert np.array_equal(model.log_likelihood(b), expected)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            LinRegModel(np.ones((3, 1)), np.ones(4), 1.0, 1.0)
        with pytest.raises(InvalidInput):
            LinRegModel(np.ones((3, 1)), np.ones(3), -1.0, 1.0)


class TestProstateFixture:
    def test_shape_and_column_order(self):
        X, y = prostate_data()
        assert X.shape == (97, 8) and y.shape == (97,)
        assert len(PROSTATE_PREDICTORS) == 8

    def test_summary_statistics(self):
        # spot-check against the published description of the study table
        X, y = prostate_data()
        lcavol, age, gleason = X[:, 0], X[:, 2], X[:, 6]
        assert lcavol.mean() == pytest.approx(1.3500, abs=1e-3)
        assert lcavol.min() == pytest.approx(-1.3471, abs=1e-3)
        assert lcavol.max() == pytest.approx(3.8210, abs=1e-3)
        assert age.min() == 41 and age.max() == 79
        assert set(np.unique(gleason)) == {6.0, 7.0, 8.0, 9.0}
        assert y.mean() == pytest.approx(2.4784, abs=1e-3)
        assert np.all((X[:, 4] == 0) | (X[:, 4] == 1))  # svi is binary

    def test_nested_models(self):
        models = prostate_models(sigma2=1.0, alpha=0.5)
        assert sorted(models) == list(range(2, 9))
        for k, model in models.items():
            assert model.d == k and model.n == 97
            assert model.alpha == 0.5


class TestDirMultModel:
    def _model(self, k=4, n=30, l=10, a0=1.0, seed=0):
        mu = dirmult_mu(k, a0=2.0, seed=seed)
        data = dirmult_dataset(mu, n, l, seed + 1)
        return DirMultModel(a0=a0, l=l, data=data)

    def test_marginal_matches_gamma_ratio_formula(self):
        # direct Dirichlet-multinomial marginal with multinomial coefficients:
        # prod_i [ l! / prod_j y_ij! ] * B(a0 + colsums) / B(a0)
        model = self._model()
        counts = model.data.sum(axis=0)
        k = model.k
        coeff = float(np.sum(gammaln(model.l + 1.0)
                             - gammaln(model.data + 1.0).sum(axis=1)))
        log_beta_post = (np.sum(gammaln(model.a0 + counts))
                         - gammaln(np.sum(model.a0 + counts)))
        log_beta_prior = k * gammaln(model.a0) - gammaln(k * model.a0)
        direct = coeff + log_beta_post - log_beta_prior
        assert model.exact_log_marginal() == pytest.approx(direct, rel=1e-10)

    def test_identity_holds_at_any_interior_point(self):
        model = self._model(k=3)
        for point in ([0.2, 0.3], [0.05, 0.9], [1.0 / 3.0, 1.0 / 3.0]):
            p = np.asarray(point).reshape(1, -1)
            value = (model.log_prior(p) + model.log_likelihood(p)
                     - model._log_posterior_pdf(p))[0]
            assert value == pytest.approx(model.exact_log_marginal(), rel=1e-9)

    def test_boundary_draws_have_zero_density(self):
        model = self._model(k=3)
        bad = np.array([[0.0, 0.5], [0.6, 0.5]])  # on edge / outside
        assert np.all(model.log_prior(bad) == -np.inf)
        assert np.all(model.log_post(bad) == -np.inf)

    @pytest.mark.parametrize("k", [2, 4, 51])
    def test_log_post_is_prior_plus_likelihood_bit_for_bit(self, k):
        model = self._model(k=k, n=40, l=150)
        inside = model.posterior_sample(500, seed=4)
        outside = inside.copy()
        outside[::3, 0] = -outside[::3, 0]  # a negative coordinate
        outside[1::3, 0] = 1.5  # the last coordinate goes negative
        outside[2::3, 0] = 0.0  # on the boundary
        for draws in (inside, outside, np.vstack([inside, outside])):
            expected = model.log_prior(draws) + model.log_likelihood(draws)
            assert np.array_equal(model.log_post(draws), expected)
        assert np.all(model.log_post(outside) == -np.inf)

    def test_log_post_holds_one_table_of_logs(self):
        # the Dirichlet term is a product with the T x K logs, not a
        # second T x K array: 4.1 MB each at K = 51, T = 10 000
        model = self._model(k=51, n=40, l=150)
        draws = model.posterior_sample(10_000, seed=4)
        tracemalloc.start()
        try:
            model.log_post(draws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    def test_densities_match_scipy(self):
        model = self._model(k=6, n=25, l=40, a0=1.5)
        draws = model.posterior_sample(50, seed=5)
        full = np.column_stack([draws, 1.0 - draws.sum(axis=1)])
        prior = stats.dirichlet.logpdf(full.T, np.full(model.k, model.a0))
        lik = [np.sum(stats.multinomial.logpmf(model.data, model.l, p))
               for p in full]
        assert model.log_prior(draws) == pytest.approx(prior, rel=1e-12)
        assert model.log_likelihood(draws) == pytest.approx(lik, rel=1e-12)

    def test_posterior_sample_moments(self):
        model = self._model(k=5, n=50, l=20)
        alpha = model.posterior_alpha()
        draws = model.posterior_sample(200_000, seed=3)
        expected = (alpha / alpha.sum())[: model.d]
        assert np.allclose(draws.mean(axis=0), expected, atol=0.002)

    def test_posterior_sample_matches_out_of_place_expression(self):
        # the Gammas are normalized in place; the floats are those of the
        # expression below, on the same generator stream
        model = self._model(k=6, n=40, l=30)
        g = _rng(11).standard_gamma(model.posterior_alpha(), size=(400, model.k))
        expected = (g / g.sum(axis=1, keepdims=True))[:, : model.d]
        assert np.array_equal(model.posterior_sample(400, seed=11), expected)

    def test_support_is_simplex(self):
        model = self._model(k=3)
        pred = model.support()
        assert pred.kind == "simplex"
        assert pred.contains(np.array([[0.2, 0.3]]))[0]
        assert not pred.contains(np.array([[0.7, 0.6]]))[0]

    def test_dataset_row_sums(self):
        mu = dirmult_mu(4, 1.0, seed=9)
        data = dirmult_dataset(mu, 25, 12, seed=10)
        assert data.shape == (25, 4)
        assert np.all(data.sum(axis=1) == 12)
        assert mu.sum() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            DirMultModel(a0=0.0, l=3, data=np.array([[1, 2]]))
        with pytest.raises(InvalidInput):
            DirMultModel(a0=1.0, l=3, data=np.array([[1, 1]]))  # sums to 2
        with pytest.raises(InvalidInput):
            DirMultModel(a0=1.0, l=3, data=np.array([[4, -1]]))
