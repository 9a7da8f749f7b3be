"""Closed-form Gaussian denoiser: hand values, identities, calibration."""

import math

import numpy as np
import pytest

from noiselab.core import Rng, cholesky_factor
from noiselab.datasets import DatasetSpec, ar1_covariance, dataset_covariance
from noiselab.oracle import GaussianOracle


def draw_x0(sigma, rng, n_samples):
    """n_samples rows of N(0, sigma), drawn as datasets draws gaussian_ar1 rows."""
    return rng.normal((n_samples, sigma.shape[0])) @ cholesky_factor(sigma).T


class TestHandValues:
    def test_scalar_unit_variance(self):
        """Sigma = [[1]], gamma = 0.5, b = 1: x_signal = x_t / 2."""
        oracle = GaussianOracle(np.eye(1))
        x_t = np.array([[2.0]])
        x0_hat, eps_hat = oracle.denoise(x_t, 0.5)
        assert eps_hat[0, 0] == pytest.approx(1.0 / math.sqrt(0.5) * 1.0, abs=1e-12)
        assert x0_hat[0, 0] == pytest.approx(2.0 * math.sqrt(0.5), abs=1e-12)

    def test_scaled_identity_covariance(self):
        """Sigma = 4 I, gamma = 0.2, b = 0.5: shrinkage factor 0.2."""
        oracle = GaussianOracle(4.0 * np.eye(3))
        x_t = np.array([[1.0, -2.0, 3.0]])
        x0_hat, eps_hat = oracle.denoise(x_t, 0.2, scale=0.5)
        # a^2 = 0.05, s^2 = 0.8; x_signal = (0.05*4 / 1.0) x_t
        np.testing.assert_allclose(eps_hat, 0.8 * x_t / math.sqrt(0.8), atol=1e-12)
        np.testing.assert_allclose(x0_hat, math.sqrt(0.2) * x_t, atol=1e-12)

    def test_expected_mse_identity_covariance(self):
        oracle = GaussianOracle(np.eye(5))
        # s^2 / (gamma b^2 + s^2)
        assert oracle.expected_mse(0.5) == pytest.approx(0.5, abs=1e-12)
        assert oracle.expected_mse(0.5, scale=0.5) == pytest.approx(
            0.5 / (0.125 + 0.5), abs=1e-12
        )

    def test_mse_endpoints(self):
        sigma = ar1_covariance(6, 0.7)
        oracle = GaussianOracle(sigma)
        assert oracle.expected_mse(0.0) == pytest.approx(1.0, abs=1e-12)
        assert oracle.expected_mse(1.0) == 0.0

    def test_gamma_zero_denoise(self):
        oracle = GaussianOracle(ar1_covariance(4, 0.5))
        x_t = Rng(0).normal((3, 4))
        x0_hat, eps_hat = oracle.denoise(x_t, 0.0)
        np.testing.assert_array_equal(x0_hat, np.zeros_like(x_t))
        np.testing.assert_array_equal(eps_hat, x_t)


class TestIdentities:
    """Algebraic consequences of the posterior-mean formula."""

    @pytest.mark.parametrize("gamma_t", [0.0, 0.1, 0.5, 0.9, 0.999])
    @pytest.mark.parametrize("scale", [0.2, 0.5, 1.0])
    def test_reconstruction(self, gamma_t, scale):
        """sqrt(g) x0_hat + sqrt(1-g) eps_hat recovers x_t exactly."""
        oracle = GaussianOracle(ar1_covariance(8, 0.6))
        x_t = Rng(7).normal((5, 8))
        x0_hat, eps_hat = oracle.denoise(x_t, gamma_t, scale)
        recon = math.sqrt(gamma_t) * x0_hat + math.sqrt(1.0 - gamma_t) * eps_hat
        np.testing.assert_allclose(recon, x_t, atol=1e-10)

    def test_equivalent_to_rescaled_covariance(self):
        """Oracle(Sigma) at scale b matches Oracle(b^2 Sigma) at scale 1."""
        sigma = ar1_covariance(6, 0.8)
        b = 0.4
        x_t = Rng(3).normal((4, 6))
        a_x0, a_eps = GaussianOracle(sigma).denoise(x_t, 0.6, scale=b)
        b_x0, b_eps = GaussianOracle(b * b * sigma).denoise(x_t, 0.6, scale=1.0)
        np.testing.assert_allclose(a_eps, b_eps, atol=1e-12)
        np.testing.assert_allclose(a_x0, b_x0, atol=1e-12)

    def test_linearity_in_x_t(self):
        oracle = GaussianOracle(ar1_covariance(5, 0.3))
        x = Rng(1).normal((2, 5))
        y = Rng(2).normal((2, 5))
        sum_x0, sum_eps = oracle.denoise(x + y, 0.4, 0.7)
        x_x0, x_eps = oracle.denoise(x, 0.4, 0.7)
        y_x0, y_eps = oracle.denoise(y, 0.4, 0.7)
        np.testing.assert_allclose(sum_x0, x_x0 + y_x0, atol=1e-11)
        np.testing.assert_allclose(sum_eps, x_eps + y_eps, atol=1e-11)


class TestMseStructure:
    def test_monotone_decreasing_in_gamma(self):
        oracle = GaussianOracle(ar1_covariance(12, 0.6))
        grid = np.linspace(0.0, 1.0, 21)
        vals = [oracle.expected_mse(g) for g in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("gamma_t", [0.3, 0.5, 0.7, 0.9])
    def test_redundancy_lowers_mse(self, gamma_t):
        """More correlated coordinates are easier to denoise."""
        vals = [
            GaussianOracle(ar1_covariance(16, rho)).expected_mse(gamma_t)
            for rho in (0.0, 0.5, 0.9)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_replication_lowers_mse(self):
        base = ar1_covariance(8, 0.5)
        spec = DatasetSpec(kind="toy_image", n_train=1, seed=0, base_res=3, rho=0.5, upsample=2)
        replicated = dataset_covariance(spec)
        g = 0.5
        assert GaussianOracle(replicated).expected_mse(g) < GaussianOracle(
            np.eye(replicated.shape[0])
        ).expected_mse(g)
        assert GaussianOracle(base).expected_mse(g) < GaussianOracle(np.eye(8)).expected_mse(g)


class TestCalibration:
    """Empirical MSE of the oracle matches the formula and beats rivals."""

    def setup_method(self):
        self.sigma = ar1_covariance(8, 0.8)
        self.oracle = GaussianOracle(self.sigma)
        rng = Rng(12345)
        self.x0 = draw_x0(self.sigma, rng, 10_000)
        self.eps = rng.normal(self.x0.shape)

    def _simulate(self, gamma_t, b):
        x_t = math.sqrt(gamma_t) * b * self.x0 + math.sqrt(1.0 - gamma_t) * self.eps
        x0_hat, eps_hat = self.oracle.denoise(x_t, gamma_t, b)
        return x_t, x0_hat, eps_hat

    @pytest.mark.parametrize("gamma_t,b", [(0.5, 1.0), (0.8, 1.0), (0.5, 0.3)])
    def test_empirical_matches_expected(self, gamma_t, b):
        _, x0_hat, _ = self._simulate(gamma_t, b)
        emp = float(np.mean((x0_hat / b - self.x0) ** 2))
        assert emp == pytest.approx(self.oracle.expected_mse(gamma_t, b), rel=0.05)

    def test_beats_diagonal_oracle(self):
        """Ignoring off-diagonal structure must cost accuracy."""
        gamma_t, b = 0.5, 1.0
        x_t, x0_hat, _ = self._simulate(gamma_t, b)
        diag = GaussianOracle(np.diag(np.diag(self.sigma)))
        x0_diag, _ = diag.denoise(x_t, gamma_t, b)
        full_err = float(np.mean((x0_hat - self.x0) ** 2))
        diag_err = float(np.mean((x0_diag - self.x0) ** 2))
        assert full_err < diag_err * 0.95
        assert diag.expected_mse(gamma_t, b) > self.oracle.expected_mse(gamma_t, b)

    def test_beats_best_scalar_shrinkage(self):
        """No c * x_t estimator can undercut the posterior mean."""
        gamma_t, b = 0.6, 1.0
        x_t, x0_hat, _ = self._simulate(gamma_t, b)
        oracle_err = float(np.mean((x0_hat - self.x0) ** 2))
        # in-sample optimal scalar c, an upper bound on any fixed c
        c = float(np.sum(x_t * self.x0) / np.sum(x_t * x_t))
        scalar_err = float(np.mean((c * x_t - self.x0) ** 2))
        assert oracle_err < scalar_err * 1.01


class TestValidation:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            GaussianOracle(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        m = np.eye(3)
        m[0, 1] = 0.5
        with pytest.raises(ValueError):
            GaussianOracle(m)

    def test_rejects_indefinite(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(ValueError):
            GaussianOracle(m)

    def test_denoise_gamma_one_rejected(self):
        oracle = GaussianOracle(np.eye(2))
        with pytest.raises(ValueError):
            oracle.denoise(np.zeros((1, 2)), 1.0)

    def test_bad_scale_rejected(self):
        oracle = GaussianOracle(np.eye(2))
        with pytest.raises(ValueError):
            oracle.denoise(np.zeros((1, 2)), 0.5, scale=0.0)
        with pytest.raises(ValueError):
            oracle.expected_mse(0.5, scale=-1.0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    def test_non_finite_scale_rejected(self, scale):
        oracle = GaussianOracle(np.eye(2))
        message = f"scale must be positive and finite, got {scale}"
        with pytest.raises(ValueError, match=message):
            oracle.denoise(np.zeros((1, 2)), 0.5, scale=scale)
        with pytest.raises(ValueError, match=message):
            oracle.expected_mse(0.5, scale=scale)

    def test_dimension_mismatch(self):
        oracle = GaussianOracle(np.eye(3))
        with pytest.raises(ValueError):
            oracle.denoise(np.zeros((2, 4)), 0.5)


class TestSingularCovariance:
    """Replicated coordinates: a singular Sigma is accepted and denoises."""

    def setup_method(self):
        spec = DatasetSpec(kind="toy_image", n_train=1, seed=0, base_res=2, rho=0.5, upsample=2)
        self.sigma = dataset_covariance(spec)
        self.oracle = GaussianOracle(self.sigma)

    def test_constructor_accepts_psd(self):
        assert self.oracle.dim == 16

    def test_denoise_works_and_reconstructs(self):
        x_t = Rng(4).normal((3, 16))
        x0_hat, eps_hat = self.oracle.denoise(x_t, 0.7, 0.5)
        recon = math.sqrt(0.7) * x0_hat + math.sqrt(0.3) * eps_hat
        np.testing.assert_allclose(recon, x_t, atol=1e-10)

    def test_denoised_signal_respects_replication(self):
        """Posterior mean of replicated coordinates is replicated."""
        x_t = Rng(5).normal((2, 16))
        x0_hat, _ = self.oracle.denoise(x_t, 0.5)
        grids = x0_hat.reshape(2, 4, 4)
        np.testing.assert_allclose(grids[:, 0, 0], grids[:, 0, 1], atol=1e-10)
        np.testing.assert_allclose(grids[:, 0, 0], grids[:, 1, 1], atol=1e-10)

    def test_expected_mse_finite(self):
        assert 0.0 < self.oracle.expected_mse(0.5) < 1.0

    def test_expected_mse_at_an_overflowing_scale(self):
        # b^2 gamma overflows to inf: every mode's share rounds to 0, and a
        # zero mode must not turn that into inf * 0 = nan
        assert self.oracle.expected_mse(0.5, 1e200) == 0.0

    @pytest.mark.parametrize("base_res, rho", [(2, 0.5), (4, 0.9)])
    @pytest.mark.parametrize("gamma_t", [0.5, 0.999999, 1.0 - 1e-9])
    @pytest.mark.parametrize("b", [0.3, 1.0])
    def test_expected_mse_is_the_sum_over_known_modes(self, base_res, rho, gamma_t, b):
        """Upsampling by u keeps the base grid's modes, times u^2, and adds zero modes.

        The base grid's covariance is K kron K for the AR(1) matrix K, so its
        modes are the products of K's eigenvalues.
        """
        u = 2
        spec = DatasetSpec(kind="toy_image", n_train=1, seed=0, base_res=base_res, rho=rho,
                           upsample=u)
        k = np.linalg.eigvalsh(ar1_covariance(base_res, rho))
        modes = u * u * np.outer(k, k).ravel()
        a2, s2 = gamma_t * b * b, 1.0 - gamma_t
        expected = np.sum(s2 * modes / (a2 * modes + s2)) / (base_res * u) ** 2
        got = GaussianOracle(dataset_covariance(spec)).expected_mse(gamma_t, b)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestSampleX0:
    """The N(0, Sigma) draw the calibration tests use."""

    def test_moments(self):
        sigma = ar1_covariance(4, 0.6)
        x = draw_x0(sigma, Rng(77), 200_000)
        np.testing.assert_allclose(x.mean(axis=0), np.zeros(4), atol=0.02)
        np.testing.assert_allclose(np.cov(x.T), sigma, atol=0.02)

    def test_deterministic(self):
        sigma = ar1_covariance(3, 0.2)
        a = draw_x0(sigma, Rng(5), 10)
        b = draw_x0(sigma, Rng(5), 10)
        np.testing.assert_array_equal(a, b)
