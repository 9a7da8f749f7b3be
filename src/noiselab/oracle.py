"""Closed-form optimal denoiser for Gaussian data.

For x0 ~ N(0, Sigma) diffused to x_t = a x0 + s eps with a = sqrt(gamma) b
and s = sqrt(1 - gamma), the posterior mean of the scaled signal is

    x_signal = a^2 Sigma (a^2 Sigma + s^2 I)^{-1} x_t        (mean of a x0)
    eps_hat  = (x_t - x_signal) / s
    x0_scaled_hat = x_signal / sqrt(gamma)                   (mean of b x0)

and the per-dimension Bayes MSE of estimating x0 is

    mse(gamma, b) = (1/n) trace(s^2 Sigma (a^2 Sigma + s^2 I)^{-1})
                  = (1/n) sum_i s^2 lambda_i / (a^2 lambda_i + s^2)

over the eigenvalues lambda_i of Sigma. It is trace(Sigma)/n at gamma = 0
and 0 at gamma = 1. Substituting a noise-prediction network with this
oracle turns sampling into a pure test of the noising strategy: no
training error, only discretization.

Sigma may be symmetric positive SEMIdefinite (replicated-coordinate
covariances are exactly singular): denoising factors a^2 Sigma + s^2 I,
which is positive definite for s > 0.

``denoise`` checks its inputs and the finiteness of eps_hat. The sampling
loop calls the unchecked kernel ``_eps`` instead: it takes the chain
state as a C-contiguous (dim, n) array (the transpose of the sampler's
column-order state), computes only eps_hat, and leaves the finiteness
check to the loop. At gamma = 1, where denoise refuses, it returns 0:
x_t = b x0 then carries no information about eps.
"""

from __future__ import annotations

import math

import numpy as np

from noiselab.core import _cho_solve, _factor, as_f64, ensure_finite

__all__ = ["GaussianOracle"]

_PSD_TOL = 1e-9


class GaussianOracle:
    """Bayes-optimal denoiser for zero-mean Gaussian data with known covariance."""

    def __init__(self, sigma: np.ndarray):
        sigma = as_f64(sigma, "oracle covariance")
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError(f"covariance must be square, got shape {sigma.shape}")
        scale = max(1.0, float(np.max(np.abs(sigma))))
        if np.max(np.abs(sigma - sigma.T)) > _PSD_TOL * scale:
            raise ValueError("covariance must be symmetric")
        eigvals = np.linalg.eigvalsh(sigma)  # ascending
        if eigvals[0] < -_PSD_TOL * scale:
            raise ValueError("covariance must be positive semidefinite")
        self.sigma = sigma
        # expected_mse's nonzero modes. eigvalsh puts a zero mode (a replicated
        # coordinate's) within dim * eps * max eigenvalue of 0; near gamma = 1
        # that adds about as much as a real mode, so below it a mode is 0.
        cutoff = sigma.shape[0] * np.finfo(np.float64).eps * eigvals[-1]
        self._modes = eigvals[eigvals > cutoff]
        self.dim = sigma.shape[0]

    def _validate(self, gamma_t: float, scale: float) -> tuple[float, float]:
        g = float(gamma_t)
        if not 0.0 <= g < 1.0:
            raise ValueError(f"gamma_t must lie in [0, 1), got {g}")
        return g, _check_scale(scale)

    def _signal(self, x_cols: np.ndarray, a2: float, s2: float) -> np.ndarray:
        """Sigma (a2 Sigma + s2 I)^{-1} x_cols for a C-contiguous (dim, n) x_cols.

        Unchecked: Sigma was validated when the oracle was built, and
        the factorization keeps its pivot check.
        """
        L = _factor(a2 * self.sigma + s2 * np.eye(self.dim))
        return self.sigma @ _cho_solve(L, x_cols)

    def _eps(self, x_cols: np.ndarray, gamma_t: float, scale: float) -> np.ndarray:
        """Noise prediction for a C-contiguous (dim, n) state, unchecked.

        The sampling loop's kernel. At gamma = 1 the state b x0 carries no
        information about eps, so its posterior mean is 0.
        """
        s2 = 1.0 - gamma_t
        if s2 == 0.0:
            return np.zeros_like(x_cols)
        a2 = gamma_t * scale * scale
        if a2 == 0.0:
            return x_cols / math.sqrt(s2)
        eps = self._signal(x_cols, a2, s2)
        eps *= a2
        np.subtract(x_cols, eps, out=eps)
        eps /= math.sqrt(s2)
        return eps

    def denoise(self, x_t: np.ndarray, gamma_t: float, scale: float = 1.0):
        """Posterior signal mean and implied noise prediction.

        Args:
            x_t: (batch, dim) noisy inputs in the scaled process.
            gamma_t: shared noise level in [0, 1).
            scale: input scale b of the forward process.

        Returns:
            (x0_scaled_hat, eps_hat): posterior mean of b x0, and the
            noise prediction satisfying
            x_t = sqrt(gamma) x0_scaled_hat + sqrt(1-gamma) eps_hat.
        """
        g, b = self._validate(gamma_t, scale)
        x_t = as_f64(x_t, "oracle x_t")
        if x_t.ndim != 2 or x_t.shape[1] != self.dim:
            raise ValueError(f"x_t shape {x_t.shape} does not match dim {self.dim}")
        a2 = g * b * b
        s2 = 1.0 - g
        if a2 == 0.0:
            return np.zeros_like(x_t), x_t / math.sqrt(s2)
        sigma_y = self._signal(np.ascontiguousarray(x_t.T), a2, s2).T
        eps_hat = (x_t - a2 * sigma_y) / math.sqrt(s2)
        # x_signal / sqrt(gamma), computed without the 1/sqrt(gamma) blowup
        x0_scaled_hat = (b * b * math.sqrt(g)) * sigma_y
        ensure_finite(eps_hat, "oracle eps_hat")
        return x0_scaled_hat, eps_hat

    def expected_mse(self, gamma_t: float, scale: float = 1.0) -> float:
        """Per-dimension Bayes MSE of estimating x0 at this noise level.

        The mean over Sigma's eigenvalues of s^2 lambda / (a^2 lambda + s^2);
        a mode with lambda = 0 adds 0, so only the nonzero modes are summed.
        """
        g = float(gamma_t)
        if not 0.0 <= g <= 1.0:
            raise ValueError(f"gamma_t must lie in [0, 1], got {g}")
        b = _check_scale(scale)
        if g == 1.0:
            return 0.0
        a2 = g * b * b
        s2 = 1.0 - g
        lam = self._modes
        return float(np.sum(s2 * lam / (a2 * lam + s2)) / self.dim)


def _check_scale(scale) -> float:
    b = float(scale)
    if not 0.0 < b < math.inf:
        raise ValueError(f"scale must be positive and finite, got {b}")
    return b
