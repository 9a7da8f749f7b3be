"""Sample-quality metrics sized for desk-scale experiments.

Large-scale image metrics are out of reach here, so trend claims are
scored with statistics that are exact for these data families: sliced
Wasserstein distance for low-dimensional point clouds, an unbiased MMD
estimator as a second opinion, and covariance error for Gaussian data
where the target covariance is known in closed form.
"""

from __future__ import annotations

import numpy as np

from noiselab.core import Rng, as_f64, ensure_finite
from noiselab.datasets import ar1_covariance
from noiselab.oracle import GaussianOracle

__all__ = [
    "METRICS",
    "METRIC_NAMES",
    "MMD_BANDWIDTH",
    "covariance_error",
    "mmd_rbf",
    "redundancy_curve",
    "sliced_wasserstein",
]

MMD_BANDWIDTH = 1.0  # the Gaussian kernel's bandwidth in mmd_rbf

DEFAULT_PROJECTION_SEED = 19
_SW_CHUNK = 8  # directions projected and sorted together


def _two_sample_args(a, b, min_each: int):
    a = as_f64(a, "samples a")
    b = as_f64(b, "samples b")
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"samples must be 2-D (n, dim), got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if a.shape[0] < min_each or b.shape[0] < min_each:
        raise ValueError(f"need at least {min_each} samples per set")
    return a, b


def _quantiles(sorted_vals: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Right-continuous inverse empirical CDF at the given probabilities."""
    n = sorted_vals.shape[0]
    idx = np.minimum((probs * n).astype(np.int64), n - 1)
    return sorted_vals[idx]


def sliced_wasserstein(a, b, n_proj: int = 64, rng: Rng | None = None) -> float:
    """Average 1-D 2-Wasserstein distance over random projections.

    Equal-size sets use exact sorted matching per direction; unequal
    sizes compare inverse-CDF quantiles at midpoints (k+0.5)/m with
    m = max(len(a), len(b)), which reduces to sorted matching when the
    sizes agree. Directions come from ``rng`` (a fixed default seed
    keeps repeated scoring reproducible).
    """
    a, b = _two_sample_args(a, b, min_each=2)
    if n_proj < 1:
        raise ValueError(f"n_proj must be >= 1, got {n_proj}")
    if rng is None:
        rng = Rng(DEFAULT_PROJECTION_SEED)
    dim = a.shape[1]
    dirs = rng.normal((n_proj, dim))
    norms = np.sqrt(np.sum(dirs**2, axis=1, keepdims=True))
    norms[norms < 1e-12] = 1.0
    dirs /= norms

    m = max(a.shape[0], b.shape[0])
    probs = (np.arange(m) + 0.5) / m
    total = 0.0
    # a few directions at a time, sorted in place: the projections of
    # every direction at once, with their sorted copies, were the largest
    # arrays of a run
    for j0 in range(0, n_proj, _SW_CHUNK):
        chunk = dirs[j0:j0 + _SW_CHUNK].T
        proj_a = a @ chunk
        proj_a.sort(axis=0)
        proj_b = b @ chunk
        proj_b.sort(axis=0)
        for j in range(chunk.shape[1]):
            # a set of m rows is its own quantiles: the gather is the identity
            qa = proj_a[:, j] if len(proj_a) == m else _quantiles(proj_a[:, j], probs)
            qb = proj_b[:, j] if len(proj_b) == m else _quantiles(proj_b[:, j], probs)
            total += float(np.sqrt(np.mean((qa - qb) ** 2)))
        del proj_a, proj_b, qa, qb  # freed before the next chunk's are made
    out = total / n_proj
    ensure_finite(np.asarray(out), "sliced_wasserstein")
    return out


def mmd_rbf(a, b) -> float:
    """Unbiased squared maximum mean discrepancy with a Gaussian kernel.

    k(x, y) = exp(-||x - y||^2 / (2 MMD_BANDWIDTH^2)). The diagonal terms
    are excluded from the within-set sums, so same-distribution inputs
    give a value centered on zero (possibly slightly negative).
    """
    a, b = _two_sample_args(a, b, min_each=2)
    denom = 2.0 * MMD_BANDWIDTH * MMD_BANDWIDTH

    def sq_dists(x, y):
        xx = np.sum(x**2, axis=1)
        yy = np.sum(y**2, axis=1)
        d2 = xx[:, None] + yy[None, :] - 2.0 * (x @ y.T)
        return np.maximum(d2, 0.0)

    k_aa = np.exp(-sq_dists(a, a) / denom)
    k_bb = np.exp(-sq_dists(b, b) / denom)
    k_ab = np.exp(-sq_dists(a, b) / denom)
    m, n = a.shape[0], b.shape[0]
    term_a = (k_aa.sum() - np.trace(k_aa)) / (m * (m - 1))
    term_b = (k_bb.sum() - np.trace(k_bb)) / (n * (n - 1))
    term_ab = 2.0 * k_ab.mean()
    out = float(term_a + term_b - term_ab)
    ensure_finite(np.asarray(out), "mmd_rbf")
    return out


def covariance_error(samples, sigma_ref) -> float:
    """Relative Frobenius error of the empirical covariance.

    ||C_hat - sigma_ref||_F / ||sigma_ref||_F with C_hat the unbiased
    (ddof=1) empirical covariance. Requires at least dim+1 samples so
    C_hat is not trivially rank-deficient.
    """
    samples = as_f64(samples, "samples")
    sigma_ref = as_f64(sigma_ref, "sigma_ref")
    if samples.ndim != 2:
        raise ValueError(f"samples must be 2-D (n, dim), got shape {samples.shape}")
    n, dim = samples.shape
    if sigma_ref.shape != (dim, dim):
        raise ValueError(f"sigma_ref shape {sigma_ref.shape} does not match dim {dim}")
    if n < dim + 1:
        raise ValueError(f"need at least dim+1 = {dim + 1} samples, got {n}")
    ref_norm = float(np.linalg.norm(sigma_ref))
    if ref_norm == 0.0:
        raise ValueError("sigma_ref must be nonzero")
    c_hat = np.cov(samples.T, ddof=1).reshape(dim, dim)
    out = float(np.linalg.norm(c_hat - sigma_ref) / ref_norm)
    ensure_finite(np.asarray(out), "covariance_error")
    return out


# Each metric a sweep scores by, by name: metric(samples, reference), where
# the reference is the target covariance for covariance_error and the
# data set for the others.
METRICS = {
    "sliced_wasserstein": sliced_wasserstein,
    "mmd_rbf": mmd_rbf,
    "covariance_error": covariance_error,
}
METRIC_NAMES = tuple(METRICS)


def redundancy_curve(rho_grid, gamma_grid, dim: int, scale: float = 1.0) -> np.ndarray:
    """Bayes MSE of denoising AR(1) data, tabulated over (gamma, rho).

    Returns a (len(gamma_grid), len(rho_grid)) matrix whose [i, j] entry
    is the per-dimension minimal MSE for recovering x0 from x_t at noise
    level gamma_grid[i] when the data covariance is AR(1) with
    correlation rho_grid[j]. Rows are non-increasing in rho: correlation
    is redundancy, and redundancy makes denoising easier.
    """
    rho_grid = np.atleast_1d(as_f64(rho_grid, "rho_grid"))
    gamma_grid = np.atleast_1d(as_f64(gamma_grid, "gamma_grid"))
    if rho_grid.ndim != 1 or gamma_grid.ndim != 1:
        raise ValueError("rho_grid and gamma_grid must be 1-D")
    out = np.empty((gamma_grid.shape[0], rho_grid.shape[0]))
    for j, rho in enumerate(rho_grid):
        oracle = GaussianOracle(ar1_covariance(dim, float(rho)))
        for i, g in enumerate(gamma_grid):
            out[i, j] = oracle.expected_mse(float(g), scale)
    ensure_finite(out, "redundancy_curve")
    return out
