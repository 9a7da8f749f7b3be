"""Synthetic datasets with controllable redundancy.

Every dataset is standardized to zero mean and unit per-coordinate
variance in distribution, and is a deterministic function of its seed.
The Gaussian families expose their exact covariance so the closed-form
oracle can stand in for a trained denoiser; upsampled image-like data
replicates coordinates (nearest neighbor), which raises redundancy
without changing per-coordinate statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from noiselab.core import Rng, check_seed, cholesky_factor

__all__ = [
    "DATASET_KINDS",
    "DatasetSpec",
    "ar1_covariance",
    "dataset_covariance",
    "make_dataset",
    "mixture2d_standardizer",
]

UPSAMPLE_FACTORS = (1, 2, 4)

# Each kind and the fields it takes beyond the ones every kind takes: the
# only declaration of both, which config reads for the [dataset] keys.
_KIND_EXTRAS = {
    "gaussian_ar1": ("dim", "rho"),
    "mixture2d": ("modes", "radius", "std"),
    "checkerboard": (),
    "toy_image": ("base_res", "rho", "upsample"),
}
DATASET_KINDS = tuple(_KIND_EXTRAS)
_KIND_SPECIFIC = frozenset().union(*_KIND_EXTRAS.values())


def ar1_covariance(dim: int, rho: float) -> np.ndarray:
    """AR(1) covariance Sigma_ij = rho^|i-j| (unit diagonal)."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    idx = np.arange(dim)
    return rho ** np.abs(idx[:, None] - idx[None, :])


@dataclass(frozen=True)
class DatasetSpec:
    """One dataset family plus its parameters.

    gaussian_ar1: dim, rho. mixture2d: modes, radius, std. checkerboard:
    no extras. toy_image: base_res, rho, upsample in {1, 2, 4}; samples
    are flattened (base_res * upsample)^2 grids of a separable AR(1)
    field, nearest-neighbor upsampled. A field of another kind must keep
    its default.
    """

    kind: str
    n_train: int
    seed: int
    dim: Optional[int] = None
    rho: Optional[float] = None
    modes: Optional[int] = None
    radius: Optional[float] = None
    std: Optional[float] = None
    base_res: Optional[int] = None
    upsample: int = 1

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}; expected {DATASET_KINDS}")
        if self.n_train < 1:
            raise ValueError(f"n_train must be >= 1, got {self.n_train}")
        check_seed(self.seed)
        for f in fields(self):
            if (f.name in _KIND_SPECIFIC and f.name not in _KIND_EXTRAS[self.kind]
                    and getattr(self, f.name) != f.default):
                raise ValueError(f"{f.name} does not apply to dataset kind {self.kind}")
        if self.kind == "gaussian_ar1":
            if self.dim is None or self.dim < 1:
                raise ValueError("gaussian_ar1 needs dim >= 1")
            if self.rho is None or not 0.0 <= self.rho < 1.0:
                raise ValueError("gaussian_ar1 needs rho in [0, 1)")
        elif self.kind == "mixture2d":
            if self.modes is None or self.modes < 1:
                raise ValueError("mixture2d needs modes >= 1")
            if self.radius is None or not 0.0 < self.radius < math.inf:
                raise ValueError(f"mixture2d needs a finite radius > 0, got {self.radius}")
            if self.std is None or not 0.0 < self.std < math.inf:
                raise ValueError(f"mixture2d needs a finite std > 0, got {self.std}")
        elif self.kind == "toy_image":
            if self.base_res is None or self.base_res < 2:
                raise ValueError("toy_image needs base_res >= 2")
            if self.rho is None or not 0.0 <= self.rho < 1.0:
                raise ValueError("toy_image needs rho in [0, 1)")
            if self.upsample not in UPSAMPLE_FACTORS:
                raise ValueError(f"upsample must be one of {UPSAMPLE_FACTORS}")

    @property
    def data_dim(self) -> int:
        if self.kind == "gaussian_ar1":
            return int(self.dim)
        if self.kind == "toy_image":
            return int(self.base_res * self.upsample) ** 2
        return 2

    @property
    def is_gaussian(self) -> bool:
        """True when the exact covariance is known (oracle-compatible)."""
        return self.kind in ("gaussian_ar1", "toy_image")


def dataset_covariance(spec: DatasetSpec) -> np.ndarray:
    """Exact data covariance for the Gaussian families.

    toy_image uses a separable AR(1) field: cov((i,j),(k,l)) =
    rho^|i-k| rho^|j-l| on the base grid, then coordinate replication
    for the upsampled grid (exactly singular for upsample > 1).
    """
    if spec.kind == "gaussian_ar1":
        return ar1_covariance(spec.dim, spec.rho)
    if spec.kind == "toy_image":
        k = ar1_covariance(spec.base_res, spec.rho)
        p = _base_pixels(spec)
        return np.kron(k, k)[np.ix_(p, p)]
    raise ValueError(f"{spec.kind} has no closed-form covariance")


def _base_pixels(spec: DatasetSpec) -> np.ndarray:
    """The base-grid pixel each pixel of the flattened toy_image copies: (i, j) -> (i//u, j//u)."""
    rows = np.arange(spec.base_res * spec.upsample) // spec.upsample
    return (rows[:, None] * spec.base_res + rows[None, :]).ravel()


def _make_gaussian(spec: DatasetSpec, rng: Rng) -> np.ndarray:
    """Draws of a Gaussian family; toy_image draws its base grid, then replicates pixels."""
    L = cholesky_factor(dataset_covariance(replace(spec, upsample=1)))
    x = rng.normal((spec.n_train, L.shape[0])) @ L.T
    # replication copies unit-variance coordinates, so the upsampled data
    # is already standardized; no empirical rescale that would perturb
    # the exact covariance.
    return x if spec.upsample == 1 else x[:, _base_pixels(spec)]


def mixture2d_standardizer(modes: int, radius: float, std: float):
    """Exact (mean, per_coordinate_std) of the ring mixture.

    For modes >= 3 this reduces to mean 0 and std sqrt(radius^2/2 + std^2)
    in both coordinates; computing it from the centers keeps degenerate
    rings (1 or 2 modes) standardized too.
    """
    ang = 2.0 * np.pi * np.arange(modes) / modes
    centers = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    mean = centers.mean(axis=0)
    scale = np.sqrt(centers.var(axis=0) + std**2)
    return mean, scale


def _make_mixture2d(spec: DatasetSpec, rng: Rng) -> np.ndarray:
    idx = rng.integers(spec.modes, (spec.n_train,))
    ang = 2.0 * np.pi * idx / spec.modes
    centers = spec.radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    x = centers + spec.std * rng.normal((spec.n_train, 2))
    mean, scale = mixture2d_standardizer(spec.modes, spec.radius, spec.std)
    return (x - mean) / scale


def _make_checkerboard(spec: DatasetSpec, rng: Rng) -> np.ndarray:
    n = spec.n_train
    col = rng.integers(4, (n,))
    cell = rng.integers(2, (n,))
    u = rng.uniform((n,))
    v = rng.uniform((n,))
    x1 = col + u
    x2 = (col % 2) + 2 * cell + v
    x = np.stack([x1 - 2.0, x2 - 2.0], axis=1)
    # both marginals are uniform on [-2, 2): variance 4/3
    return x / np.sqrt(4.0 / 3.0)


def make_dataset(spec: DatasetSpec) -> np.ndarray:
    """Draw the dataset: (n_train, data_dim) float64, deterministic in seed."""
    rng = Rng(spec.seed)
    if spec.is_gaussian:
        out = _make_gaussian(spec, rng)
    elif spec.kind == "mixture2d":
        out = _make_mixture2d(spec, rng)
    else:
        out = _make_checkerboard(spec, rng)
    return np.ascontiguousarray(out)
