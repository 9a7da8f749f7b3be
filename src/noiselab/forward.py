"""Forward diffusion with input scaling and network-input normalization.

A compound noising strategy bundles a gamma schedule, an input scale b,
and a normalization mode. The forward process draws

    x_t = sqrt(gamma(t)) * b * x0 + sqrt(1 - gamma(t)) * eps

so for unit-variance data the marginal variance of x_t is
(b^2 - 1) gamma + 1. Normalization restores a unit-variance network
input, either from per-example statistics ("empirical", the default) or
by dividing by the analytic standard deviation ("analytic"). Scaling by
b is equivalent to keeping b = 1 and replacing the schedule by

    gamma_eff = b^2 gamma / ((b^2 - 1) gamma + 1)

which shifts the logSNR curve by 2 ln b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from noiselab.core import Rng, as_f64, ensure_finite
from noiselab.schedules import ScheduleSpec, gamma

__all__ = [
    "NORMALIZE_MODES",
    "CompoundSchedule",
    "DegenerateInputError",
    "NoisySample",
    "SELF_COND_CLAMP",
    "analytic_variance",
    "check_analytic_scale",
    "diffuse",
    "effective_gamma",
    "normalize_input",
]

NORMALIZE_MODES = ("off", "empirical", "analytic")

# clamp applied to fed-back signal estimates (self-conditioning); wide
# enough for standardized data, tight enough to kill 1/sqrt(gamma) blowup
SELF_COND_CLAMP = 6.0

_STD_FLOOR = 1e-12


class DegenerateInputError(ValueError):
    """Empirical normalization hit a (near-)constant example."""


@dataclass(frozen=True)
class CompoundSchedule:
    """A full noising strategy: schedule, input scale, normalization mode."""

    schedule: ScheduleSpec
    input_scale: float = 1.0
    normalize: str = "empirical"

    def __post_init__(self):
        if not (0.0 < self.input_scale <= 1.0):
            raise ValueError(f"input_scale must lie in (0, 1], got {self.input_scale}")
        if self.normalize not in NORMALIZE_MODES:
            raise ValueError(
                f"normalize must be one of {NORMALIZE_MODES}, got {self.normalize!r}"
            )
        if self.normalize == "analytic":
            check_analytic_scale(self.input_scale, "input_scale")


def check_analytic_scale(scale: float, key: str) -> None:
    """Raise unless normalize = analytic can divide by the std at every gamma.

    The variance (b^2 - 1) gamma + 1 rounds to 0 at gamma = 1 for b below
    about 1e-8; key names the setting that holds b.
    """
    if analytic_variance(1.0, scale) <= 0.0:
        raise ValueError(
            f"{key} {scale!r} is too small for normalize = analytic: "
            f"the input variance (b^2 - 1) gamma + 1 rounds to 0 at gamma = 1"
        )


@dataclass(frozen=True)
class NoisySample:
    """One diffused batch: the noisy input plus everything that made it."""

    x_t: np.ndarray
    t: np.ndarray
    gamma_t: np.ndarray
    eps: np.ndarray


def _per_example(values: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Reshape a (batch,) vector to broadcast over ``like``'s feature axes."""
    return values.reshape((like.shape[0],) + (1,) * (like.ndim - 1))


def diffuse(x0: np.ndarray, t, rng: Optional[Rng], cs: CompoundSchedule,
            eps: Optional[np.ndarray] = None) -> NoisySample:
    """Diffuse a clean batch to per-example times t.

    Args:
        x0: (batch, ...) clean data.
        t: scalar or (batch,) times in [0, 1].
        rng: stream for the noise draw; may be None when ``eps`` is given.
        cs: compound noising strategy (its normalize mode is not applied here).
        eps: optional pre-drawn noise with x0's shape, for deterministic tests.

    Returns:
        NoisySample with x_t = sqrt(gamma) * b * x0 + sqrt(1 - gamma) * eps.
    """
    x0 = as_f64(x0, "diffuse x0")
    if x0.ndim < 2:
        raise ValueError("diffuse expects a batched x0 with ndim >= 2")
    if x0.size == 0:
        raise ValueError(f"diffuse needs a nonempty batch, got x0 of shape {x0.shape}")
    n = x0.shape[0]
    tt = np.asarray(t, dtype=np.float64)
    if tt.ndim == 0:
        tt = np.full(n, float(tt))
    if tt.shape != (n,):
        raise ValueError(f"t has shape {tt.shape}, expected ({n},)")
    g = np.asarray(gamma(cs.schedule, tt))
    if eps is None:
        if rng is None:
            raise ValueError("diffuse needs an rng when eps is not supplied")
        eps = rng.normal(x0.shape)
    else:
        eps = as_f64(eps, "diffuse eps")
        if eps.shape != x0.shape:
            raise ValueError(f"eps shape {eps.shape} does not match x0 {x0.shape}")
    gb = _per_example(g, x0)
    x_t = np.sqrt(gb) * cs.input_scale * x0 + np.sqrt(1.0 - gb) * eps
    ensure_finite(x_t, "diffuse output")
    return NoisySample(x_t=x_t, t=tt, gamma_t=g, eps=eps)


def analytic_variance(gamma_t, scale: float):
    """Marginal variance (b^2 - 1) gamma + 1 of x_t for unit-variance data."""
    g = np.asarray(gamma_t, dtype=np.float64)
    if np.any(g < 0.0) or np.any(g > 1.0):
        raise ValueError("gamma_t must lie in [0, 1]")
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    out = (scale * scale - 1.0) * g + 1.0
    return float(out) if np.ndim(gamma_t) == 0 else out


def effective_gamma(gamma_t, scale: float):
    """Schedule that input scaling is equivalent to at unit scale.

    gamma_eff = b^2 gamma / (b^2 gamma + (1 - gamma)); dividing the scaled
    process by its analytic std reproduces the unit-scale process run at
    gamma_eff with the same noise draw. The denominator keeps 1 - gamma
    as a term of its own: (b^2 - 1) gamma + 1 cancels near gamma = 1.
    """
    g = np.asarray(gamma_t, dtype=np.float64)
    analytic_variance(g, scale)  # checks gamma_t and scale
    s = (scale * scale) * g
    out = s / (s + (1.0 - g))
    return float(out) if np.ndim(gamma_t) == 0 else out


def normalize_input(x_t: np.ndarray, gamma_t, cs: CompoundSchedule) -> np.ndarray:
    """Normalize the network input per the compound schedule's mode.

    "off" returns the input unchanged; "empirical" divides each example by
    its own feature std (no mean subtraction); "analytic" divides by
    sqrt((b^2 - 1) gamma + 1). Raises DegenerateInputError when an
    empirical std falls below 1e-12.
    """
    x_t = as_f64(x_t, "normalize_input x_t")
    if x_t.ndim < 2:
        raise ValueError("normalize_input expects a batched x_t with ndim >= 2")
    if cs.normalize == "analytic":
        gamma_t = np.asarray(gamma_t, dtype=np.float64)
        if gamma_t.ndim == 0:
            gamma_t = np.full(x_t.shape[0], float(gamma_t))
        if gamma_t.shape != (x_t.shape[0],):
            raise ValueError(f"gamma_t has shape {gamma_t.shape}, expected ({x_t.shape[0]},)")
    return _normalize(x_t, gamma_t, cs)


def _normalize(x_t: np.ndarray, gamma_t, cs: CompoundSchedule) -> np.ndarray:
    """normalize_input without the input checks.

    gamma_t is one float or a (batch,) array; analytic_variance still
    checks its range.
    """
    if cs.normalize == "off":
        return x_t
    if cs.normalize == "empirical":
        std = x_t.std(axis=tuple(range(1, x_t.ndim)))
        if np.any(std < _STD_FLOOR):
            raise DegenerateInputError(
                "empirical normalization hit a near-constant example (std < 1e-12)"
            )
        return x_t / _per_example(std, x_t)
    std = np.sqrt(analytic_variance(gamma_t, cs.input_scale))
    return x_t / (_per_example(std, x_t) if np.ndim(std) else std)


def _signal_estimate(x_t: np.ndarray, gamma_t, eps_hat: np.ndarray) -> np.ndarray:
    """Invert the forward process given a noise estimate.

    Returns (x_t - sqrt(1 - gamma) eps_hat) / sqrt(gamma), the implied
    scaled signal b x0, as a new array in x_t's memory order. gamma_t is
    one float or broadcasts over x_t. The divisor is floored at
    sqrt(1e-12) so a gamma of exactly zero yields a large finite value
    instead of NaN; callers that feed the estimate back into a network
    should clamp it. Unchecked.
    """
    est = np.multiply(np.sqrt(1.0 - gamma_t), eps_hat, out=np.empty_like(x_t))
    np.subtract(x_t, est, out=est)
    est /= np.sqrt(np.maximum(gamma_t, 1e-12))
    return est
