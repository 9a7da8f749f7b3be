"""Generation loop: DDIM/DDPM steps and a decoupled inference schedule.

The chain runs in the scaled space (the signal is b x0) and divides by
b once at the end, so the step formulas keep their standard
variance-preserving form. The inference schedule is free-standing: it
never has to match the schedule the denoiser was trained with.

Noise predictors are callables with three introspection attributes:
``dim`` (data dimensionality), ``self_conditioning`` (whether the
previous signal estimate should be threaded back in), and
``requires_raw_input`` (True when the predictor must see the
unnormalized chain state, as the closed-form oracle does). An optional
fourth, ``state_order``, fixes the memory order of the chain state:
"C" when absent.

Checks sit at the boundary of the loop. generate() validates its
arguments and every (gamma_now, gamma_next) pair of the inference grid
before the first step; the loop then calls unchecked kernels
(``_normalize``, ``_ddim``, ``_ddpm``, the oracle's ``_eps``), and the
public ddim_step, ddpm_step and normalize_input are the same kernels
behind their checks. Two finiteness checks stay: each step, the
predictor's output is converted to float64 (without forcing C order)
and checked, because the predictor may be any callable and
``signal_clamp`` would clip a +inf into a finite value; and the samples
are checked once at the end.

The oracle keeps the state in column order: the transpose of an
F-ordered (n, dim) array is the C-contiguous (dim, n) block that its
triangular solves and Sigma @ y read without a copy. The elementwise
kernels write in the state's order, so the layout changes no bit of the
chain. Reductions such as np.cov do sum in a layout-dependent order, so
generate() returns the samples C-contiguous.

The chain runs with OpenBLAS on one thread, so its bits do not depend on
the machine's core count. Every part of a step acts row by row, so a
large batch splits by rows across forked processes (core.fork_map over
rowsplit.row_runs), one per usable CPU: each runs the whole chain,
checks included, on its own run of row blocks, and the samples are the
same to the last bit.
Each process draws the whole batch's noise from the seed's stream and
keeps its own rows, so the stream is consumed as in the serial chain.
Only a predictor that generate() builds itself, from DenoiserParams or
a GaussianOracle, splits; a caller's callable runs in this process,
where its side effects stay visible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from noiselab.core import Rng, as_f64, check_seed, ensure_finite, fork_map, one_blas_thread
from noiselab.denoiser import DenoiserParams, mlp_forward
from noiselab.forward import (
    SELF_COND_CLAMP,
    CompoundSchedule,
    _normalize,
    _signal_estimate,
)
from noiselab.oracle import GaussianOracle
from noiselab.rowsplit import row_runs, split_processes
from noiselab.schedules import ScheduleSpec, gamma, time_grid

__all__ = [
    "STEP_KINDS",
    "MlpPredictor",
    "OraclePredictor",
    "SamplerConfig",
    "ddim_step",
    "ddpm_step",
    "generate",
]

STEP_KINDS = ("ddim", "ddpm")


@dataclass(frozen=True)
class SamplerConfig:
    """Generation settings.

    The default inference schedule is the plain cosine over the full
    range, independent of whatever schedule trained the denoiser.
    ``signal_clamp`` optionally bounds the implied signal estimate each
    step (off by default; useful for data with known range).
    """

    steps: int
    seed: int
    step_kind: str = "ddim"
    inference_schedule: ScheduleSpec = field(
        default_factory=lambda: ScheduleSpec.cosine(0.0, 1.0, 1.0)
    )
    signal_clamp: Optional[float] = None

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        check_seed(self.seed)
        if self.step_kind not in STEP_KINDS:
            raise ValueError(f"step_kind must be one of {STEP_KINDS}, got {self.step_kind!r}")
        if self.signal_clamp is not None and not self.signal_clamp > 0.0:
            raise ValueError(f"signal_clamp must be positive, got {self.signal_clamp}")


def _check_gammas(gamma_now: float, gamma_next: float) -> None:
    if not 0.0 < gamma_now <= 1.0:
        raise ValueError(f"gamma_now must lie in (0, 1], got {gamma_now}")
    if not 0.0 <= gamma_next <= 1.0:
        raise ValueError(f"gamma_next must lie in [0, 1], got {gamma_next}")
    if gamma_next < gamma_now:
        raise ValueError(
            f"gamma must not decrease along a denoising step: {gamma_now} -> {gamma_next}"
        )


def _check_step_args(x_t, eps_pred, gamma_now: float, gamma_next: float):
    x_t = as_f64(x_t, "step x_t")
    eps_pred = as_f64(eps_pred, "step eps_pred")
    if x_t.shape != eps_pred.shape:
        raise ValueError(f"eps_pred shape {eps_pred.shape} does not match x_t {x_t.shape}")
    _check_gammas(gamma_now, gamma_next)
    return x_t, eps_pred


def ddim_step(x_t, eps_pred, gamma_now: float, gamma_next: float) -> np.ndarray:
    """Deterministic update from noise level gamma_now to gamma_next.

    Projects out the scaled-signal estimate
    (x_t - sqrt(1-gamma_now) eps) / sqrt(gamma_now) and re-noises it to
    the target level with the same predicted noise.
    """
    x_t, eps_pred = _check_step_args(x_t, eps_pred, gamma_now, gamma_next)
    return _ddim(x_t, eps_pred, gamma_now, gamma_next)


def ddpm_step(x_t, eps_pred, gamma_now: float, gamma_next: float, rng: Rng) -> np.ndarray:
    """Ancestral update: DDIM's projection plus calibrated fresh noise.

    The injected variance is
    (1 - gamma_now/gamma_next) (1 - gamma_next) / (1 - gamma_now),
    which is 0 at the clean boundary gamma_next = 1, and the predicted
    noise is reattenuated so the step's total variance is preserved.
    The fresh draw happens on every call (even when its coefficient is
    0) so sampling consumes the stream identically at all steps.
    """
    x_t, eps_pred = _check_step_args(x_t, eps_pred, gamma_now, gamma_next)
    return _ddpm(x_t, eps_pred, gamma_now, gamma_next, rng.normal(x_t.shape))


def _scaled_signal(x_t: np.ndarray, eps: np.ndarray, g_now: float, g_next: float) -> np.ndarray:
    """sqrt(g_next) times the signal estimate, as a new array in x_t's order."""
    out = np.multiply(eps, math.sqrt(1.0 - g_now), out=np.empty_like(x_t))
    np.subtract(x_t, out, out=out)
    out /= math.sqrt(g_now)
    out *= math.sqrt(g_next)
    return out


def _ddim(x_t: np.ndarray, eps: np.ndarray, g_now: float, g_next: float) -> np.ndarray:
    """ddim_step without the input checks."""
    out = _scaled_signal(x_t, eps, g_now, g_next)
    out += eps * math.sqrt(1.0 - g_next)
    return out


def _ddpm(x_t: np.ndarray, eps: np.ndarray, g_now: float, g_next: float,
          z: np.ndarray) -> np.ndarray:
    """ddpm_step without the input checks, given the fresh draw z; z is scaled in place."""
    if g_now == 1.0:
        var = 0.0
    else:
        var = (1.0 - g_now / g_next) * (1.0 - g_next) / (1.0 - g_now)
    out = _scaled_signal(x_t, eps, g_now, g_next)
    out += eps * math.sqrt(max(1.0 - g_next - var, 0.0))
    z *= math.sqrt(var)
    out += z
    return out


class MlpPredictor:
    """Adapts trained DenoiserParams to the predictor protocol."""

    requires_raw_input = False
    state_order = "C"

    def __init__(self, params: DenoiserParams):
        self.params = params

    @property
    def dim(self) -> int:
        return self.params.arch.in_dim

    @property
    def self_conditioning(self) -> bool:
        return self.params.arch.self_cond

    def __call__(self, x_in, *, gamma, t, scale, self_cond):
        return mlp_forward(self.params, x_in, t, self_cond)


class OraclePredictor:
    """Closed-form noise prediction for Gaussian data.

    Needs the raw (unnormalized) chain state: its posterior algebra is
    written for x_t = sqrt(gamma) b x0 + sqrt(1-gamma) eps directly, so
    generate() refuses compound schedules with normalization on. At
    gamma = 1 it predicts zero noise, which makes that step the identity.
    """

    requires_raw_input = True
    self_conditioning = False
    state_order = "F"  # x_t.T is then the C-contiguous block the solve reads

    def __init__(self, oracle: GaussianOracle):
        self.oracle = oracle

    @property
    def dim(self) -> int:
        return self.oracle.dim

    def __call__(self, x_in, *, gamma, t, scale, self_cond):
        return self.oracle._eps(np.ascontiguousarray(x_in.T), gamma, scale).T


def as_predictor(model):
    """Accept DenoiserParams, a GaussianOracle, or a ready predictor."""
    if isinstance(model, DenoiserParams):
        return MlpPredictor(model)
    if isinstance(model, GaussianOracle):
        return OraclePredictor(model)
    if callable(model) and hasattr(model, "dim"):
        return model
    raise TypeError(f"cannot build a noise predictor from {type(model).__name__}")


def _chain(predictor, cs: CompoundSchedule, sc: SamplerConfig, grid,
           n_samples: int, r0: int, r1: int) -> np.ndarray:
    """Rows r0:r1 of the reverse process over the checked grid; the final state, unscaled.

    Each random draw is made for all n_samples rows and cut, so the
    rows equal those of the whole-batch chain.
    """
    dim = predictor.dim
    rng = Rng(sc.seed)
    x_t = np.asarray(rng.normal((n_samples, dim))[r0:r1],
                     order=getattr(predictor, "state_order", "C"))
    prev_est = np.zeros((r1 - r0, dim))

    for t_now, g_now, g_next in grid:
        x_in = _normalize(x_t, g_now, cs)
        self_cond = prev_est if predictor.self_conditioning else None
        eps = predictor(x_in, gamma=g_now, t=t_now, scale=cs.input_scale, self_cond=self_cond)
        # any callable may predict; signal_clamp would hide a +inf
        eps = ensure_finite(np.asarray(eps, dtype=np.float64), "predicted noise")
        if eps.shape != x_t.shape:
            raise ValueError(f"predictor returned shape {eps.shape}, expected {x_t.shape}")
        if predictor.self_conditioning:
            prev_est = np.clip(
                _signal_estimate(x_t, g_now, eps), -SELF_COND_CLAMP, SELF_COND_CLAMP
            )
        if sc.signal_clamp is not None and g_now < 1.0:
            est = _signal_estimate(x_t, g_now, eps)
            np.clip(est, -sc.signal_clamp, sc.signal_clamp, out=est)
            est *= math.sqrt(g_now)
            np.subtract(x_t, est, out=est)
            est /= math.sqrt(1.0 - g_now)
            eps = est
        if sc.step_kind == "ddim":
            x_t = _ddim(x_t, eps, g_now, g_next)
        else:
            x_t = _ddpm(x_t, eps, g_now, g_next, rng.normal((n_samples, dim))[r0:r1])
    return x_t


def generate(model, cs: CompoundSchedule, sc: SamplerConfig, n_samples: int) -> np.ndarray:
    """Draw samples by iterating the reverse process.

    Starts from x ~ N(0, I), walks the inference schedule's time grid,
    normalizing the network input per cs at every step, and divides by
    the input scale b at the end so outputs live in data space. Returns a
    C-contiguous (n_samples, dim) array.
    """
    predictor = as_predictor(model)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if predictor.requires_raw_input and cs.normalize != "off":
        raise ValueError(
            "this predictor needs raw chain state; use a compound schedule "
            "with normalize='off'"
        )
    grid = []
    for t_now, t_next in time_grid(sc.steps):
        g_now = float(gamma(sc.inference_schedule, t_now))
        g_next = float(gamma(sc.inference_schedule, t_next))
        _check_gammas(g_now, g_next)
        grid.append((t_now, g_now, g_next))

    chain = functools.partial(_chain, predictor, cs, sc, grid, n_samples)
    # pinned, the bits do not depend on the BLAS thread count; unpinned,
    # the processes of a split would compete for cores
    with one_blas_thread() as pinned:
        processes = split_processes(model, n_samples) if pinned else None
        runs = row_runs(n_samples, processes or 1)
        # np.cov sums in an order that depends on the layout, so stack in C order
        x_t = np.concatenate(fork_map(lambda run: chain(*run), runs),
                             out=np.empty((n_samples, predictor.dim)))
    ensure_finite(x_t, "generated samples")
    return x_t / cs.input_scale
