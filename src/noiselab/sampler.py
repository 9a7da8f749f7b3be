"""Generation loop: one DDIM/DDPM step and a decoupled inference schedule.

The chain runs in the scaled space (the signal is b x0) and divides by
b once at the end, so the step formulas keep their standard
variance-preserving form. The inference schedule is free-standing: it
never has to match the schedule the denoiser was trained with.

generate() samples from trained DenoiserParams (through mlp_forward) or
from a GaussianOracle, which needs the raw chain state: normalize 'off'.

Checks sit at the boundary of the loop. generate() validates its
arguments and every (gamma_now, gamma_next) pair of the inference grid
before the first step; the loop then calls unchecked kernels
(``_normalize``, ``_step``, the oracle's ``_eps``); the
public normalize_input is ``_normalize`` behind its checks. Two
finiteness checks stay: each step, the predicted noise is checked,
because the oracle's kernel is unchecked and ``signal_clamp`` would
clip a +inf into a finite value; and the samples are checked once at
the end. A step writes into the state it has just read, never into the
predicted noise.

The oracle keeps the state in column order: the transpose of an
F-ordered (n, dim) array is the C-contiguous (dim, n) block that its
triangular solves and Sigma @ y read without a copy. The elementwise
kernels write in the state's order, so the layout changes no bit of the
chain. Reductions such as np.cov do sum in a layout-dependent order, so
generate() returns the samples C-contiguous.

The chain runs with OpenBLAS on one thread, so its bits do not depend on
the machine's core count. Every part of a step acts row by row, so the
chain run on a contiguous run of the batch's row blocks
(denoiser._row_blocks) gives those rows of the whole-batch chain, checks
included. generate() cuts a large batch into row_runs, one per process
of split_processes, runs each through core.fork_map in its own process
and stacks the final rows. Each process draws the whole batch's noise
from the seed's stream and keeps its own rows, so the stream is
consumed as in the serial chain. One matrix product a step grows with
the row count: the MLP's output layer, and the oracle's Sigma @ y. BLAS
may pick its kernel by a product's size (OpenBLAS has one for small
products), and kernels round differently. So split_processes takes only
a cut each of whose runs rounds that product as the whole batch does,
and the samples are the same to the last bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from noiselab.core import Rng, check_seed, ensure_finite, fork_map, one_blas_thread, usable_cpus
from noiselab.denoiser import DenoiserParams, _row_blocks, mlp_forward
from noiselab.forward import (
    SELF_COND_CLAMP,
    CompoundSchedule,
    _normalize,
    _signal_estimate,
)
from noiselab.oracle import GaussianOracle
from noiselab.schedules import ScheduleSpec, gamma, time_grid

__all__ = [
    "STEP_KINDS",
    "SamplerConfig",
    "generate",
]

STEP_KINDS = ("ddim", "ddpm")


@dataclass(frozen=True)
class SamplerConfig:
    """Generation settings.

    ``schedule`` is the inference schedule, by default the plain cosine
    over the full range, independent of whatever schedule trained the
    denoiser.
    ``signal_clamp`` optionally bounds the implied signal estimate each
    step (off by default; useful for data with known range).
    """

    steps: int
    seed: int
    step_kind: str = "ddim"
    schedule: ScheduleSpec = field(
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


def _clamped_noise(x_t: np.ndarray, eps: np.ndarray, g_now: float, clamp: float) -> np.ndarray:
    """The noise whose signal estimate is eps's clipped to [-clamp, clamp], as a new array."""
    est = _signal_estimate(x_t, g_now, eps)
    np.clip(est, -clamp, clamp, out=est)
    est *= math.sqrt(g_now)
    np.subtract(x_t, est, out=est)
    est /= math.sqrt(1.0 - g_now)
    return est


def _step(x_t: np.ndarray, eps: np.ndarray, g_now: float, g_next: float,
          z: Optional[np.ndarray] = None) -> np.ndarray:
    """One reverse update from noise level g_now to g_next.

    Projects out the scaled-signal estimate
    (x_t - sqrt(1-g_now) eps) / sqrt(g_now) and re-noises it to the
    target level. Without z this is DDIM: the predicted noise alone
    re-noises it. With z it is DDPM's ancestral step: z is scaled by the
    injected variance (1 - g_now/g_next) (1 - g_next) / (1 - g_now),
    which is 0 at the clean boundary g_next = 1, and the predicted noise
    is reattenuated so the step's total variance is preserved. The
    scaled noise is written into x_t and z is scaled in place, so both
    are overwritten; eps is not. Unchecked: generate() checks the gamma
    pairs of its grid.
    """
    if z is None or g_now == 1.0:
        var = 0.0
    else:
        var = (1.0 - g_now / g_next) * (1.0 - g_next) / (1.0 - g_now)
    out = np.multiply(eps, math.sqrt(1.0 - g_now), out=np.empty_like(x_t))
    np.subtract(x_t, out, out=out)
    out /= math.sqrt(g_now)
    out *= math.sqrt(g_next)
    np.multiply(eps, math.sqrt(max(1.0 - g_next - var, 0.0)), out=x_t)
    out += x_t
    if z is not None:
        z *= math.sqrt(var)
        out += z
    return out


def _data_dim(model) -> int:
    """The data dim of a model generate() samples from; TypeError for any other."""
    if isinstance(model, DenoiserParams):
        return model.arch.in_dim
    if isinstance(model, GaussianOracle):
        return model.dim
    raise TypeError(f"cannot sample from {type(model).__name__}")


def _chain(model, cs: CompoundSchedule, sc: SamplerConfig, grid,
           n_samples: int, r0: int, r1: int) -> np.ndarray:
    """Rows r0:r1 of the reverse process over the checked grid; the final state, unscaled.

    Each random draw is made for all n_samples rows and cut, so the
    rows equal those of the whole-batch chain. DDPM draws its step noise
    on every step, even where its coefficient is 0, so the stream is
    consumed alike at every step. A step holds three
    state-sized arrays (state, predicted noise, next state), plus DDPM's
    step noise and the self-conditioning estimate.
    """
    dim = _data_dim(model)
    oracle = isinstance(model, GaussianOracle)
    rng = Rng(sc.seed)
    # column order for the oracle: x_t.T is then the C-contiguous block its solve reads
    x_t = np.asarray(rng.normal((n_samples, dim))[r0:r1], order="F" if oracle else "C")
    prev_est = None if oracle or not model.arch.self_cond else np.zeros_like(x_t)

    for t_now, g_now, g_next in grid:
        x_in = _normalize(x_t, g_now, cs)
        if oracle:
            eps = model._eps(np.ascontiguousarray(x_in.T), g_now, cs.input_scale).T
        else:
            eps = mlp_forward(model, x_in, t_now, prev_est)
        del x_in
        # the oracle's kernel is unchecked, and signal_clamp would hide a +inf
        ensure_finite(eps, "predicted noise")
        if prev_est is not None:
            prev_est = _signal_estimate(x_t, g_now, eps)
            np.clip(prev_est, -SELF_COND_CLAMP, SELF_COND_CLAMP, out=prev_est)
        if sc.signal_clamp is not None and g_now < 1.0:
            eps = _clamped_noise(x_t, eps, g_now, sc.signal_clamp)
        z = None if sc.step_kind == "ddim" else rng.normal((n_samples, dim))[r0:r1]
        x_t = _step(x_t, eps, g_now, g_next, z)
        del eps, z  # freed before the next step's prediction builds its own
    return x_t


def generate(model, cs: CompoundSchedule, sc: SamplerConfig, n_samples: int) -> np.ndarray:
    """Draw samples by iterating the reverse process.

    Starts from x ~ N(0, I), walks the inference schedule's time grid,
    normalizing the network input per cs at every step, and divides by
    the input scale b at the end so outputs live in data space. Returns a
    C-contiguous (n_samples, dim) array.
    """
    dim = _data_dim(model)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if isinstance(model, GaussianOracle) and cs.normalize != "off":
        raise ValueError(
            "the oracle needs raw chain state; use a compound schedule "
            "with normalize='off'"
        )
    times = time_grid(sc.steps)
    gammas = gamma(sc.schedule, np.array(times)).tolist()
    for g_now, g_next in gammas:
        _check_gammas(g_now, g_next)
    grid = [(t_now, g_now, g_next) for (t_now, _), (g_now, g_next) in zip(times, gammas)]

    chain = functools.partial(_chain, model, cs, sc, grid, n_samples)
    with one_blas_thread():
        runs = row_runs(n_samples, split_processes(model, n_samples))
        # np.cov sums in an order that depends on the layout, so stack in C order
        x_t = np.concatenate(fork_map(lambda run: chain(*run), runs),
                             out=np.empty((n_samples, dim)))
    ensure_finite(x_t, "generated samples")
    x_t /= cs.input_scale
    return x_t


def split_processes(model, n_rows: int) -> int:
    """Processes to split a chain of model on n_rows over; 1 for no split.

    model is DenoiserParams with hidden layers or a GaussianOracle. There
    is at most one process per usable CPU and per row block. On two CPUs
    a 100-step chain of 512 rows, two blocks, already runs faster split;
    forking and reaping cost a few ms.
    """
    if isinstance(model, DenoiserParams) and model.arch.hidden_dims:
        product = ("rows", model.arch.hidden_dims[-1], model.arch.in_dim)  # output layer
    elif isinstance(model, GaussianOracle):
        product = ("cols", model.dim, model.dim)  # Sigma @ y
    else:
        return 1
    most = min(usable_cpus(), len(_row_blocks(n_rows)))
    return _most_alike(product, n_rows, most) if most > 1 else 1


@functools.lru_cache(maxsize=None)
def _most_alike(product: tuple[str, int, int], n_rows: int, most: int) -> int:
    """The most processes, up to `most`, whose runs round product as the whole; at least 1.

    product is ("rows", k, c) for (n_rows, k) @ (k, c), or ("cols", k, k)
    for (k, k) @ (k, n_rows). It is probed on fixed random data.
    """
    kind, k, c = product
    gen = np.random.default_rng(0)
    if kind == "rows":
        a, b = gen.standard_normal((n_rows, k)), gen.standard_normal((k, c))
    else:
        a, b = gen.standard_normal((k, k)), gen.standard_normal((k, n_rows))
    whole = a @ b

    def alike(r0, r1):
        if kind == "rows":
            return (a[r0:r1] @ b).tobytes() == whole[r0:r1].tobytes()
        return (a @ np.ascontiguousarray(b[:, r0:r1])).tobytes() == whole[:, r0:r1].tobytes()

    for processes in range(most, 1, -1):
        if all(alike(r0, r1) for r0, r1 in row_runs(n_rows, processes)):
            return processes
    return 1


def row_runs(n_rows: int, processes: int) -> list[tuple[int, int]]:
    """n_rows cut into `processes` contiguous runs of whole row blocks, as (start, stop)."""
    blocks = _row_blocks(n_rows)
    cuts = [len(blocks) * k // processes for k in range(processes + 1)]
    return [(blocks[a][0], blocks[b - 1][1]) for a, b in zip(cuts[:-1], cuts[1:])]
