"""Denoiser training: diffusion loss, LAMB/Adam, EMA, LR decay.

The whole loop is a deterministic function of (dataset, arch, compound
schedule, config). Per step the RNG stream is consumed in a fixed
order: batch indices, per-example times t, noise eps, label-dropout
uniforms (only when labels are present and dropout is on), then one
self-conditioning coin (only when the architecture supports it and the
rate is positive). Keeping that order stable is what makes loss
histories bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import math

import numpy as np

from noiselab.core import Rng, as_f64, check_seed
from noiselab.denoiser import (
    DenoiserParams,
    MlpArch,
    _layout,
    clone_params,
    init_params,
    mlp_backward,
    mlp_forward,
    mlp_forward_cached,
)
from noiselab.forward import (
    SELF_COND_CLAMP,
    CompoundSchedule,
    diffuse,
    normalize_input,
    signal_estimate,
)

__all__ = [
    "LR_DECAY_KINDS",
    "OPTIMIZER_KINDS",
    "LossResult",
    "OptimizerState",
    "TrainConfig",
    "TrainingDiverged",
    "adam_step",
    "ema_update",
    "init_optimizer_state",
    "lamb_step",
    "lr_at",
    "train",
    "train_loss",
]

OPTIMIZER_KINDS = ("adam", "lamb")
LR_DECAY_KINDS = ("constant", "cosine_first_fraction")

_TRUST_FLOOR = 1e-12


class TrainingDiverged(RuntimeError):
    """Loss left the reals; message carries step, lr, and batch gamma stats."""


@dataclass(frozen=True)
class TrainConfig:
    """Loop hyperparameters.

    Defaults follow the reference recipe: LAMB with beta1=0.9,
    beta2=0.999, weight decay 0.01, EMA decay 0.9999, self-conditioning
    rate 0.9, and cosine LR decay over the first 70% of steps.
    """

    steps: int
    batch_size: int
    lr: float
    seed: int
    optimizer: str = "lamb"
    lr_decay: str = "cosine_first_fraction"
    lr_decay_fraction: float = 0.7
    beta1: float = 0.9
    beta2: float = 0.999
    eps_opt: float = 1e-8
    weight_decay: float = 0.01
    ema_decay: float = 0.9999
    self_cond_rate: float = 0.9
    label_dropout: float = 0.0
    log_every: int = 100

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.lr > 0.0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        check_seed(self.seed)
        if self.optimizer not in OPTIMIZER_KINDS:
            raise ValueError(f"optimizer must be one of {OPTIMIZER_KINDS}, got {self.optimizer!r}")
        if self.lr_decay not in LR_DECAY_KINDS:
            raise ValueError(f"lr_decay must be one of {LR_DECAY_KINDS}, got {self.lr_decay!r}")
        if not 0.0 < self.lr_decay_fraction <= 1.0:
            raise ValueError(
                f"lr_decay_fraction must lie in (0, 1], got {self.lr_decay_fraction}"
            )
        for name in ("beta1", "beta2"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {v}")
        if not self.eps_opt > 0.0:
            raise ValueError(f"eps_opt must be positive, got {self.eps_opt}")
        if self.weight_decay < 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0.0 <= self.ema_decay <= 1.0:
            raise ValueError(f"ema_decay must lie in [0, 1], got {self.ema_decay}")
        for name in ("self_cond_rate", "label_dropout"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.log_every < 1:
            raise ValueError(f"log_every must be >= 1, got {self.log_every}")


@dataclass
class OptimizerState:
    """First/second moment accumulators in the parameters' layout."""

    m: DenoiserParams
    v: DenoiserParams
    step: int = 0


class LossResult(NamedTuple):
    loss: float
    grads: DenoiserParams
    gamma_stats: tuple  # (min, mean, max) of the batch's gamma_t


def init_optimizer_state(params: DenoiserParams) -> OptimizerState:
    return OptimizerState(m=DenoiserParams(params.arch), v=DenoiserParams(params.arch))


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Learning rate for a 0-indexed step.

    cosine_first_fraction decays lr to 0 over the first
    lr_decay_fraction of training with a half cosine, then holds 0.
    """
    if not 0 <= step <= cfg.steps:
        raise ValueError(f"step must lie in [0, {cfg.steps}], got {step}")
    if cfg.lr_decay == "constant":
        return cfg.lr
    horizon = cfg.lr_decay_fraction * cfg.steps
    frac = 1.0 if horizon == 0.0 else min(step / horizon, 1.0)
    return cfg.lr * 0.5 * (1.0 + math.cos(math.pi * frac))


def _moment_update(params: DenoiserParams, grads: DenoiserParams, state: OptimizerState,
                   cfg: TrainConfig):
    """Advance the shared Adam-style moments; returns bias-corrected m, v."""
    if not grads.arch == state.m.arch == state.v.arch == params.arch:
        raise ValueError("gradients or optimizer state do not match the parameter layout")
    state.step += 1
    t = state.step
    g, m, v = grads.flat, state.m.flat, state.v.flat
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * g
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * g * g
    return m / (1.0 - cfg.beta1**t), v / (1.0 - cfg.beta2**t)


def adam_step(
    params: DenoiserParams,
    grads: DenoiserParams,
    state: OptimizerState,
    cfg: TrainConfig,
    lr: float,
):
    """Bias-corrected Adam with decoupled weight decay. In-place on params."""
    m_hat, v_hat = _moment_update(params, grads, state, cfg)
    theta = params.flat
    theta -= lr * m_hat / (np.sqrt(v_hat) + cfg.eps_opt)
    if cfg.weight_decay > 0.0:
        theta -= lr * cfg.weight_decay * theta
    return params, state


def _norm(a: np.ndarray) -> float:
    """Euclidean norm of a 1-D array: the ddot and sqrt np.linalg.norm runs."""
    return math.sqrt(a.dot(a))


def lamb_step(
    params: DenoiserParams,
    grads: DenoiserParams,
    state: OptimizerState,
    cfg: TrainConfig,
    lr: float,
):
    """Layerwise-adaptive step. In-place on params.

    r = m_hat / (sqrt(v_hat) + eps_opt) + weight_decay * theta; each array
    then moves by r scaled with its own trust ratio ||theta|| / ||r|| (1.0
    when either norm is below 1e-12, so zero updates and fresh zero layers
    stay put).

    r is one flat vector. Each norm is taken on a flat slice with the
    reduction np.linalg.norm runs, each slice of r is scaled in place by
    lr * trust, and theta moves in one subtraction; the bits match a
    per-array loop of ``a -= lr * trust * ra``.
    """
    r, denom = _moment_update(params, grads, state, cfg)  # m_hat, v_hat: fresh arrays
    np.sqrt(denom, out=denom)
    denom += cfg.eps_opt
    r /= denom
    theta = params.flat
    r += cfg.weight_decay * theta
    for start, stop, _ in _layout(params.arch)[0]:
        ra = r[start:stop]
        theta_norm = _norm(theta[start:stop])
        r_norm = _norm(ra)
        if theta_norm < _TRUST_FLOOR or r_norm < _TRUST_FLOOR:
            trust = 1.0
        else:
            trust = theta_norm / r_norm
        ra *= lr * trust
    theta -= r
    return params, state


def ema_update(ema_params: DenoiserParams, params: DenoiserParams, decay: float) -> DenoiserParams:
    """ema <- decay * ema + (1 - decay) * params, elementwise in place."""
    if not 0.0 <= decay <= 1.0:
        raise ValueError(f"decay must lie in [0, 1], got {decay}")
    if ema_params.arch != params.arch:
        raise ValueError("EMA and parameter layouts do not match")
    e = ema_params.flat
    e *= decay
    e += (1.0 - decay) * params.flat
    return ema_params


def train_loss(
    x0_batch,
    labels,
    params: DenoiserParams,
    cs: CompoundSchedule,
    rng: Rng,
    *,
    label_dropout: float = 0.0,
    self_cond_rate: float = 0.0,
    out: Optional[DenoiserParams] = None,
) -> LossResult:
    """Diffusion loss and gradients for one batch.

    Draws t ~ U(0,1) per example, diffuses with the compound schedule,
    normalizes the network input per cs.normalize, optionally replaces
    labels with the null class (label dropout) and runs a gradient-free
    first pass to build the self-conditioning signal estimate (clamped
    to +-SELF_COND_CLAMP). The loss is mean((eps_hat - eps)^2). The
    gradients overwrite ``out`` when it is given (see mlp_backward).
    """
    x0 = as_f64(x0_batch, "train_loss x0_batch")
    if x0.ndim != 2 or x0.shape[0] < 1:
        raise ValueError("x0_batch must be a nonempty (batch, dim) array")
    arch = params.arch
    n = x0.shape[0]

    t = rng.uniform((n,))
    sample = diffuse(x0, t, rng, cs)
    x_in = normalize_input(sample.x_t, sample.gamma_t, cs)

    used_labels = labels
    if labels is not None and label_dropout > 0.0:
        drop = rng.uniform((n,)) < label_dropout
        used_labels = np.where(drop, arch.null_class, np.asarray(labels))

    self_cond = None
    if arch.self_cond and self_cond_rate > 0.0:
        coin = float(rng.uniform((1,))[0])
        if coin < self_cond_rate:
            eps_first = mlp_forward(params, x_in, t, used_labels, None)
            est = signal_estimate(sample.x_t, sample.gamma_t, eps_first)
            self_cond = np.clip(est, -SELF_COND_CLAMP, SELF_COND_CLAMP)

    pred, cache = mlp_forward_cached(params, x_in, t, used_labels, self_cond)
    diff = pred - sample.eps
    loss = float((diff * diff).mean())
    grads = mlp_backward(params, cache, 2.0 * diff / diff.size, out=out)
    g = sample.gamma_t
    stats = (float(g.min()), float(g.mean()), float(g.max()))
    return LossResult(loss=loss, grads=grads, gamma_stats=stats)


def train(
    dataset: np.ndarray,
    arch: MlpArch,
    cs: CompoundSchedule,
    cfg: TrainConfig,
    labels: Optional[np.ndarray] = None,
):
    """Run the full training loop.

    Returns (params, ema_params, history) where history is a list of
    (step, loss, lr) rows recorded every cfg.log_every steps and at the
    final step. Steps in history are 1-indexed.
    """
    dataset = as_f64(dataset, "train dataset")
    if dataset.ndim != 2 or dataset.shape[0] < 1:
        raise ValueError("dataset must be a nonempty (n, dim) array")
    if dataset.shape[1] != arch.in_dim:
        raise ValueError(f"dataset dim {dataset.shape[1]} does not match arch.in_dim {arch.in_dim}")
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (dataset.shape[0],):
            raise ValueError("labels must be one int per dataset row")

    rng = Rng(cfg.seed)
    params = init_params(arch, rng)
    ema_params = clone_params(params)
    state = init_optimizer_state(params)
    grads = DenoiserParams(arch)  # refilled by every step's backward pass
    step_fn = adam_step if cfg.optimizer == "adam" else lamb_step

    history: list[tuple[int, float, float]] = []
    n = dataset.shape[0]
    for step in range(cfg.steps):
        lr = lr_at(step, cfg)
        idx = rng.integers(n, (cfg.batch_size,))
        x0 = dataset.take(idx, axis=0)
        batch_labels = None if labels is None else labels[idx]
        loss, _, gamma_stats = train_loss(
            x0,
            batch_labels,
            params,
            cs,
            rng,
            label_dropout=cfg.label_dropout,
            self_cond_rate=cfg.self_cond_rate,
            out=grads,
        )
        if not math.isfinite(loss):
            g_min, g_mean, g_max = gamma_stats
            raise TrainingDiverged(
                f"non-finite loss at step {step} (lr {lr:.6g}, batch gamma "
                f"min {g_min:.6g} mean {g_mean:.6g} max {g_max:.6g})"
            )
        step_fn(params, grads, state, cfg, lr)
        ema_update(ema_params, params, cfg.ema_decay)
        if (step + 1) % cfg.log_every == 0 or step == cfg.steps - 1:
            history.append((step + 1, loss, lr))
    return params, ema_params, history
