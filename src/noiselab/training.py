"""Denoiser training: diffusion loss, LAMB/Adam, EMA, LR decay.

The whole loop is a deterministic function of (dataset, arch, compound
schedule, config). Per step the RNG stream is consumed in a fixed
order: batch indices, per-example times t, noise eps, then one
self-conditioning coin (only when the architecture supports it and the
rate is positive), drawn for a block of steps at once in that order.
Keeping that order stable is what makes loss histories bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from noiselab.core import Rng, _box_muller, as_f64, check_seed, ensure_finite, one_blas_thread
from noiselab.denoiser import (
    DenoiserParams,
    MlpArch,
    _forward_rows,
    _input_rows,
    _layout,
    clone_params,
    init_params,
    mlp_backward,
    time_embedding,
)
from noiselab.forward import (
    SELF_COND_CLAMP,
    CompoundSchedule,
    _signal_estimate,
    diffuse,
    normalize_input,
)

__all__ = [
    "LR_DECAY_KINDS",
    "OPTIMIZER_KINDS",
    "OptimizerState",
    "TrainConfig",
    "TrainingDiverged",
    "adam_step",
    "ema_update",
    "init_optimizer_state",
    "lamb_step",
    "lr_at",
    "train",
]

OPTIMIZER_KINDS = ("adam", "lamb")
LR_DECAY_KINDS = ("constant", "cosine_first_fraction")

_TRUST_FLOOR = 1e-12

# Bytes of a block's input rows: 18 KiB a step for the criterion-08
# recipe (batch 128, input width 18), so 7-step blocks. The temporaries
# that build them take about twice as much again.
_BLOCK_BYTES = 1 << 17


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
    log_every: int = 100

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
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
        if not 0.0 < self.eps_opt < math.inf:
            raise ValueError(f"eps_opt must be positive and finite, got {self.eps_opt}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if not 0.0 <= self.ema_decay <= 1.0:
            raise ValueError(f"ema_decay must lie in [0, 1], got {self.ema_decay}")
        if not 0.0 <= self.self_cond_rate <= 1.0:
            raise ValueError(f"self_cond_rate must lie in [0, 1], got {self.self_cond_rate}")
        if self.log_every < 1:
            raise ValueError(f"log_every must be >= 1, got {self.log_every}")


@dataclass
class OptimizerState:
    """First/second moment accumulators in the parameters' layout."""

    m: DenoiserParams
    v: DenoiserParams
    step: int = 0


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


class _Batches:
    """What a block of training steps takes from the RNG stream and the data alone.

    After its batch indices a step draws ``draws`` uniforms: times t,
    Box-Muller pairs and, with self-conditioning on, one coin. fill()
    turns a block's draws into gamma(t), eps, x_t and the C-ordered input
    rows of each step with whole-block ufuncs, which round as one step's.
    """

    def __init__(self, arch: MlpArch, cs: CompoundSchedule, batch: int,
                 self_cond_rate: float, steps: int):
        self.arch, self.cs, self.b = arch, cs, batch
        self.rate = self_cond_rate if arch.self_cond else 0.0
        self.m = (batch * arch.in_dim + 1) // 2  # Box-Muller pairs a step
        self.draws = batch + 2 * self.m + (self.rate > 0.0)
        self.k = max(1, min(steps, _BLOCK_BYTES // (8 * batch * arch.input_width)))
        self.rows = np.empty((self.k, batch, arch.input_width))

    def fill(self, u: np.ndarray, x0: np.ndarray) -> None:
        """Build the first len(u) steps from their uniforms, which are overwritten,
        and their clean (steps, batch, in_dim) batches x0."""
        k, b, d, m = len(u), self.b, self.arch.in_dim, self.m
        t = u[:, :b].ravel()
        z = _box_muller(u[:, b : b + m], u[:, b + m : b + 2 * m], np.empty((k, 2, m)))
        eps = z.reshape(k, 2 * m)[:, : b * d].reshape(k * b, d)  # a copy when b * d is odd
        s = diffuse(x0.reshape(k * b, d), t, None, self.cs, eps=eps)
        _input_rows(self.arch, normalize_input(s.x_t, s.gamma_t, self.cs),
                    time_embedding(t, self.arch.time_embed_dim), None,
                    self.rows[:k].reshape(k * b, -1))
        self.x_t, self.eps = s.x_t.reshape(k, b, d), s.eps.reshape(k, b, d)
        self.gamma, self.coin = s.gamma_t.reshape(k, b), u[:, -1]

    def loss(self, j: int, params: DenoiserParams, cache: dict) -> tuple[float, np.ndarray]:
        """Step j's loss and gradient in the cached prediction, self-conditioned on its coin."""
        rows = self.rows[j]
        if self.rate > 0.0 and self.coin[j] < self.rate:
            est = _signal_estimate(self.x_t[j], self.gamma[j, :, None], _forward_rows(params, rows))
            np.clip(est, -SELF_COND_CLAMP, SELF_COND_CLAMP, out=rows[:, -self.arch.in_dim :])
        diff = _forward_rows(params, rows, cache)
        diff -= self.eps[j]
        loss = float((diff * diff).mean())
        diff *= 2.0
        diff /= diff.size
        return loss, diff


def train(dataset: np.ndarray, arch: MlpArch, cs: CompoundSchedule, cfg: TrainConfig):
    """Run the full training loop.

    Returns (params, ema_params, history) where history is a list of
    (step, loss, lr) rows recorded every cfg.log_every steps and at the
    final step. Steps in history are 1-indexed. The inputs are checked once, and a
    batch that fails to diffuse or normalize raises before its block's first step.
    The loop runs with OpenBLAS on one thread, as generate() does.
    """
    dataset = as_f64(dataset, "train dataset")
    if dataset.ndim != 2 or dataset.shape[0] < 1:
        raise ValueError("dataset must be a nonempty (n, dim) array")
    if dataset.shape[1] != arch.in_dim:
        raise ValueError(f"dataset dim {dataset.shape[1]} does not match arch.in_dim {arch.in_dim}")

    rng = Rng(cfg.seed)
    params = init_params(arch, rng)
    ema_params = clone_params(params)
    state = init_optimizer_state(params)
    grads = DenoiserParams(arch)  # refilled by every step's backward pass
    step_fn = adam_step if cfg.optimizer == "adam" else lamb_step
    b = cfg.batch_size
    batches, cache = _Batches(arch, cs, b, cfg.self_cond_rate, cfg.steps), {}

    history: list[tuple[int, float, float]] = []
    # pinned, the bits do not depend on the BLAS thread count
    with one_blas_thread():
        for s0 in range(0, cfg.steps, batches.k):
            u = rng.uniform((min(batches.k, cfg.steps - s0), b + batches.draws))
            idx = np.floor(np.multiply(u[:, :b], dataset.shape[0], out=u[:, :b]), out=u[:, :b])
            batches.fill(u[:, b:], dataset.take(idx.astype(np.int64), axis=0))
            for step in range(s0, s0 + len(u)):
                lr = lr_at(step, cfg)
                loss, d = batches.loss(step - s0, params, cache)
                if not math.isfinite(loss):
                    g = batches.gamma[step - s0]
                    raise TrainingDiverged(
                        f"non-finite loss at step {step} (lr {lr:.6g}, batch gamma "
                        f"min {g.min():.6g} mean {g.mean():.6g} max {g.max():.6g})")
                step_fn(params, mlp_backward(params, cache, d, out=grads), state, cfg, lr)
                ema_update(ema_params, params, cfg.ema_decay)
                if (step + 1) % cfg.log_every == 0 or step == cfg.steps - 1:
                    history.append((step + 1, loss, lr))
    ensure_finite(params.flat, "trained params")
    ensure_finite(ema_params.flat, "trained EMA params")
    return params, ema_params, history
