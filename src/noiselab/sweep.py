"""Grid runner over (schedule, input scale) cells with per-cell seeding.

Oracle cells swap the trained denoiser for the exact Gaussian posterior
mean, which turns the scale sweep into a deterministic measurement of
how the noising strategy interacts with data redundancy. Trained cells
run the full fit-then-sample loop on the configured dataset.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .config import Config, ConfigError, NetSettings, SweepSettings
from .datasets import DatasetSpec, dataset_covariance, make_dataset
from .forward import CompoundSchedule
from .metrics import METRIC_NAMES, covariance_error, mmd_rbf, sliced_wasserstein
from .oracle import GaussianOracle
from .sampler import SamplerConfig, generate
from .schedules import parse_schedule
from .training import TrainConfig, train

_MASK64 = (1 << 64) - 1


def cell_seed(base_seed: int, sched_idx: int, scale_idx: int) -> int:
    """Mix the grid position into a stable 63-bit seed.

    Cells draw nothing from each other, so any subset can rerun alone
    (or in parallel) and still land on the serial run's streams.
    """
    z = (
        base_seed * 0x9E3779B97F4A7C15
        + sched_idx * 0xBF58476D1CE4E5B9
        + scale_idx * 0x94D049BB133111EB
        + 0xD6E8FEB86659FD93
    ) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & 0x7FFFFFFFFFFFFFFF


@dataclass(frozen=True)
class SweepSpec:
    """Everything one sweep needs; oracle mode drops the training half."""

    settings: SweepSettings
    dataset: DatasetSpec
    sampler: SamplerConfig
    train: Optional[TrainConfig] = None
    net: Optional[NetSettings] = None

    def __post_init__(self):
        s = self.settings
        if s.oracle:
            if not self.dataset.is_gaussian:
                raise ValueError(
                    f"oracle sweeps need a Gaussian dataset, got {self.dataset.kind!r}"
                )
            if self.train is not None:
                raise ValueError("oracle sweeps take no training config")
        else:
            if self.train is None or self.net is None:
                raise ValueError("trained sweeps need train and net settings")
        if s.metric == "covariance_error" and not self.dataset.is_gaussian:
            raise ValueError("covariance_error needs a dataset with a known covariance")


def sweep_spec_from_config(cfg: Config) -> SweepSpec:
    if cfg.sweep is None:
        raise ConfigError("missing [sweep] section")
    if cfg.dataset is None:
        raise ConfigError("missing [dataset] section for sweep")
    if cfg.sampler is None:
        raise ConfigError("missing [sampler] section for sweep")
    if not cfg.sweep.oracle and cfg.train is None:
        raise ConfigError("missing [train] section for trained sweep")
    try:
        return SweepSpec(
            settings=cfg.sweep,
            dataset=cfg.dataset,
            sampler=cfg.sampler,
            train=cfg.train,
            net=cfg.net,
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None


@dataclass(frozen=True)
class SweepRow:
    schedule: str
    scale: float
    metric: float
    wall_ms: int
    seed: int
    status: int
    error: str = ""


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    metric_name: str

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.rows if r.status != 0)

    @property
    def ok(self) -> bool:
        return self.n_failed == 0


def _score(metric: str, samples: np.ndarray, data: np.ndarray,
           sigma: Optional[np.ndarray]) -> float:
    if metric == "covariance_error":
        return covariance_error(samples, sigma)
    if metric == "sliced_wasserstein":
        return sliced_wasserstein(samples, data)
    if metric == "mmd_rbf":
        return mmd_rbf(samples, data)
    raise ValueError(f"metric must be one of {METRIC_NAMES}, got {metric!r}")


def _oracle_cell(spec: SweepSpec, oracle, sigma, sched_str, scale, seed) -> float:
    """The swept schedule drives sampling here; there is nothing to train."""
    cs = CompoundSchedule(schedule=parse_schedule(sched_str), input_scale=scale,
                          normalize="off")
    sc = replace(spec.sampler, inference_schedule=parse_schedule(sched_str),
                 seed=seed + 1)
    out = generate(oracle, cs, sc, spec.settings.n_eval)
    return covariance_error(out, sigma)


def _trained_cell(spec: SweepSpec, data, sigma, sched_str, scale, seed) -> float:
    """The swept schedule is the training schedule; inference keeps its own."""
    cs = CompoundSchedule(schedule=parse_schedule(sched_str), input_scale=scale,
                          normalize=spec.settings.normalize)
    arch = spec.net.build_arch(data.shape[1])
    tcfg = replace(spec.train, seed=seed)
    _, ema, _ = train(data, arch, cs, tcfg)
    sc = replace(spec.sampler, seed=seed + 1)
    out = generate(ema, cs, sc, spec.settings.n_eval)
    return _score(spec.settings.metric, out, data, sigma)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run every grid cell; failures record an error row and continue."""
    s = spec.settings
    sigma = dataset_covariance(spec.dataset) if spec.dataset.is_gaussian else None
    if s.oracle:
        oracle = GaussianOracle(sigma)
        data = None
    else:
        oracle = None
        data = make_dataset(spec.dataset)

    rows = []
    for i, sched_str in enumerate(s.schedules):
        for j, scale in enumerate(s.scales):
            seed = cell_seed(s.base_seed, i, j)
            t0 = time.perf_counter()
            try:
                if s.oracle:
                    value = float(_oracle_cell(spec, oracle, sigma, sched_str, scale, seed))
                else:
                    value = float(_trained_cell(spec, data, sigma, sched_str, scale, seed))
                status, error = 0, ""
            except Exception as e:  # noqa: BLE001 - cell isolation is the contract
                value, status, error = float("nan"), 1, f"{type(e).__name__}: {e}"
            wall_ms = int(round((time.perf_counter() - t0) * 1000.0))
            rows.append(SweepRow(sched_str, scale, value, wall_ms, seed, status, error))

    return SweepResult(rows=tuple(rows), metric_name=s.metric)


def best_scale(result: SweepResult) -> float:
    """Argmin of the metric over a complete single-schedule scale sweep.

    Ties break toward the smaller scale.
    """
    rows = result.rows
    if not rows:
        raise ValueError("empty sweep result")
    schedules = {r.schedule for r in rows}
    if len(schedules) != 1:
        raise ValueError(f"best_scale needs a single-schedule sweep, got {sorted(schedules)}")
    failed = [r for r in rows if r.status != 0]
    if failed:
        raise ValueError(f"sweep incomplete: {len(failed)} failed cell(s)")
    scales = [r.scale for r in rows]
    if len(set(scales)) != len(scales):
        raise ValueError("duplicate scales in sweep result")
    return min(rows, key=lambda r: (r.metric, r.scale)).scale
