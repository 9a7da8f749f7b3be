"""Grid runner over (schedule, input scale) cells with per-cell seeding.

A sweep runs from a parsed Config: [sweep] gives the grid, [dataset]
and [sampler] the data and the sampler, and [train] the per-cell fit.
[compound] is ignored, since the grid sets schedule and scale and
[sweep] normalize sets the input normalization. Oracle cells swap the
trained denoiser for the exact Gaussian posterior mean, which turns the
scale sweep into a deterministic measurement of how the noising
strategy interacts with data redundancy. Trained cells run the full
fit-then-sample loop on the configured dataset.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .config import Config, ConfigError, _check_normalize
from .core import fork_map, one_blas_thread, usable_cpus
from .datasets import dataset_covariance, make_dataset
from .forward import CompoundSchedule
from .metrics import METRIC_NAMES, covariance_error, mmd_rbf, sliced_wasserstein
from .oracle import GaussianOracle
from .sampler import generate
from .schedules import parse_schedule
from .training import train

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


def check_sweep(cfg: Config) -> None:
    """Reject a config the sweep cannot run, before any cell starts."""
    if cfg.sweep is None:
        raise ConfigError("missing [sweep] section")
    if cfg.dataset is None:
        raise ConfigError("missing [dataset] section for sweep")
    if cfg.sampler is None:
        raise ConfigError("missing [sampler] section for sweep")
    s, d = cfg.sweep, cfg.dataset
    if s.oracle:
        if not d.is_gaussian:
            raise ConfigError(f"oracle sweeps need a Gaussian dataset, got {d.kind!r}")
        if cfg.train is not None:
            raise ConfigError("oracle sweeps take no training config")
    elif cfg.train is None or cfg.net is None:
        raise ConfigError("missing [train] section for trained sweep")
    if s.metric == "covariance_error" and not d.is_gaussian:
        raise ConfigError("covariance_error needs a dataset with a known covariance")
    if s.metric == "covariance_error" and s.n_eval < d.data_dim + 1:
        raise ConfigError(f"[sweep]: n_eval = {s.n_eval} is below data_dim + 1 = "
                          f"{d.data_dim + 1}, the fewest samples covariance_error scores")
    if s.metric != "covariance_error" and d.n_train < 2:  # scored against the data
        raise ConfigError(f"[dataset]: n_train = {d.n_train} is below 2, the fewest "
                          f"samples {s.metric} scores against")
    _check_normalize(cfg)


def _score(metric: str, samples: np.ndarray, reference: np.ndarray) -> float:
    """Metric of the samples against the covariance or the data set."""
    if metric == "covariance_error":
        return covariance_error(samples, reference)
    if metric == "sliced_wasserstein":
        return sliced_wasserstein(samples, reference)
    if metric == "mmd_rbf":
        return mmd_rbf(samples, reference)
    raise ValueError(f"metric must be one of {METRIC_NAMES}, got {metric!r}")


def _cell(cfg: Config, model, data, sched_str, scale, seed) -> np.ndarray:
    """Samples of one grid cell.

    An oracle cell has nothing to train, so the swept schedule drives
    sampling. A trained cell trains with the swept schedule, and
    inference keeps [sampler]'s own schedule.
    """
    s = cfg.sweep
    schedule = parse_schedule(sched_str)
    cs = CompoundSchedule(schedule=schedule, input_scale=scale, normalize=s.normalize)
    if s.oracle:
        sc = replace(cfg.sampler, inference_schedule=schedule, seed=seed + 1)
    else:
        arch = cfg.net.build_arch(data.shape[1])
        _, model, _ = train(data, arch, cs, replace(cfg.train, seed=seed))
        sc = replace(cfg.sampler, seed=seed + 1)
    return generate(model, cs, sc, s.n_eval)


def _row(cfg: Config, model, data, reference, sched_str, scale, seed) -> SweepRow:
    """Run and score one cell, timed; a failure becomes a status-1 row."""
    t0 = time.perf_counter()
    try:
        samples = _cell(cfg, model, data, sched_str, scale, seed)
        value = float(_score(cfg.sweep.metric, samples, reference))
        status, error = 0, ""
    except Exception as e:  # noqa: BLE001 - cell isolation is the contract
        value, status, error = float("nan"), 1, f"{type(e).__name__}: {e}"
    wall_ms = int(round((time.perf_counter() - t0) * 1000.0))
    return SweepRow(sched_str, scale, value, wall_ms, seed, status, error)


def run_sweep(cfg: Config) -> SweepResult:
    """Run every grid cell; failures record an error row and continue.

    Cells run with OpenBLAS on one thread, so their bits do not depend
    on the machine's core count. They are cut into one contiguous chunk
    per usable CPU (core.usable_cpus, 1 where work may not fork) and
    per cell at most, which core.fork_map runs in this process and in
    forked children. The rows are the same either way, apart from
    wall_ms.
    """
    check_sweep(cfg)
    s = cfg.sweep
    data = None if s.oracle else make_dataset(cfg.dataset)
    # built once, then shared by the scoring, the oracle (which scores
    # covariance_error only) and, inherited at fork, the children
    reference = dataset_covariance(cfg.dataset) if s.metric == "covariance_error" else data
    model = GaussianOracle(reference) if s.oracle else None
    cells = [(sched_str, scale, cell_seed(s.base_seed, i, j))
             for i, sched_str in enumerate(s.schedules)
             for j, scale in enumerate(s.scales)]

    def rows(chunk):
        return [_row(cfg, model, data, reference, *cell) for cell in chunk]

    with one_blas_thread():
        workers = min(usable_cpus(), len(cells))
        cuts = [len(cells) * k // workers for k in range(workers + 1)]
        chunks = fork_map(rows, [cells[a:b] for a, b in zip(cuts[:-1], cuts[1:])])
    return SweepResult(rows=tuple(row for chunk in chunks for row in chunk),
                       metric_name=s.metric)


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
