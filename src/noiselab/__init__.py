"""Desk-scale laboratory for diffusion noise-scheduling strategies.

Everything runs on C-contiguous float64 numpy arrays and a seeded,
platform-independent random stream, so every experiment in the package is
bit-reproducible from its seed.
"""

from noiselab.core import Rng
from noiselab.schedules import (
    ScheduleSpec,
    gamma,
    log_snr,
    parse_schedule,
    format_schedule,
    time_grid,
)
from noiselab.forward import (
    CompoundSchedule,
    analytic_variance,
    diffuse,
    effective_gamma,
    normalize_input,
)
from noiselab.datasets import DatasetSpec, ar1_covariance, dataset_covariance, make_dataset
from noiselab.oracle import GaussianOracle
from noiselab.denoiser import MlpArch, DenoiserParams, init_params, load_params, save_params
from noiselab.metrics import covariance_error, mmd_rbf, redundancy_curve, sliced_wasserstein
from noiselab.training import TrainConfig, TrainingDiverged, train
from noiselab.sampler import SamplerConfig, generate
from noiselab.config import Config, ConfigError, parse_config, serialize_config
from noiselab.sweep import best_scale, check_sweep, run_sweep

__all__ = [
    "Rng",
    "ScheduleSpec",
    "gamma",
    "log_snr",
    "parse_schedule",
    "format_schedule",
    "time_grid",
    "CompoundSchedule",
    "analytic_variance",
    "diffuse",
    "effective_gamma",
    "normalize_input",
    "DatasetSpec",
    "ar1_covariance",
    "dataset_covariance",
    "make_dataset",
    "GaussianOracle",
    "MlpArch",
    "DenoiserParams",
    "init_params",
    "load_params",
    "save_params",
    "covariance_error",
    "mmd_rbf",
    "redundancy_curve",
    "sliced_wasserstein",
    "TrainConfig",
    "TrainingDiverged",
    "train",
    "SamplerConfig",
    "generate",
    "Config",
    "ConfigError",
    "parse_config",
    "serialize_config",
    "best_scale",
    "check_sweep",
    "run_sweep",
]

__version__ = "0.1.0"
