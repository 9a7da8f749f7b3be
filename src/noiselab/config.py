"""Plain-text run configuration: [section] headers over key = value lines.

Lists are whitespace-separated. Unknown sections or keys are hard
errors, and every parse error names the offending line. serialize_config
writes back every resolved key so a run's config copy reparses to the
exact same settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .core import check_seed
from .datasets import _KIND_EXTRAS, _KIND_SPECIFIC, DatasetSpec
from .forward import NORMALIZE_MODES, CompoundSchedule, check_analytic_scale
from .metrics import METRIC_NAMES
from .sampler import SamplerConfig
from .schedules import ScheduleSpec, format_schedule, parse_schedule
from .training import TrainConfig


class ConfigError(Exception):
    """Unparseable or invalid run configuration."""


@dataclass(frozen=True)
class SweepSettings:
    """Grid axes and bookkeeping for a (schedule, scale) sweep."""

    schedules: tuple
    scales: tuple
    metric: str
    base_seed: int
    oracle: bool = False
    n_eval: int = 10000
    normalize: str = "off"

    def __post_init__(self):
        if len(self.schedules) < 1:
            raise ValueError("schedules grid is empty")
        if len(set(self.schedules)) != len(self.schedules):
            raise ValueError(f"duplicate schedule in grid: {self.schedules}")
        for s in self.schedules:
            parse_schedule(s)
        if len(self.scales) < 1:
            raise ValueError("scales grid is empty")
        if len(set(self.scales)) != len(self.scales):
            raise ValueError(f"duplicate scale in grid: {self.scales}")
        for b in self.scales:
            if not 0.0 < b <= 1.0:
                raise ValueError(f"scales must lie in (0, 1], got {b}")
        if self.metric not in METRIC_NAMES:
            raise ValueError(f"metric must be one of {METRIC_NAMES}, got {self.metric!r}")
        check_seed(self.base_seed, "base_seed")
        if self.n_eval < 2:
            raise ValueError(f"n_eval must be >= 2, got {self.n_eval}")
        if self.normalize not in NORMALIZE_MODES:
            raise ValueError(
                f"normalize must be one of {NORMALIZE_MODES}, got {self.normalize!r}"
            )
        if self.normalize == "analytic":
            for b in self.scales:
                check_analytic_scale(b, "scales")
        if self.oracle and self.metric != "covariance_error":
            raise ValueError("oracle sweeps score covariance_error only")
        if self.oracle and self.normalize != "off":
            raise ValueError("oracle sweeps need normalize = off (raw sampler inputs)")


@dataclass
class Config:
    """Every section a run file may carry; absent sections stay None."""

    dataset: Optional[DatasetSpec] = None
    compound: Optional[CompoundSchedule] = None
    train: Optional[TrainConfig] = None
    sampler: Optional[SamplerConfig] = None
    sweep: Optional[SweepSettings] = None


# The only declaration of the run-file keys: one table per section,
# mapping each key to its value type, in the order serialize_config
# writes them. Each key sets the field of its name in its section's
# class, unless it is in _RETIRED.
_SECTION_KEYS = {
    "dataset": {
        "kind": "str", "n_train": "int", "seed": "int", "dim": "int",
        "base_res": "int", "rho": "float", "upsample": "int", "modes": "int",
        "radius": "float", "std": "float",
    },
    "compound": {"schedule": "schedule", "input_scale": "float", "normalize": "str"},
    "train": {
        "steps": "int", "batch_size": "int", "lr": "float", "seed": "int",
        "optimizer": "str", "lr_decay": "str", "lr_decay_fraction": "float",
        "beta1": "float", "beta2": "float", "eps_opt": "float",
        "weight_decay": "float", "ema_decay": "float",
        "self_cond_rate": "float", "label_dropout": "float", "log_every": "int",
        "hidden": "int_list", "time_embed": "int", "classes": "int",
        "self_cond": "bool",
    },
    "sampler": {
        "steps": "int", "seed": "int", "step_kind": "str",
        "schedule": "schedule", "guidance_weight": "float",
        "signal_clamp": "opt_float",
    },
    "sweep": {
        "schedules": "schedule_list", "scales": "float_list", "metric": "str",
        "oracle": "bool", "base_seed": "int", "n_eval": "int",
        "normalize": "str",
    },
}

# Keys of the class conditioning the package no longer has, with their
# neutral value: the only value they accept, and the one they are written
# with, so every config.txt keeps the bytes of the earlier runs. They set
# no field.
_RETIRED = {
    ("train", "label_dropout"): 0.0,
    ("train", "classes"): 0,
    ("sampler", "guidance_weight"): 0.0,
}

# The class each section builds, into the Config attribute of its name.
# A present section builds it, from defaults where it sets no key.
_SECTION_CLASSES = {
    "dataset": DatasetSpec,
    "compound": CompoundSchedule,
    "train": TrainConfig,
    "sampler": SamplerConfig,
    "sweep": SweepSettings,
}

def _convert(raw: str, typ: str, lineno: int, key: str):
    try:
        if typ == "int":
            return int(raw)
        if typ == "float":
            return float(raw)
        if typ == "opt_float":
            return None if raw == "none" else float(raw)
        if typ == "bool":
            if raw not in ("true", "false"):
                raise ValueError("expected true or false")
            return raw == "true"
        if typ == "str":
            return raw
        if typ == "int_list":
            return tuple(int(tok) for tok in raw.split())
        if typ == "float_list":
            return tuple(float(tok) for tok in raw.split())
        if typ == "schedule":
            return parse_schedule(raw)
        if typ == "schedule_list":
            return tuple(format_schedule(parse_schedule(tok)) for tok in raw.split())
    except ValueError as e:
        raise ConfigError(f"line {lineno}: bad value for '{key}': {e}") from None
    raise AssertionError(f"unhandled value type {typ}")


def _section_lines(text: str):
    """Yield (lineno, section, key, value) for every assignment."""
    current = None
    seen_sections = set()
    seen_keys = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: unterminated section header")
            name = line[1:-1].strip()
            if name not in _SECTION_KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            if name in seen_sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            seen_sections.add(name)
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value' or a [section]")
        if current is None:
            raise ConfigError(f"line {lineno}: assignment before any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SECTION_KEYS[current]:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in [{current}]")
        if (current, key) in seen_keys:
            raise ConfigError(f"line {lineno}: duplicate key '{key}' in [{current}]")
        seen_keys.add((current, key))
        yield lineno, current, key, value


def _build(section: str, ctor, values: dict):
    try:
        return ctor(**values)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"[{section}]: {e}") from None


def _check_normalize(cfg: Config) -> None:
    """The per-example std of a single coordinate is always 0."""
    if cfg.dataset is None or cfg.dataset.data_dim != 1:
        return
    for section in ("compound", "sweep"):
        settings = getattr(cfg, section)
        if settings is not None and settings.normalize == "empirical":
            raise ConfigError(
                f"[{section}]: normalize = empirical needs data_dim >= 2, "
                f"got data_dim {cfg.dataset.data_dim}"
            )


def _check_dataset_keys(values: dict, lines: dict) -> None:
    """A [dataset] key of another kind, by its line, before the spec rejects it."""
    kind = values.get("dataset", {}).get("kind")
    for (sect, key), lineno in lines.items():
        if (sect == "dataset" and kind in _KIND_EXTRAS and key in _KIND_SPECIFIC
                and key not in _KIND_EXTRAS[kind]):
            raise ConfigError(f"line {lineno}: key '{key}' does not apply to [dataset] kind {kind}")


def parse_config_text(text: str) -> Config:
    # values[section] holds the fields set by that section's keys; a
    # section is present once it has a key, even one that sets no field
    values: dict = {}
    lines: dict = {}
    for lineno, sect, key, raw in _section_lines(text):
        lines[sect, key] = lineno
        value = _convert(raw, _SECTION_KEYS[sect][key], lineno, key)
        section = values.setdefault(sect, {})
        if (sect, key) in _RETIRED:
            if value != _RETIRED[sect, key]:
                raise ConfigError(
                    f"line {lineno}: '{key}' in [{sect}] takes only "
                    f"{_RETIRED[sect, key]!r}: class conditioning was removed"
                )
            continue
        section[key] = value

    _check_dataset_keys(values, lines)
    cfg = Config()
    for sect, ctor in _SECTION_CLASSES.items():
        if sect in values:
            setattr(cfg, sect, _build(sect, ctor, values[sect]))
    _check_normalize(cfg)
    return cfg


def parse_config(path) -> Config:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return parse_config_text(text)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, ScheduleSpec):
        return format_schedule(value)
    if isinstance(value, tuple):
        return " ".join(_fmt(v) for v in value)
    if value is None:
        return "none"
    return str(value)


def _written_keys(section: str, settings) -> tuple:
    keys = tuple(_SECTION_KEYS[section])
    if section != "dataset":
        return keys
    extras = _KIND_EXTRAS[settings.kind]
    return tuple(k for k in keys if k not in _KIND_SPECIFIC or k in extras)


def serialize_config(cfg: Config) -> str:
    """Render every present section with all keys resolved to values."""
    out = []
    for sect in _SECTION_CLASSES:
        settings = getattr(cfg, sect)
        if settings is None:
            continue
        out.append(f"[{sect}]")
        for key in _written_keys(sect, settings):
            value = _RETIRED[sect, key] if (sect, key) in _RETIRED else getattr(settings, key)
            out.append(f"{key} = {_fmt(value)}")
        out.append("")
    return "\n".join(out)


def write_config(path, cfg: Config) -> None:
    Path(path).write_text(serialize_config(cfg), encoding="utf-8")
