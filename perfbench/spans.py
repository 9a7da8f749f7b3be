"""Per-layer spans recorded from outside the package.

A ``Tracer`` replaces each listed noiselab function with a wrapper at every
module attribute (or class attribute, for methods) that holds it, so the
wrapper runs whichever module the caller looks the name up through:
``from .training import train`` in ``noiselab.cli`` and in
``noiselab.sweep`` are both covered. ``uninstall`` puts every original
back. Nothing in the package changes, and with no tracer installed the
package runs exactly as shipped.

A timed wrapper records each call's duration and its self time (duration
minus the durations of timed calls nested inside it). A count-only wrapper
records the call count and nothing else: it is used where a timing wrapper
would cost more than a tenth of a typical call, and the call's time then
shows up in its caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass, field

_MARK = "__perfbench_span__"

# (metric prefix, module, attributes in that module, timed). Attributes
# may be "Class.method". A timing wrapper costs about 0.8 us per call on
# two x86 cores; the two count-only layers typically take under 10 us a
# call (ensure_finite on small arrays, normalize_input with normalize off).
LAYERS = (
    ("cli.main", "noiselab.cli", ("main",), True),
    ("config.parse_config", "noiselab.config", ("parse_config",), True),
    ("config.write_config", "noiselab.config", ("write_config",), True),
    ("datasets.make_dataset", "noiselab.datasets", ("make_dataset",), True),
    ("training.train", "noiselab.training", ("train",), True),
    ("training.train_loss", "noiselab.training", ("train_loss",), True),
    ("training.lamb_step", "noiselab.training", ("lamb_step",), True),
    ("training.ema_update", "noiselab.training", ("ema_update",), True),
    ("denoiser.mlp_forward", "noiselab.denoiser", ("mlp_forward",), True),
    ("denoiser.mlp_forward_cached", "noiselab.denoiser", ("mlp_forward_cached",), True),
    ("denoiser.mlp_backward", "noiselab.denoiser", ("mlp_backward",), True),
    ("denoiser.save_params", "noiselab.denoiser", ("save_params",), True),
    ("denoiser.load_params", "noiselab.denoiser", ("load_params",), True),
    ("forward.diffuse", "noiselab.forward", ("diffuse",), True),
    ("forward.normalize_input", "noiselab.forward", ("normalize_input",), False),
    ("forward.signal_estimate", "noiselab.forward", ("signal_estimate",), True),
    ("schedules.gamma", "noiselab.schedules", ("gamma",), True),
    ("core.rng", "noiselab.core", ("Rng.uniform", "Rng.normal", "Rng.integers"), True),
    ("core.ensure_finite", "noiselab.core", ("ensure_finite",), False),
    ("core.cholesky_solve", "noiselab.core", ("cholesky_solve",), True),
    ("oracle.denoise", "noiselab.oracle", ("GaussianOracle.denoise",), True),
    ("sampler.generate", "noiselab.sampler", ("generate",), True),
    ("sampler.ddim_step", "noiselab.sampler", ("ddim_step",), True),
    ("sweep.run_sweep", "noiselab.sweep", ("run_sweep",), True),
    ("metrics.sliced_wasserstein", "noiselab.metrics", ("sliced_wasserstein",), True),
    ("metrics.covariance_error", "noiselab.metrics", ("covariance_error",), True),
    ("io.write_samples_csv", "noiselab.io", ("write_samples_csv",), True),
    ("io.write_loss_csv", "noiselab.io", ("write_loss_csv",), True),
    ("io.write_sweep_csv", "noiselab.io", ("write_sweep_csv",), True),
)

TIMED_SUFFIXES = (("calls", "count"), ("p50_us", "us"), ("p99_us", "us"), ("self_s", "s"))


def metric_names(layers=LAYERS):
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for prefix, _, _, timed in layers:
        suffixes = TIMED_SUFFIXES if timed else TIMED_SUFFIXES[:1]
        out.extend((f"{prefix}.{s}", unit) for s, unit in suffixes)
    return out


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when it is empty."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    rank = min(max(math.ceil(q / 100.0 * n), 1), n)
    return sorted_values[rank - 1]


@dataclass
class LayerStats:
    name: str
    timed: bool
    calls: int = 0
    durations: list = field(default_factory=list)
    self_s: float = 0.0

    def metrics(self) -> dict:
        if not self.timed:
            return {f"{self.name}.calls": self.calls}
        d = sorted(self.durations)
        return {
            f"{self.name}.calls": len(d),
            f"{self.name}.p50_us": percentile(d, 50) * 1e6,
            f"{self.name}.p99_us": percentile(d, 99) * 1e6,
            f"{self.name}.self_s": self.self_s,
        }


def _noiselab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "noiselab" or name.startswith("noiselab."))]


def _resolve(module_name: str, attr: str):
    """(owner, name, function) for a dotted attribute, or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = vars(owner).get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if not callable(fn):
        return None
    return owner, name, fn


class Tracer:
    """Installs span wrappers for a layer table and collects their stats."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.stats = {prefix: LayerStats(prefix, timed) for prefix, _, _, timed in layers}
        # child-time accumulators of the open timed calls; [0] sums root calls
        self._stack = [0.0]
        self._patches = []  # (owner, attribute, original)

    @property
    def root_s(self) -> float:
        """Total duration of timed calls that had no timed caller."""
        return self._stack[0]

    def _timed(self, stat: LayerStats, fn):
        stack = self._stack
        durations = stat.durations
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                durations.append(d)
                stat.self_s += d - stack.pop()
                stack[-1] += d

        return wrapper

    @staticmethod
    def _counted(stat: LayerStats, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for prefix, module_name, attrs, timed in self.layers:
            stat = self.stats[prefix]
            for attr in attrs:
                found = _resolve(module_name, attr)
                if found is None:
                    continue  # a refactor removed it: the layer reports 0 calls
                owner, name, fn = found
                wrapper = (self._timed if timed else self._counted)(stat, fn)
                setattr(wrapper, _MARK, prefix)
                if isinstance(owner, type):
                    self._patch(owner, name, fn, wrapper)
                    continue
                for module in _noiselab_modules():
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, key, fn, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def metrics(self) -> dict:
        out = {}
        for prefix, *_ in self.layers:
            out.update(self.stats[prefix].metrics())
        return out

    def self_total_s(self) -> float:
        return sum(s.self_s for s in self.stats.values())


def leftover_wrappers() -> list:
    """Every span wrapper still reachable from a noiselab module or class."""
    found = []
    for module in _noiselab_modules():
        for key, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append(f"{module.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for name, member in vars(value).items():
                    if hasattr(member, _MARK):
                        found.append(f"{module.__name__}.{key}.{name}")
    return found
