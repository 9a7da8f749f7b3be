"""The three benchmark workloads, each driven through ``noiselab.cli.main``.

A workload has a set-up (config files written, warm-up or checkpoint
training done), a repetition unit that the timed phase runs back to back
(one client, closed loop), and the values each unit's outputs are checked
by. Every value is a float score or the sha256 of an output file; the
reference values come from ``reference.json`` (see ``record.py``).

Package functions are always looked up through their module
(``cli.main``, ``metrics.sliced_wasserstein``) so that span wrappers
installed by ``spans.Tracer`` see the benchmark's calls too.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from noiselab import cli, datasets, denoiser, forward, metrics, sampler, schedules, sweep
from noiselab import io as nio

REL_TOL = 1e-6  # the ROADMAP's gate for recorded scores

_MIXTURE = """[dataset]
kind = mixture2d
n_train = {n_train}
seed = {seed}
modes = 8
radius = 1.0
std = 0.2
"""

_COMPOUND = """[compound]
schedule = linear
input_scale = 1.0
normalize = off
"""

_TRAIN = """[train]
steps = {steps}
batch_size = 128
lr = 0.003
seed = 7
optimizer = lamb
ema_decay = 0.999
log_every = 100
hidden = 64 64
time_embed = 16
"""

_SAMPLER = """[sampler]
steps = 100
seed = 303
signal_clamp = 2.0
"""

_ORACLE_SWEEP = """[dataset]
kind = gaussian_ar1
n_train = 1
seed = 0
dim = 16
rho = {rho}

[sampler]
steps = 100
seed = 0

[sweep]
schedules = linear
scales = {scales}
metric = covariance_error
oracle = true
base_seed = 7
n_eval = {n_eval}
normalize = off
"""

HELD_OUT_ROWS = 16384
SAMPLE_ROWS = 16384
TRAIN_STEPS = 500
CHECKPOINT_STEPS = 2000
EMA_CHECK_ROWS = 2048
ORACLE_RHOS = ("0.0", "0.5", "0.9")
ORACLE_SCALES = tuple(round(0.1 * k, 1) for k in range(1, 11))


class CliFailed(RuntimeError):
    """A CLI call returned a nonzero exit code."""


def call_cli(argv) -> float:
    """Run ``noiselab <argv>`` in process; returns its wall time in seconds."""
    t0 = time.perf_counter()
    code = cli.main([str(a) for a in argv], stdout=io.StringIO())
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise CliFailed(f"noiselab {argv[0]} exited with {code}")
    return elapsed


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sweep_digest(path: Path) -> str:
    """sha256 of sweep.csv without its wall_ms column, the one that varies."""
    with open(path, newline="", encoding="ascii") as fh:
        rows = [r[:3] + r[4:] for r in csv.reader(fh) if r]
    return hashlib.sha256(repr(rows).encode("ascii")).hexdigest()


def held_out_set() -> np.ndarray:
    spec = datasets.DatasetSpec(kind="mixture2d", n_train=HELD_OUT_ROWS, seed=202,
                                modes=8, radius=1.0, std=0.2)
    return datasets.make_dataset(spec)


def _recipe(section: str) -> str:
    """The criterion-08 data and noising sections plus one more section."""
    return "\n".join([_MIXTURE.format(n_train=8192, seed=101), _COMPOUND, section])


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="ascii")
    return path


@dataclass
class UnitResult:
    """What one repetition unit did and produced.

    ``values`` maps a check key to a float score or a file digest; each
    entry of ``ops`` lists the keys that op is judged by, so one bad
    value fails only the ops that depend on it.
    """

    core_s: float
    op_s: list
    values: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)


def failed_unit(n_ops: int) -> UnitResult:
    """A unit whose CLI call raised: every op fails on a key with no reference."""
    return UnitResult(core_s=0.0, op_s=[], ops=[["unit failed"]] * n_ops)


def value_matches(got, want) -> bool:
    """Digests must be equal; scores must agree to REL_TOL."""
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


def judge(unit: UnitResult, expected: dict):
    """(failed ops, digests compared, digests identical) against the reference."""
    keys = {k for op in unit.ops for k in op}
    bad = {k for k in keys
           if k not in expected or k not in unit.values
           or not value_matches(unit.values[k], expected[k])}
    failed = sum(1 for op in unit.ops if any(k in bad for k in op))
    digests = [k for k in keys if isinstance(expected.get(k), str)]
    return failed, len(digests), sum(1 for k in digests if k not in bad)


class _Workload:
    def post_score(self, ctx: dict, out: Path) -> dict:
        """Scores computed once per run from unit 0's outputs, untimed."""
        return {}


class TrainRecipe(_Workload):
    name = "train_recipe"
    work_unit = "steps"
    rate_name = "train_steps_per_s"
    ops_per_unit = 1
    work_per_op = TRAIN_STEPS
    nominal_unit_s = 0.9  # typical s per unit at the seed commit, 2 x86 cores
    seed_flag_default = 7

    def setup(self, work_dir: Path) -> dict:
        cfg = _write(work_dir / "train.cfg", _recipe(_TRAIN.format(steps=TRAIN_STEPS)))
        warm = _write(work_dir / "warmup.cfg", _recipe(_TRAIN.format(steps=100)))
        call_cli(["train", "--config", warm, "--out-dir", work_dir / "warmup"])
        return {"config": cfg, "held": held_out_set(), "values": {}}

    def run_unit(self, ctx: dict, seed: int, out: Path) -> UnitResult:
        core = call_cli(["train", "--config", ctx["config"], "--out-dir", out,
                         "--seed", seed])
        history = nio.read_loss_csv(out / "loss.csv")
        values = {"final_loss": history[-1][1]}
        for name in ("params.bin", "ema.bin", "loss.csv", "config.txt"):
            values[name] = sha256(out / name)
        return UnitResult(core_s=core, op_s=[core], values=values, ops=[list(values)])

    def post_score(self, ctx: dict, out: Path) -> dict:
        """EMA sample quality: 2048 rows of the recipe's sampler against held-out."""
        ema = denoiser.load_params(out / "ema.bin")
        compound = forward.CompoundSchedule(schedule=schedules.ScheduleSpec.linear(),
                                            input_scale=1.0, normalize="off")
        sc = sampler.SamplerConfig(steps=100, seed=303, signal_clamp=2.0)
        rows = sampler.generate(ema, compound, sc, EMA_CHECK_ROWS)
        return {"ema_sw": metrics.sliced_wasserstein(rows, ctx["held"])}


class SampleRecipe(_Workload):
    name = "sample_recipe"
    work_unit = "rows"
    rate_name = "sample_rows_per_s"
    ops_per_unit = 1
    work_per_op = SAMPLE_ROWS
    nominal_unit_s = 6.0
    seed_flag_default = 303

    def setup(self, work_dir: Path) -> dict:
        train_cfg = _write(work_dir / "checkpoint.cfg",
                           _recipe(_TRAIN.format(steps=CHECKPOINT_STEPS)))
        sample_cfg = _write(work_dir / "sample.cfg", _recipe(_SAMPLER))
        ck = work_dir / "checkpoint"
        call_cli(["train", "--config", train_cfg, "--out-dir", ck])
        values = {f"checkpoint/{n}": sha256(ck / n) for n in ("params.bin", "ema.bin")}
        return {"config": sample_cfg, "checkpoint": ck / "ema.bin",
                "held": held_out_set(), "values": values}

    def run_unit(self, ctx: dict, seed: int, out: Path) -> UnitResult:
        core = call_cli(["sample", "--config", ctx["config"], "--checkpoint",
                         ctx["checkpoint"], "--n", SAMPLE_ROWS, "--out-dir", out,
                         "--seed", seed])
        rows = nio.read_samples_csv(out / "samples.csv")
        sw = metrics.sliced_wasserstein(rows, ctx["held"])
        values = {"sw": sw, "samples.csv": sha256(out / "samples.csv"),
                  "config.txt": sha256(out / "config.txt")}
        return UnitResult(core_s=core, op_s=[core], values=values, ops=[list(values)])


class OracleSweep(_Workload):
    name = "oracle_sweep"
    work_unit = "cells"
    rate_name = "oracle_cells_per_s"
    ops_per_unit = len(ORACLE_RHOS) * len(ORACLE_SCALES)
    work_per_op = 1  # a sweep cell
    nominal_unit_s = 13.5
    seed_flag_default = 7

    def setup(self, work_dir: Path) -> dict:
        scales = " ".join(repr(s) for s in ORACLE_SCALES)
        configs = [_write(work_dir / f"rho{rho}.cfg",
                          _ORACLE_SWEEP.format(rho=rho, scales=scales, n_eval=10000))
                   for rho in ORACLE_RHOS]
        warm = _write(work_dir / "warmup.cfg",
                      _ORACLE_SWEEP.format(rho="0.5", scales="1.0", n_eval=10000))
        call_cli(["sweep", "--config", warm, "--out-dir", work_dir / "warmup"])
        return {"configs": configs, "values": {}}

    def run_unit(self, ctx: dict, seed: int, out: Path) -> UnitResult:
        core = 0.0
        op_s, values, ops = [], {}, []
        bests = []
        for rho, cfg in zip(ORACLE_RHOS, ctx["configs"]):
            row_out = out / f"rho{rho}"
            core += call_cli(["sweep", "--config", cfg, "--out-dir", row_out,
                              "--seed", seed])
            rows = nio.read_sweep_csv(row_out / "sweep.csv")
            keys = [f"rho{rho}/sweep.csv", f"rho{rho}/config.txt"]
            values[keys[0]] = sweep_digest(row_out / "sweep.csv")
            values[keys[1]] = sha256(row_out / "config.txt")
            for _, scale, metric, wall_ms, _, _ in rows:
                key = f"rho{rho}/scale{scale!r}"
                values[key] = metric
                op_s.append(wall_ms / 1000.0)
                ops.append([key, *keys, "staircase"])
            result = sweep.SweepResult(tuple(sweep.SweepRow(*r) for r in rows), "")
            bests.append(sweep.best_scale(result))
        values["staircase"] = " ".join(repr(b) for b in bests)
        return UnitResult(core_s=core, op_s=op_s, values=values, ops=ops)


WORKLOADS = {w.name: w for w in (TrainRecipe(), SampleRecipe(), OracleSweep())}
VARIANTS = 8  # recorded seeds per workload: seed_flag_default + 0..7


def variant_seeds(workload, run_seed: int, n_units: int) -> list:
    """CLI --seed of each unit: the run seed picks where to start in the table."""
    return [workload.seed_flag_default + (run_seed + u) % VARIANTS for u in range(n_units)]
