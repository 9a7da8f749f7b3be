"""Tests of the benchmark itself: output checks, span wrappers, result contract.

    PYTHONPATH=src python3 -m pytest -q perfbench

The subprocess tests run ``run.py`` on the shortest train_recipe run
(about 10 s in total on two cores).
"""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402
from noiselab import cli  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def reference_unit(workload: str, seed: int) -> workloads.UnitResult:
    """A unit whose values are exactly the recorded ones, judged op by op."""
    values = dict(REFERENCE[workload]["variants"][str(seed)])
    if workload == "oracle_sweep":
        shared = [k for k in values if not k.startswith("rho") or "/scale" not in k]
        ops = [[k, *shared] for k in values if "/scale" in k]
    else:
        ops = [list(values)]
    return workloads.UnitResult(core_s=1.0, op_s=[1.0], values=values, ops=ops)


@pytest.mark.parametrize("workload,key", [
    ("train_recipe", "final_loss"),
    ("train_recipe", "ema_sw"),
    ("sample_recipe", "sw"),
    ("oracle_sweep", "rho0.5/scale0.7"),
])
def test_check_fails_on_value_perturbed_by_rel_1e5(workload, key):
    seed = workloads.WORKLOADS[workload].seed_flag_default
    unit = reference_unit(workload, seed)
    expected = REFERENCE[workload]["variants"][str(seed)]
    assert workloads.judge(unit, expected)[0] == 0

    unit.values[key] *= 1.0 + 1e-7  # inside the 1e-6 gate
    assert workloads.judge(unit, expected)[0] == 0
    unit.values[key] = expected[key] * (1.0 + 1e-5)
    assert workloads.judge(unit, expected)[0] == 1  # only the op that produced it


def test_changed_digest_fails_and_is_counted():
    unit = reference_unit("sample_recipe", 303)
    expected = REFERENCE["sample_recipe"]["variants"]["303"]
    unit.values["samples.csv"] = "0" * 64
    failed, compared, identical = workloads.judge(unit, expected)
    assert (failed, compared, identical) == (1, 2, 1)


def test_failed_unit_fails_every_op():
    unit = workloads.failed_unit(30)
    assert workloads.judge(unit, REFERENCE["oracle_sweep"]["variants"]["7"])[0] == 30


def _tiny_train(tmp_path: Path) -> int:
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(workloads._recipe(workloads._TRAIN.format(steps=3)), encoding="ascii")
    return cli.main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")],
                    stdout=io.StringIO())


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    import noiselab.cli
    import noiselab.core
    import noiselab.oracle
    import noiselab.training

    before = (noiselab.cli.train, noiselab.training.train, noiselab.core.ensure_finite,
              noiselab.oracle.GaussianOracle.__dict__["denoise"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert noiselab.cli.train is not before[0]
        assert _tiny_train(tmp_path) == 0
    finally:
        tracer.uninstall()
    after = (noiselab.cli.train, noiselab.training.train, noiselab.core.ensure_finite,
             noiselab.oracle.GaussianOracle.__dict__["denoise"])
    assert all(a is b for a, b in zip(before, after))
    assert spans.leftover_wrappers() == []
    m = tracer.metrics()
    assert m["training.train.calls"] == 1
    assert m["training.lamb_step.calls"] == 3
    assert m["core.rng.calls"] > 0
    # every nested span's time is counted once, as some layer's self time
    assert tracer.self_total_s() == pytest.approx(tracer.root_s, rel=1e-9)


def test_uncalled_or_removed_function_reports_zero_calls():
    layers = (
        ("core.cholesky_solve", "noiselab.core", ("cholesky_solve",), True),
        ("core.gone", "noiselab.core", ("no_such_function",), True),
        ("oracle.gone", "noiselab.oracle", ("GaussianOracle.no_such_method",), True),
        ("gone.module", "noiselab.no_such_module", ("anything",), False),
    )
    tracer = spans.Tracer(layers)
    tracer.install()
    tracer.uninstall()
    m = tracer.metrics()
    assert m["core.cholesky_solve.calls"] == 0
    assert m["core.cholesky_solve.p50_us"] == 0.0
    assert m["core.gone.calls"] == 0
    assert m["oracle.gone.self_s"] == 0.0
    assert m["gone.module.calls"] == 0
    assert set(m) == {name for name, _ in spans.metric_names(layers)}


def test_benchmark_json_names_every_metric():
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    expected = dict(spans.metric_names())
    expected.update({"trace.overhead_s": "s", "trace.coverage_pct": "%"})
    assert per_layer == expected
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


def _run(cwd: Path, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_meets_the_contract(trace, section):
    proc = _run(ROOT, "--workload", "train_recipe", "--seed", "3", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == (1 if trace == "0" else 2)
    units = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert "metric train_steps_per_s" in proc.stdout
    assert '"freed_memory_held": true' in proc.stdout
    assert not list(ROOT.glob(".perfbench_work/train_recipe-*"))


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "train_recipe", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
