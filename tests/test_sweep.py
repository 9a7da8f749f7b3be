"""Grid runner: cell seeding, isolation, argmin rules, oracle trends."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import noiselab
import noiselab.sweep as sweep_mod
from noiselab.cli import main
from noiselab.core import _openblas_thread_funcs
from noiselab.config import (
    Config,
    ConfigError,
    NetSettings,
    SweepSettings,
    parse_config_text,
)
from noiselab.datasets import DatasetSpec, ar1_covariance, upsample_covariance
from noiselab.forward import CompoundSchedule
from noiselab.io import read_sweep_csv, write_sweep_csv
from noiselab.metrics import covariance_error
from noiselab.oracle import GaussianOracle
from noiselab.sampler import SamplerConfig, generate
from noiselab.schedules import ScheduleSpec
from noiselab.sweep import (
    SweepResult,
    SweepRow,
    best_scale,
    cell_seed,
    check_sweep,
    run_sweep,
)
from noiselab.training import TrainConfig

AR1_16 = DatasetSpec(kind="gaussian_ar1", n_train=2, seed=0, dim=16, rho=0.9)
AR1_4 = DatasetSpec(kind="gaussian_ar1", n_train=2, seed=0, dim=4, rho=0.5)
MIX = DatasetSpec(kind="mixture2d", n_train=100, seed=0, modes=4, radius=1.0, std=0.1)


def oracle_cfg(schedules=("cosine:0,1,1",), scales=(1.0,), base_seed=0,
               n_eval=10000, steps=100, dataset=AR1_16):
    return Config(
        sweep=SweepSettings(schedules=schedules, scales=scales,
                            metric="covariance_error", base_seed=base_seed,
                            oracle=True, n_eval=n_eval),
        dataset=dataset,
        sampler=SamplerConfig(steps=steps, seed=0),
    )


def no_cells(*args):
    raise AssertionError("a cell ran")


def trained_cfg(**train_kw):
    """One linear cell at b = 1 on a two-mode mixture; small enough for tier 1."""
    return Config(
        sweep=SweepSettings(schedules=("linear",), scales=(1.0,),
                            metric="sliced_wasserstein", base_seed=3, n_eval=200),
        dataset=DatasetSpec(kind="mixture2d", n_train=512, seed=5, modes=2,
                            radius=1.0, std=0.2),
        sampler=SamplerConfig(steps=10, seed=0, signal_clamp=3.0),
        train=TrainConfig(steps=60, batch_size=32, lr=0.003, seed=0, log_every=30,
                          **train_kw),
        net=NetSettings(hidden_dims=(16,), time_embed_dim=4),
    )


class TestCellSeed:
    def test_deterministic(self):
        assert cell_seed(7, 2, 3) == cell_seed(7, 2, 3)

    def test_distinct_neighbors(self):
        seeds = {cell_seed(7, i, j) for i in range(4) for j in range(6)}
        assert len(seeds) == 24

    def test_base_seed_matters(self):
        assert cell_seed(1, 0, 0) != cell_seed(2, 0, 0)

    def test_range(self):
        for args in ((0, 0, 0), (2**31, 5, 9), (123456789, 0, 1)):
            s = cell_seed(*args)
            assert 0 <= s < 2**63


class TestSpecValidation:
    def test_oracle_requires_gaussian_dataset(self):
        with pytest.raises(ConfigError, match="Gaussian"):
            check_sweep(oracle_cfg(dataset=MIX))

    def test_oracle_rejects_training_config(self):
        cfg = replace(oracle_cfg(), train=TrainConfig(steps=1, batch_size=1, lr=0.1, seed=0))
        with pytest.raises(ConfigError, match="training"):
            check_sweep(cfg)

    def test_trained_requires_train_and_net(self):
        cfg = Config(
            sweep=SweepSettings(schedules=("linear",), scales=(1.0,),
                                metric="sliced_wasserstein", base_seed=0),
            dataset=MIX,
            sampler=SamplerConfig(steps=10, seed=0),
        )
        with pytest.raises(ConfigError, match="train"):
            check_sweep(cfg)
        with pytest.raises(ConfigError, match="train"):
            check_sweep(replace(cfg, train=TrainConfig(steps=1, batch_size=1, lr=0.1,
                                                       seed=0)))

    def test_covariance_metric_needs_known_covariance(self):
        cfg = Config(
            sweep=SweepSettings(schedules=("linear",), scales=(1.0,),
                                metric="covariance_error", base_seed=0),
            dataset=MIX,
            sampler=SamplerConfig(steps=10, seed=0),
            train=TrainConfig(steps=1, batch_size=1, lr=0.1, seed=0),
            net=NetSettings(),
        )
        with pytest.raises(ConfigError, match="covariance"):
            check_sweep(cfg)

    def test_run_sweep_checks_before_any_cell(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "_cell", no_cells)
        with pytest.raises(ConfigError, match="Gaussian"):
            run_sweep(oracle_cfg(dataset=MIX))

    def test_n_eval_below_dim_plus_one_rejected(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "_cell", no_cells)
        with pytest.raises(ConfigError,
                           match=r"\[sweep\]: n_eval = 4 is below data_dim \+ 1 = 5"):
            run_sweep(oracle_cfg(n_eval=4, dataset=AR1_4))

    def test_n_eval_of_dim_plus_one_runs(self):
        res = run_sweep(oracle_cfg(n_eval=5, steps=10, dataset=AR1_4))
        assert res.ok

    @pytest.mark.parametrize("metric", ["sliced_wasserstein", "mmd_rbf"])
    def test_trained_n_train_below_two_rejected(self, monkeypatch, metric):
        monkeypatch.setattr(sweep_mod, "_cell", no_cells)
        cfg = trained_cfg()
        cfg = replace(cfg, dataset=replace(cfg.dataset, n_train=1),
                      sweep=replace(cfg.sweep, metric=metric))
        with pytest.raises(ConfigError,
                           match=rf"\[dataset\]: n_train = 1 is below 2, .* {metric}"):
            run_sweep(cfg)
        check_sweep(replace(cfg, dataset=replace(cfg.dataset, n_train=2)))

    def test_guidance_weight_rejected(self):
        # class conditioning was removed: a Config built in Python has no
        # field to carry a weight, and a run file takes only 0.0
        with pytest.raises(TypeError, match="guidance_weight"):
            replace(oracle_cfg().sampler, guidance_weight=4.0)

    def test_label_dropout_rejected(self):
        with pytest.raises(TypeError, match="label_dropout"):
            trained_cfg(label_dropout=0.1)

    def test_one_dim_empirical_rejected_before_any_cell(self, monkeypatch):
        # the parse-time rule, for a Config built without parsing
        cfg = trained_cfg()
        cfg = replace(
            cfg,
            dataset=DatasetSpec(kind="gaussian_ar1", n_train=64, seed=0, dim=1, rho=0.0),
            sweep=replace(cfg.sweep, normalize="empirical"),
        )
        monkeypatch.setattr(sweep_mod, "_cell", no_cells)
        with pytest.raises(ConfigError, match=r"\[sweep\]: normalize = empirical .* data_dim 1"):
            run_sweep(cfg)
        check_sweep(replace(cfg, sweep=replace(cfg.sweep, normalize="analytic")))


class TestSpecFromConfig:
    ORACLE_TEXT = (
        "[dataset]\nkind = gaussian_ar1\nn_train = 2\nseed = 0\ndim = 4\nrho = 0.5\n"
        "[sampler]\nsteps = 10\nseed = 0\n"
        "[sweep]\nschedules = linear\nscales = 1.0\nmetric = covariance_error\n"
        "oracle = true\nbase_seed = 1\nn_eval = 50\n"
    )

    def test_builds_oracle_spec(self):
        res = run_sweep(parse_config_text(self.ORACLE_TEXT))
        assert res.ok
        assert [(r.schedule, r.scale) for r in res.rows] == [("linear", 1.0)]

    @pytest.mark.parametrize("drop", ["[dataset]", "[sampler]", "[sweep]"])
    def test_missing_sections_are_config_errors(self, drop):
        text = "".join(
            "[" + block for block in self.ORACLE_TEXT.split("[")
            if block and not ("[" + block).startswith(drop)
        )
        with pytest.raises(ConfigError, match=drop.strip("[]")):
            check_sweep(parse_config_text(text))

    def test_trained_sweep_needs_train_section(self):
        text = self.ORACLE_TEXT.replace("oracle = true", "oracle = false")
        with pytest.raises(ConfigError, match=r"\[train\]"):
            check_sweep(parse_config_text(text))


class TestRunSweep:
    def test_single_oracle_cell_closes(self):
        res = run_sweep(oracle_cfg())
        assert len(res.rows) == 1
        row = res.rows[0]
        assert row.status == 0
        assert row.metric < 0.1
        assert row.wall_ms >= 0
        assert res.ok

    def test_grid_complete(self):
        cfg = oracle_cfg(schedules=("linear", "cosine:0,1,1"), scales=(0.5, 1.0),
                         n_eval=400, steps=10, dataset=AR1_4)
        res = run_sweep(cfg)
        assert len(res.rows) == 4
        cells = {(r.schedule, r.scale) for r in res.rows}
        assert cells == {("linear", 0.5), ("linear", 1.0),
                         ("cosine:0,1,1", 0.5), ("cosine:0,1,1", 1.0)}

    def test_rerun_identical_up_to_wall_time(self):
        cfg = oracle_cfg(schedules=("linear",), scales=(0.4, 0.8), n_eval=400,
                         steps=10, dataset=AR1_4)
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        strip = lambda rows: [(r.schedule, r.scale, r.metric, r.seed, r.status)
                              for r in rows]
        assert strip(a.rows) == strip(b.rows)

    def test_failed_cell_recorded_and_run_continues(self, monkeypatch):
        real = sweep_mod._cell

        def flaky(cfg, model, data, sched_str, scale, seed):
            if scale == 0.4:
                raise RuntimeError("injected cell failure")
            return real(cfg, model, data, sched_str, scale, seed)

        monkeypatch.setattr(sweep_mod, "_cell", flaky)
        cfg = oracle_cfg(schedules=("linear",), scales=(0.4, 0.8), n_eval=400,
                         steps=10, dataset=AR1_4)
        res = run_sweep(cfg)
        assert len(res.rows) == 2
        bad = next(r for r in res.rows if r.scale == 0.4)
        good = next(r for r in res.rows if r.scale == 0.8)
        assert bad.status == 1 and math.isnan(bad.metric)
        assert "injected cell failure" in bad.error
        assert good.status == 0 and math.isfinite(good.metric)
        assert res.n_failed == 1 and not res.ok

    def test_oracle_cells_run_through_saturated_gamma(self):
        """gamma reaches 1.0 at 18 of 100 steps before t = 0 on this schedule."""
        res = run_sweep(oracle_cfg(schedules=("sigmoid:-3,3,0.05",), scales=(0.5, 1.0),
                                   n_eval=2000))
        assert [(r.status, r.error) for r in res.rows] == [(0, ""), (0, "")]
        assert all(math.isfinite(r.metric) for r in res.rows)

    def test_writes_csv(self, tmp_path):
        res = run_sweep(oracle_cfg(n_eval=400, steps=10, dataset=AR1_4))
        write_sweep_csv(tmp_path / "sweep.csv", res.rows)
        rows = read_sweep_csv(tmp_path / "sweep.csv")
        assert len(rows) == 1
        assert rows[0][0] == "cosine:0,1,1"
        assert rows[0][2] == res.rows[0].metric

    @pytest.mark.parametrize("oracle", [True, False])
    def test_covariance_built_once_per_sweep(self, monkeypatch, oracle):
        calls = []
        real = sweep_mod.dataset_covariance

        def counted(spec):
            calls.append(spec)
            return real(spec)

        monkeypatch.setattr(sweep_mod, "dataset_covariance", counted)
        if oracle:
            cfg = oracle_cfg(schedules=("linear", "cosine:0,1,1"), scales=(0.5, 1.0),
                             n_eval=400, steps=10, dataset=AR1_4)
        else:
            cfg = trained_cfg()
            cfg = replace(cfg, dataset=DatasetSpec(kind="gaussian_ar1", n_train=256, seed=0,
                                                   dim=2, rho=0.5),
                          sweep=replace(cfg.sweep, scales=(0.5, 1.0), metric="covariance_error"),
                          train=replace(cfg.train, steps=5))
        res = run_sweep(cfg)
        assert res.ok and len(calls) == 1

    def test_trained_cells_run(self):
        res = run_sweep(trained_cfg())
        assert res.ok
        assert math.isfinite(res.rows[0].metric)
        assert res.rows[0].metric >= 0.0


@pytest.mark.golden
class TestGoldenRows:
    """Exact rows of two small sweeps, recorded before the sweep ran from Config.

    Any change to cell seeding, schedule parsing, sampling or scoring
    order shows here; wall_ms is timing and is left out.
    """

    @staticmethod
    def strip(result):
        return [(r.schedule, r.scale, r.metric, r.seed, r.status, r.error)
                for r in result.rows]

    def test_oracle_rows(self):
        cfg = oracle_cfg(schedules=("linear",), scales=(0.4, 0.8), n_eval=400,
                         steps=10, dataset=AR1_4)
        assert self.strip(run_sweep(cfg)) == [
            ("linear", 0.4, 0.3748643176491698, 3844543151005203059, 0, ""),
            ("linear", 0.8, 0.3251518253843905, 5186481466807218631, 0, ""),
        ]

    def test_trained_row(self):
        assert self.strip(run_sweep(trained_cfg())) == [
            ("linear", 1.0, 2.1341764346531313, 5305169700752127899, 0, ""),
        ]


def strip_wall(result):
    """Rows without wall_ms; the metric as repr, so that NaN rows compare equal."""
    return [(r.schedule, r.scale, repr(r.metric), r.seed, r.status, r.error)
            for r in result.rows]


def src_env(**extra):
    """Environment for a fresh interpreter that imports this noiselab."""
    src = str(Path(noiselab.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return {**os.environ, "PYTHONPATH": path, **extra}


needs_pin = pytest.mark.skipif(_openblas_thread_funcs() is None,
                               reason="numpy's OpenBLAS is not reachable, so sweeps stay serial")


@pytest.fixture
def two_workers(monkeypatch):
    """Cut the cells into two chunks whatever the CPU count."""
    monkeypatch.setattr(sweep_mod, "usable_cpus", lambda: 2)


def pid_cells(monkeypatch):
    """Patch _cell to fail with the pid of the process that ran it."""
    def report_pid(cfg, model, data, sched_str, scale, seed):
        raise RuntimeError(f"pid {os.getpid()}")

    monkeypatch.setattr(sweep_mod, "_cell", report_pid)


@needs_pin
class TestParallelCells:
    GRID = dict(schedules=("linear", "cosine:0,1,1"), scales=(0.4, 0.6, 0.8), n_eval=400,
                steps=10, dataset=AR1_4)

    def test_oracle_rows_match_serial(self, monkeypatch, two_workers, forks):
        cfg = oracle_cfg(**self.GRID)
        parallel = run_sweep(cfg)
        assert forks == [2, 1, 1, 1]  # the caller's chunk samples unsplit
        monkeypatch.setattr(sweep_mod, "usable_cpus", lambda: 1)
        serial = run_sweep(cfg)
        assert forks == [2, 1, 1, 1] + [1] * 7
        assert strip_wall(parallel) == strip_wall(serial)
        assert parallel.ok and all(r.wall_ms >= 0 for r in parallel.rows)

    @pytest.mark.golden
    def test_golden_oracle_rows_in_workers(self, two_workers, forks):
        cfg = oracle_cfg(schedules=("linear",), scales=(0.4, 0.8), n_eval=400,
                         steps=10, dataset=AR1_4)
        assert TestGoldenRows.strip(run_sweep(cfg)) == [
            ("linear", 0.4, 0.3748643176491698, 3844543151005203059, 0, ""),
            ("linear", 0.8, 0.3251518253843905, 5186481466807218631, 0, ""),
        ]
        assert forks == [2, 1]

    def test_trained_rows_match_serial(self, monkeypatch, two_workers, forks):
        cfg = trained_cfg()
        cfg = replace(cfg, sweep=replace(cfg.sweep, scales=(1.0, 0.5)))
        parallel = run_sweep(cfg)
        assert forks == [2, 1]
        monkeypatch.setattr(sweep_mod, "usable_cpus", lambda: 1)
        serial = run_sweep(cfg)
        assert strip_wall(parallel) == strip_wall(serial)
        # the first cell is TestGoldenRows' trained cell
        assert TestGoldenRows.strip(parallel)[0] == (
            "linear", 1.0, 2.1341764346531313, 5305169700752127899, 0, "")

    def test_cells_run_in_other_processes(self, monkeypatch, two_workers, forks):
        """The first chunk runs in the caller, the other in one other process."""
        pid_cells(monkeypatch)
        res = run_sweep(oracle_cfg(**self.GRID))
        pids = [r.error for r in res.rows]
        assert pids[:3] == [f"RuntimeError: pid {os.getpid()}"] * 3
        assert len(set(pids[3:])) == 1 and pids[3] != pids[0]
        assert forks == [2] and res.n_failed == 6

    def test_failed_cell_row_matches_serial(self, monkeypatch, two_workers, forks):
        real = sweep_mod._cell

        def flaky(cfg, model, data, sched_str, scale, seed):
            if scale == 0.6:
                raise FloatingPointError(f"injected at {sched_str}")
            return real(cfg, model, data, sched_str, scale, seed)

        monkeypatch.setattr(sweep_mod, "_cell", flaky)
        cfg = oracle_cfg(**self.GRID)
        parallel = run_sweep(cfg)
        monkeypatch.setattr(sweep_mod, "usable_cpus", lambda: 1)
        serial = run_sweep(cfg)
        assert forks[0] == 2 and set(forks[1:]) == {1}
        assert strip_wall(parallel) == strip_wall(serial)
        bad = [r for r in parallel.rows if r.status != 0]
        assert [r.error for r in bad] == ["FloatingPointError: injected at linear",
                                          "FloatingPointError: injected at cosine:0,1,1"]
        assert all(math.isnan(r.metric) for r in bad) and parallel.n_failed == 2

    def test_dead_worker_raises_promptly(self):
        # a fresh interpreter, so a hang shows as a timeout and not a stuck suite
        code = (
            "import os, time\n"
            "import noiselab.sweep as sw\n"
            "from noiselab.config import Config, SweepSettings\n"
            "from noiselab.datasets import DatasetSpec\n"
            "from noiselab.sampler import SamplerConfig\n"
            "sw.usable_cpus = lambda: 2\n"
            "parent = os.getpid()\n"
            "sw._cell = lambda *args: os._exit(3) if os.getpid() != parent else None\n"
            "cfg = Config(sweep=SweepSettings(schedules=('linear',), scales=(0.5, 1.0),\n"
            "             metric='covariance_error', base_seed=0, oracle=True, n_eval=50),\n"
            "             dataset=DatasetSpec(kind='gaussian_ar1', n_train=2, seed=0, dim=4,\n"
            "                                 rho=0.5),\n"
            "             sampler=SamplerConfig(steps=5, seed=0))\n"
            "t0 = time.perf_counter()\n"
            "try:\n"
            "    sw.run_sweep(cfg)\n"
            "except ChildProcessError as e:\n"
            "    print('raised', round(time.perf_counter() - t0, 3), e)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=src_env(), timeout=60, check=True)
        out = proc.stdout.strip()
        assert out.startswith("raised") and "worker process died" in out, proc
        assert float(out.split()[1]) < 10.0

    def test_dead_worker_is_cli_exit_2(self, monkeypatch, tmp_path, capsys):
        parent, real = os.getpid(), sweep_mod._cell

        def die_in_child(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(sweep_mod, "usable_cpus", lambda: 2)
        monkeypatch.setattr(sweep_mod, "_cell", die_in_child)
        cfg = tmp_path / "sweep.txt"
        cfg.write_text(TestSpecFromConfig.ORACLE_TEXT.replace("scales = 1.0",
                                                              "scales = 0.5 1.0"))
        rc = main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == "error: a worker process died (exit status 3)\n"
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_one_cell_runs_in_process(self, monkeypatch, no_fork):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        pid_cells(monkeypatch)
        res = run_sweep(oracle_cfg(n_eval=400, steps=10, dataset=AR1_4))
        assert [r.error for r in res.rows] == [f"RuntimeError: pid {os.getpid()}"]

    def test_one_cpu_affinity_runs_in_process(self, monkeypatch, no_fork):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        pid_cells(monkeypatch)
        res = run_sweep(oracle_cfg(**self.GRID))
        assert {r.error for r in res.rows} == {f"RuntimeError: pid {os.getpid()}"}

    def test_trained_cells_sample_in_their_worker(self, monkeypatch, two_workers, forks):
        # on 2 CPUs, 2 processes that each split their sampling would run 4
        # compute processes; the forks spy fails a cell that splits
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = trained_cfg()
        cfg = replace(cfg, sweep=replace(cfg.sweep, scales=(1.0, 0.5), n_eval=2048))
        res = run_sweep(cfg)
        assert forks == [2, 1]
        assert [r.error for r in res.rows] == ["", ""]

    @pytest.mark.parametrize("n_scales", [1, 2])
    def test_blas_pinned_in_cells_and_restored(self, monkeypatch, two_workers, forks,
                                               n_scales):
        get, set_ = _openblas_thread_funcs()

        def report_threads(*args):
            raise RuntimeError(f"threads {get()}")

        monkeypatch.setattr(sweep_mod, "_cell", report_threads)
        cfg = oracle_cfg(scales=(0.5, 1.0)[:n_scales], n_eval=400, steps=10, dataset=AR1_4)
        before = get()
        set_(2)
        try:
            expected = get()
            res = run_sweep(cfg)
            after = get()
        finally:
            set_(before)
        assert [r.error for r in res.rows] == ["RuntimeError: threads 1"] * n_scales
        assert forks == [n_scales]
        assert after == expected


class TestWorkerCount:
    """One chunk of cells per usable CPU and per cell at most, through core.usable_cpus."""

    @staticmethod
    def sweep(n_cells):
        return run_sweep(oracle_cfg(scales=tuple((k + 1) / n_cells for k in range(n_cells)),
                                    n_eval=400, steps=10, dataset=AR1_4))

    @needs_pin
    def test_usable_cpus_capped_by_cells(self, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        pid_cells(monkeypatch)
        for n_cells in (1, 2, 3, 30):
            self.sweep(n_cells)
        assert forks == [1, 2, 3, 3]

    @needs_pin
    def test_cpu_count_without_affinity_call(self, monkeypatch, forks):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        pid_cells(monkeypatch)
        for n_cells in (1, 3, 30):
            self.sweep(n_cells)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        self.sweep(30)
        assert forks == [1, 3, 4, 1]

    def test_unreachable_blas_stays_serial(self, monkeypatch, no_fork):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(noiselab.core, "_openblas_thread_funcs", lambda: None)
        pid_cells(monkeypatch)
        assert noiselab.core.usable_cpus() == 1
        res = self.sweep(2)
        assert {r.error for r in res.rows} == {f"RuntimeError: pid {os.getpid()}"}


class TestBlasThreadIndependence:
    """Rows of a dim-64 oracle sweep, whose Sigma @ y rounds differently with
    the BLAS thread count unless the cells pin it (on hosts with 2+ CPUs)."""

    CODE = (
        "import json\n"
        "from noiselab.config import Config, SweepSettings\n"
        "from noiselab.datasets import DatasetSpec\n"
        "from noiselab.sampler import SamplerConfig\n"
        "from noiselab.sweep import run_sweep\n"
        "cfg = Config(sweep=SweepSettings(schedules=('linear',), scales=(0.3, 0.5, 1.0),\n"
        "             metric='covariance_error', base_seed=0, oracle=True, n_eval=500),\n"
        "             dataset=DatasetSpec(kind='toy_image', n_train=1, seed=0, base_res=4,\n"
        "                                 rho=0.8, upsample=2),\n"
        "             sampler=SamplerConfig(steps=50, seed=0))\n"
        "print(json.dumps([(r.schedule, r.scale, repr(r.metric), r.seed, r.status, r.error)\n"
        "                  for r in run_sweep(cfg).rows]))\n"
    )

    def rows(self, threads):
        env = src_env(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        proc = subprocess.run([sys.executable, "-c", self.CODE], capture_output=True,
                              text=True, env=env, timeout=120, check=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_rows_equal_for_one_and_two_threads(self):
        one, two = self.rows(1), self.rows(2)
        assert one == two
        assert [row[4] for row in one] == [0, 0, 0]


class TestBestScale:
    @staticmethod
    def result(pairs, schedule="linear"):
        rows = tuple(
            SweepRow(schedule, b, m, 1, 10 + i, 0) for i, (b, m) in enumerate(pairs)
        )
        return SweepResult(rows=rows, metric_name="covariance_error")

    def test_unique_argmin(self):
        res = self.result([(0.2, 0.5), (0.4, 0.1), (0.6, 0.3)])
        assert best_scale(res) == 0.4

    def test_tie_breaks_toward_smaller_scale(self):
        res = self.result([(0.6, 0.2), (0.4, 0.2), (0.8, 0.9)])
        assert best_scale(res) == 0.4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            best_scale(SweepResult(rows=(), metric_name="covariance_error"))

    def test_rejects_mixed_schedules(self):
        rows = (SweepRow("linear", 0.5, 0.1, 1, 1, 0),
                SweepRow("cosine:0,1,1", 1.0, 0.2, 1, 2, 0))
        with pytest.raises(ValueError, match="single-schedule"):
            best_scale(SweepResult(rows=rows, metric_name="covariance_error"))

    def test_rejects_failed_cells(self):
        rows = (SweepRow("linear", 0.5, 0.1, 1, 1, 0),
                SweepRow("linear", 1.0, float("nan"), 1, 2, 1, "boom"))
        with pytest.raises(ValueError, match="incomplete"):
            best_scale(SweepResult(rows=rows, metric_name="covariance_error"))

    def test_rejects_duplicate_scales(self):
        res = self.result([(0.5, 0.1), (0.5, 0.2)])
        with pytest.raises(ValueError, match="duplicate"):
            best_scale(res)


class TestRedundancyShiftsBestScale:
    """Replicating coordinates doubles redundancy and lowers the best scale."""

    def test_upsampled_data_prefers_smaller_scale(self):
        sig_base = ar1_covariance(8, 0.0)
        sig_up = upsample_covariance(sig_base, 2)
        bests = {}
        for name, sig in (("base", sig_base), ("up2", sig_up)):
            oracle = GaussianOracle(sig)
            rows = []
            for k, b in enumerate((0.2, 0.4, 0.6, 0.8, 1.0)):
                cs = CompoundSchedule(schedule=ScheduleSpec.linear(),
                                      input_scale=b, normalize="off")
                sc = SamplerConfig(steps=80, seed=500 + k,
                                   inference_schedule=ScheduleSpec.linear())
                out = generate(oracle, cs, sc, 8000)
                rows.append(SweepRow("linear", b, covariance_error(out, sig),
                                     1, 500 + k, 0))
            bests[name] = best_scale(
                SweepResult(rows=tuple(rows), metric_name="covariance_error")
            )
        assert bests["up2"] < bests["base"]
