"""The row split of sampling's hidden layers: byte-identical to the serial
pass, opened only for an unguided MLP chain of at least two row blocks,
and no child process outlives generate()."""

import os
import signal

import numpy as np
import pytest

import noiselab.core
import noiselab.rowsplit as rowsplit_mod
import noiselab.sampler as sampler_mod
from noiselab.cli import main
from noiselab.core import (
    NonFiniteError,
    Rng,
    _openblas_thread_funcs,
    one_blas_thread,
    usable_cpus,
)
from noiselab.datasets import ar1_covariance
from noiselab.denoiser import (
    MlpArch,
    init_params,
    mlp_forward,
    mlp_forward_cached,
    save_params,
)
from noiselab.forward import CompoundSchedule
from noiselab.oracle import GaussianOracle
from noiselab.rowsplit import RowSplit, split_processes
from noiselab.sampler import SamplerConfig, generate
from noiselab.schedules import ScheduleSpec

LINEAR_OFF = CompoundSchedule(schedule=ScheduleSpec.linear(), input_scale=1.0, normalize="off")
EMPIRICAL = CompoundSchedule(schedule=ScheduleSpec.linear(), input_scale=0.7,
                             normalize="empirical")

needs_pin = pytest.mark.skipif(_openblas_thread_funcs() is None,
                               reason="numpy's OpenBLAS is not reachable, so sampling stays serial")


def cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture
def splits(monkeypatch):
    """The process count of every RowSplit that generate() opens."""
    opened = []

    class Spy(RowSplit):
        def __init__(self, p, n, processes):
            opened.append(processes)
            super().__init__(p, n, processes)

    monkeypatch.setattr(sampler_mod, "RowSplit", Spy)
    return opened


@pytest.fixture
def no_split(monkeypatch):
    def refuse(*args):
        raise AssertionError("generate opened a row split")

    monkeypatch.setattr(sampler_mod, "RowSplit", refuse)


def randomized(arch, seed):
    """Params with every array random, so no layer is a no-op."""
    p = init_params(arch, Rng(seed))
    p.flat[...] = 0.3 * Rng(seed + 1).normal(p.flat.shape)
    return p


def mlp(width, self_cond, seed=0):
    arch = MlpArch(in_dim=2, hidden_dims=(width, width), time_embed_dim=8, self_cond=self_cond)
    return randomized(arch, seed)


def split_and_serial(monkeypatch, splits, p, cs, sc, n):
    cpus(monkeypatch, 2)
    split = generate(p, cs, sc, n)
    assert splits == [2]
    cpus(monkeypatch, 1)
    serial = generate(p, cs, sc, n)
    assert splits == [2]
    return split, serial


@needs_pin
class TestSplitEqualsSerial:
    @pytest.mark.parametrize("n", [2048, 2049, 4095, 16385])
    @pytest.mark.parametrize("width", [64, 100])
    @pytest.mark.parametrize("self_cond", [False, True], ids=["plain", "self_cond"])
    def test_ddim_clamp(self, monkeypatch, splits, self_cond, width, n):
        sc = SamplerConfig(steps=3, seed=5, signal_clamp=1.5)
        split, serial = split_and_serial(monkeypatch, splits, mlp(width, self_cond), EMPIRICAL,
                                         sc, n)
        assert split.tobytes() == serial.tobytes()

    @pytest.mark.parametrize("clamp", [None, 2.0])
    @pytest.mark.parametrize("kind", ["ddim", "ddpm"])
    @pytest.mark.parametrize("self_cond", [False, True], ids=["plain", "self_cond"])
    def test_step_kinds(self, monkeypatch, splits, self_cond, kind, clamp):
        sc = SamplerConfig(steps=4, seed=9, step_kind=kind, signal_clamp=clamp)
        split, serial = split_and_serial(monkeypatch, splits, mlp(64, self_cond, seed=3),
                                         LINEAR_OFF, sc, 2049)
        assert split.tobytes() == serial.tobytes()

    def test_forward_pass_equals_serial(self):
        p = mlp(100, True, seed=4)
        x, sc = Rng(1).normal((5000, 2)), Rng(2).normal((5000, 2))
        with one_blas_thread():
            serial = mlp_forward(p, x, 0.3, self_cond=sc)
        with one_blas_thread(), RowSplit(p, 5000, 3) as split:
            for _ in range(2):  # the second pass reuses the children and buffers
                assert mlp_forward(p, x, 0.3, self_cond=sc, split=split).tobytes() \
                    == serial.tobytes()


@needs_pin
class TestStaysInProcess:
    def test_one_cpu(self, monkeypatch, no_split):
        cpus(monkeypatch, 1)
        generate(mlp(64, False), LINEAR_OFF, SamplerConfig(steps=2, seed=0), 16384)

    @pytest.mark.parametrize("n, opens", [(511, False), (512, True)])
    def test_one_block_per_process(self, monkeypatch, splits, n, opens):
        cpus(monkeypatch, 2)
        generate(mlp(64, False), LINEAR_OFF, SamplerConfig(steps=2, seed=0), n)
        assert splits == ([2] if opens else [])

    def test_processes_capped_by_cpus_and_blocks(self, monkeypatch):
        p = mlp(16, False)
        cpus(monkeypatch, 4)
        assert [split_processes(p, n) for n in (511, 512, 768, 1024, 4096)] \
            == [None, 2, 3, 4, 4]
        cpus(monkeypatch, 1)
        assert split_processes(p, 16384) is None

    def test_no_split_without_hidden_layers_or_fork(self, monkeypatch):
        cpus(monkeypatch, 2)
        p = mlp(16, False)
        assert split_processes(p, 4096) == 2
        assert split_processes(randomized(MlpArch(in_dim=2, hidden_dims=()), 0), 4096) is None
        monkeypatch.delattr(os, "fork", raising=False)
        assert split_processes(p, 4096) is None

    def test_oracle(self, monkeypatch, no_split):
        cpus(monkeypatch, 2)
        generate(GaussianOracle(ar1_covariance(2, 0.5)), LINEAR_OFF,
                 SamplerConfig(steps=2, seed=0), 4096)

    def test_in_a_worker(self, monkeypatch, no_split):
        cpus(monkeypatch, 2)
        monkeypatch.setattr(noiselab.core, "_worker", True)
        assert usable_cpus() == 1
        generate(mlp(64, False), LINEAR_OFF, SamplerConfig(steps=2, seed=0), 4096)

    def test_unreachable_blas(self, monkeypatch, no_split):
        cpus(monkeypatch, 2)
        monkeypatch.setattr(noiselab.core, "_openblas_thread_funcs", lambda: None)
        generate(mlp(64, False), LINEAR_OFF, SamplerConfig(steps=2, seed=0), 4096)

    def test_cached_forward(self, monkeypatch):
        def refuse():
            raise AssertionError("forked")

        cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", refuse)
        p = mlp(64, False)
        x = Rng(0).normal((4096, 2))
        out, cache = mlp_forward_cached(p, x, 0.5)
        assert out.shape == (4096, 2) and cache["acts"][-1].shape == (4096, 64)


class TestRowSplitArgs:
    def test_other_params(self):
        p, q = mlp(16, False), mlp(16, False)
        with RowSplit(p, 2048, 2) as split:
            with pytest.raises(ValueError, match="params it was opened on"):
                mlp_forward(q, np.zeros((2048, 2)), 0.5, split=split)

    def test_one_time_and_the_opened_batch_size(self):
        p = mlp(16, False)
        with RowSplit(p, 2048, 2) as split:
            with pytest.raises(ValueError, match="one time"):
                mlp_forward(p, np.zeros((2048, 2)), np.zeros(2048), split=split)
            with pytest.raises(ValueError, match="2048 rows"):
                mlp_forward(p, np.zeros((2047, 2)), 0.5, split=split)

    def test_close_twice(self):
        split = RowSplit(mlp(16, False), 2048, 2)
        split.close()
        split.close()


def die_in_children(monkeypatch, how):
    """Make every child of a split fail in its first pass."""
    parent = os.getpid()
    real = rowsplit_mod._block

    def block(*args):
        if os.getpid() != parent:
            if how == "exit":
                os._exit(3)
            raise RuntimeError("injected in a child")
        return real(*args)

    monkeypatch.setattr(rowsplit_mod, "_block", block)


def forked_pids(monkeypatch):
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_reaped(pids):
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@needs_pin
class TestFailures:
    @pytest.mark.parametrize("how", ["exit", "raise"])
    def test_dead_child_raises(self, monkeypatch, how):
        cpus(monkeypatch, 3)
        die_in_children(monkeypatch, how)
        pids = forked_pids(monkeypatch)
        with pytest.raises(ChildProcessError, match="row-split worker process died"):
            generate(mlp(64, False), LINEAR_OFF, SamplerConfig(steps=3, seed=0), 4096)
        assert len(pids) == 2
        assert_reaped(pids)

    def test_child_killed_between_passes(self):
        p = mlp(64, False)
        x = Rng(0).normal((2048, 2))
        with RowSplit(p, 2048, 2) as split:
            mlp_forward(p, x, 0.5, split=split)
            pid = split._children[0][0]
            os.kill(pid, signal.SIGKILL)
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, left for close()
            with pytest.raises(ChildProcessError, match="row-split worker process died"):
                mlp_forward(p, x, 0.5, split=split)
        assert_reaped([pid])

    def test_dead_child_is_cli_exit_2(self, monkeypatch, tmp_path, capsys):
        cpus(monkeypatch, 2)
        die_in_children(monkeypatch, "exit")
        save_params(tmp_path / "ema.bin", mlp(16, False))
        cfg = tmp_path / "sample.txt"
        cfg.write_text("[dataset]\nkind = mixture2d\nn_train = 16\nseed = 0\nmodes = 2\n"
                       "radius = 1.0\nstd = 0.2\n"
                       "[compound]\nschedule = linear\ninput_scale = 1.0\nnormalize = off\n"
                       "[sampler]\nsteps = 3\nseed = 0\n")
        out = tmp_path / "out"
        rc = main(["sample", "--config", str(cfg), "--checkpoint", str(tmp_path / "ema.bin"),
                   "--n", "2048", "--out-dir", str(out)])
        assert rc == 2
        assert "row-split worker process died" in capsys.readouterr().err
        assert not (out / "samples.csv").exists()

    def test_parent_error_mid_chain_reaps_children(self, monkeypatch):
        cpus(monkeypatch, 2)
        pids = forked_pids(monkeypatch)
        real, calls = sampler_mod._ddim, []

        def ddim(x_t, eps, g_now, g_next):
            calls.append(g_now)
            out = real(x_t, eps, g_now, g_next)
            if len(calls) == 2:
                out[7, 1] = np.inf
            return out

        monkeypatch.setattr(sampler_mod, "_ddim", ddim)
        with pytest.raises(NonFiniteError):
            generate(mlp(64, True), LINEAR_OFF, SamplerConfig(steps=5, seed=0), 2048)
        assert len(calls) == 2
        assert_reaped(pids)
