"""The whole-chain row split of sampling: byte-identical to the serial chain,
opened only for a chain of at least two row blocks, errors raised as the
serial chain raises them, and no child process outlives generate()."""

import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noiselab.core
import noiselab.sampler as sampler_mod
from conftest import assert_reaped, forked_pids, spy_on_forks
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
    _row_blocks,
    init_params,
    mlp_forward,
    save_params,
)
from noiselab.forward import CompoundSchedule
from noiselab.oracle import GaussianOracle
from noiselab.sampler import SamplerConfig, _most_alike, generate, row_runs, split_processes
from noiselab.schedules import ScheduleSpec

LINEAR_OFF = CompoundSchedule(schedule=ScheduleSpec.linear(), input_scale=1.0, normalize="off")
EMPIRICAL = CompoundSchedule(schedule=ScheduleSpec.linear(), input_scale=0.7,
                             normalize="empirical")

needs_pin = pytest.mark.skipif(_openblas_thread_funcs() is None,
                               reason="numpy's OpenBLAS is not reachable, so sampling stays serial")


def cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def randomized(arch, seed):
    """Params with every array random, so no layer is a no-op."""
    p = init_params(arch, Rng(seed))
    p.flat[...] = 0.3 * Rng(seed + 1).normal(p.flat.shape)
    return p


def mlp(width, self_cond, seed=0, in_dim=2):
    arch = MlpArch(in_dim=in_dim, hidden_dims=(width, width), time_embed_dim=8,
                   self_cond=self_cond)
    return randomized(arch, seed)


def split_and_serial(monkeypatch, forks, model, cs, sc, n, processes=2):
    cpus(monkeypatch, processes)
    split = generate(model, cs, sc, n)
    assert forks == [processes]
    cpus(monkeypatch, 1)
    serial = generate(model, cs, sc, n)
    assert forks == [processes, 1]
    return split, serial


@needs_pin
class TestSplitEqualsSerial:
    @pytest.mark.parametrize("n", [2048, 2049, 4095, 16385])
    @pytest.mark.parametrize("width", [64, 100])
    @pytest.mark.parametrize("self_cond", [False, True], ids=["plain", "self_cond"])
    def test_ddim_clamp(self, monkeypatch, forks, self_cond, width, n):
        sc = SamplerConfig(steps=3, seed=5, signal_clamp=1.5)
        split, serial = split_and_serial(monkeypatch, forks, mlp(width, self_cond), EMPIRICAL,
                                         sc, n)
        assert split.tobytes() == serial.tobytes()

    @pytest.mark.parametrize("clamp", [None, 2.0])
    @pytest.mark.parametrize("kind", ["ddim", "ddpm"])
    @pytest.mark.parametrize("self_cond", [False, True], ids=["plain", "self_cond"])
    def test_step_kinds(self, monkeypatch, forks, self_cond, kind, clamp):
        sc = SamplerConfig(steps=4, seed=9, step_kind=kind, signal_clamp=clamp)
        split, serial = split_and_serial(monkeypatch, forks, mlp(64, self_cond, seed=3),
                                         LINEAR_OFF, sc, 2049)
        assert split.tobytes() == serial.tobytes()

    @pytest.mark.parametrize("kind", ["ddim", "ddpm"])
    def test_oracle(self, monkeypatch, forks, kind):
        sc = SamplerConfig(steps=4, seed=2, step_kind=kind, signal_clamp=1.0)
        split, serial = split_and_serial(monkeypatch, forks,
                                         GaussianOracle(ar1_covariance(16, 0.9)), LINEAR_OFF,
                                         sc, 3000, processes=3)
        assert split.tobytes() == serial.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(n=st.one_of(st.integers(512, 6000), st.integers(2, 23).map(lambda b: 256 * b + 1)),
           processes=st.integers(2, 4),
           kind=st.sampled_from(["ddim", "ddpm"]),
           clamp=st.sampled_from([None, 1.5]),
           model=st.sampled_from(["mlp64", "mlp100_dim3", "mlp64_self_cond", "mlp64_dim1",
                                  "oracle16", "oracle24", "oracle3", "oracle2", "oracle1"]))
    def test_split_equals_serial_property(self, n, processes, kind, clamp, model):
        """Every cut generate() takes gives the serial chain's bytes.

        The 100-wide net on 3-dim data and the 24-dim oracle have cuts
        whose batch-sized product rounds apart from the whole batch's on
        OpenBLAS; split_processes must refuse those.
        """
        if model.startswith("oracle"):
            dim = int(model[len("oracle"):])
            net, cs = GaussianOracle(ar1_covariance(dim, 0.8)), LINEAR_OFF
        else:
            width = 100 if model == "mlp100_dim3" else 64
            in_dim = {"mlp100_dim3": 3, "mlp64_dim1": 1}.get(model, 2)
            net = mlp(width, model.endswith("self_cond"), seed=n, in_dim=in_dim)
            cs = EMPIRICAL if in_dim > 1 else LINEAR_OFF  # one coordinate has no spread
        sc = SamplerConfig(steps=3, seed=n, step_kind=kind, signal_clamp=clamp)
        with pytest.MonkeyPatch.context() as mp:
            forks = spy_on_forks(mp)
            cpus(mp, processes)
            split = generate(net, cs, sc, n)
            cpus(mp, 1)
            serial = generate(net, cs, sc, n)
        assert split.tobytes() == serial.tobytes()
        assert len(forks) == 2 and 1 <= forks[0] <= processes and forks[1] == 1


class TestRowSplit:
    @pytest.mark.parametrize("n", [512, 513, 767, 2048, 4095, 16385])
    def test_runs_are_contiguous_runs_of_whole_blocks(self, n):
        blocks = _row_blocks(n)
        starts = {r0 for r0, _ in blocks}
        for processes in range(2, min(4, len(blocks)) + 1):
            runs = row_runs(n, processes)
            assert len(runs) == processes
            assert runs[0][0] == 0 and runs[-1][1] == n
            for (_, stop), (start, _) in zip(runs[:-1], runs[1:]):
                assert stop == start and start in starts
            sizes = [sum(1 for r in starts if r0 <= r < r1) for r0, r1 in runs]
            assert max(sizes) - min(sizes) <= 1


@needs_pin
class TestStaysInProcess:
    def test_one_cpu(self, monkeypatch, no_fork):
        cpus(monkeypatch, 1)
        generate(mlp(64, False), LINEAR_OFF, SamplerConfig(steps=2, seed=0), 16384)

    @pytest.mark.parametrize("n, opens", [(511, False), (512, True)])
    def test_one_block_per_process(self, monkeypatch, forks, n, opens):
        cpus(monkeypatch, 2)
        generate(mlp(64, False), LINEAR_OFF, SamplerConfig(steps=2, seed=0), n)
        assert forks == ([2] if opens else [1])

    def test_processes_capped_by_cpus_and_blocks(self, monkeypatch):
        p = mlp(16, False)
        cpus(monkeypatch, 4)
        assert [split_processes(p, n) for n in (511, 512, 768, 1024, 4096)] \
            == [1, 2, 3, 4, 4]
        cpus(monkeypatch, 1)
        assert split_processes(p, 16384) == 1

    def test_no_split_without_hidden_layers_or_fork(self, monkeypatch):
        cpus(monkeypatch, 2)
        p = mlp(16, False)
        assert split_processes(p, 4096) == 2
        assert split_processes(randomized(MlpArch(in_dim=2, hidden_dims=()), 0), 4096) == 1
        monkeypatch.delattr(os, "fork", raising=False)
        assert split_processes(p, 4096) == 1

    def test_cut_that_rounds_apart(self, monkeypatch, forks):
        """A cut whose output layer BLAS rounds apart from the whole batch's is refused."""
        a, b = Rng(0).normal((5000, 100)), Rng(1).normal((100, 3))
        with one_blas_thread():
            apart = [(a[r0:r1] @ b).tobytes() != (a @ b)[r0:r1].tobytes()
                     for r0, r1 in row_runs(5000, 2)]
        if not any(apart):
            pytest.skip("this BLAS rounds every run of the product as the whole")
        cpus(monkeypatch, 2)
        generate(mlp(100, False, in_dim=3), LINEAR_OFF, SamplerConfig(steps=2, seed=0), 5000)
        assert forks == [1]
        with one_blas_thread():
            assert _most_alike(("rows", 100, 3), 5000, 2) == 1

    def test_in_a_worker(self, monkeypatch, no_fork):
        cpus(monkeypatch, 2)
        monkeypatch.setattr(noiselab.core, "_forked", True)
        assert usable_cpus() == 1
        generate(mlp(64, False), LINEAR_OFF, SamplerConfig(steps=2, seed=0), 4096)

    def test_unreachable_blas(self, monkeypatch, no_fork):
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
        cache = {}
        out = mlp_forward(p, x, 0.5, cache=cache)
        assert out.shape == (4096, 2) and cache["acts"][-1].shape == (4096, 64)


def in_children(monkeypatch, act):
    """Run act(x_t) in every child of a split, after each of its steps."""
    parent = os.getpid()
    real = sampler_mod._step

    def step(*args):
        out = real(*args)
        if os.getpid() != parent:
            act(out)
        return out

    monkeypatch.setattr(sampler_mod, "_step", step)


def die_in_children(monkeypatch, how):
    """Make every child of a split fail in its first step."""
    def act(out):
        if how == "exit":
            os._exit(3)
        raise RuntimeError("injected in a child")

    in_children(monkeypatch, act)


def poison_noise(monkeypatch, row, children_only):
    """NaN in one row of every predicted noise, in this process too or not."""
    parent = os.getpid()
    real = sampler_mod.mlp_forward

    def forward(p, x, t, self_cond):
        out = real(p, x, t, self_cond)
        if not children_only or os.getpid() != parent:
            out[row, 0] = np.nan
        return out

    monkeypatch.setattr(sampler_mod, "mlp_forward", forward)


SAMPLE_CONFIG = ("[dataset]\nkind = mixture2d\nn_train = 16\nseed = 0\nmodes = 2\n"
                 "radius = 1.0\nstd = 0.2\n"
                 "[compound]\nschedule = linear\ninput_scale = 1.0\nnormalize = off\n"
                 "[sampler]\nsteps = 3\nseed = 0\n")


def sample_cli(tmp_path, n):
    save_params(tmp_path / "ema.bin", mlp(16, False))
    cfg = tmp_path / "sample.txt"
    cfg.write_text(SAMPLE_CONFIG)
    out = tmp_path / "out"
    rc = main(["sample", "--config", str(cfg), "--checkpoint", str(tmp_path / "ema.bin"),
               "--n", str(n), "--out-dir", str(out)])
    return rc, out


@needs_pin
class TestFailures:
    @pytest.mark.parametrize("how", ["exit", "raise"])
    def test_dead_child_raises(self, monkeypatch, how):
        """A child that exits gives ChildProcessError; one that raises, its own error."""
        cpus(monkeypatch, 3)
        die_in_children(monkeypatch, how)
        pids = forked_pids(monkeypatch)
        expected = ((ChildProcessError, r"^a worker process died \(exit status 3\)$")
                    if how == "exit" else (RuntimeError, "^injected in a child$"))
        with pytest.raises(expected[0], match=expected[1]):
            generate(mlp(64, False), LINEAR_OFF, SamplerConfig(steps=3, seed=0), 4096)
        assert len(pids) == 2
        assert_reaped(pids)

    def test_killed_child(self, monkeypatch):
        cpus(monkeypatch, 2)
        in_children(monkeypatch, lambda out: os.kill(os.getpid(), signal.SIGKILL))
        pids = forked_pids(monkeypatch)
        with pytest.raises(ChildProcessError,
                           match=rf"^a worker process died \(signal {signal.SIGKILL}\)$"):
            generate(mlp(64, False), LINEAR_OFF, SamplerConfig(steps=3, seed=0), 2048)
        assert_reaped(pids)

    def test_child_error_is_the_serial_error(self, monkeypatch, forks):
        p, sc, forward = mlp(64, False), SamplerConfig(steps=3, seed=0), sampler_mod.mlp_forward
        cpus(monkeypatch, 1)
        poison_noise(monkeypatch, 3048, children_only=False)
        with pytest.raises(NonFiniteError) as serial:
            generate(p, LINEAR_OFF, sc, 4096)
        cpus(monkeypatch, 2)
        monkeypatch.setattr(sampler_mod, "mlp_forward", forward)
        poison_noise(monkeypatch, 1000, children_only=True)  # the child's run starts at 2048
        with pytest.raises(NonFiniteError) as split:
            generate(p, LINEAR_OFF, sc, 4096)
        assert forks == [1, 2]
        assert str(split.value) == str(serial.value) \
            == "predicted noise: non-finite values encountered"

    def test_dead_child_is_cli_exit_2(self, monkeypatch, tmp_path, capsys):
        cpus(monkeypatch, 2)
        die_in_children(monkeypatch, "exit")
        rc, out = sample_cli(tmp_path, 2048)
        assert rc == 2
        assert capsys.readouterr().err == "error: a worker process died (exit status 3)\n"
        assert not (out / "samples.csv").exists()

    def test_child_error_is_cli_exit_2(self, monkeypatch, tmp_path, capsys):
        cpus(monkeypatch, 2)
        poison_noise(monkeypatch, 5, children_only=True)
        rc, out = sample_cli(tmp_path, 2048)
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: predicted noise: non-finite values encountered\n"
        assert not (out / "samples.csv").exists()

    def test_parent_error_mid_chain_reaps_children(self, monkeypatch):
        """The caller's error ends the children at once, and they are reaped."""
        cpus(monkeypatch, 2)
        pids = forked_pids(monkeypatch)
        parent, real, calls = os.getpid(), sampler_mod._step, []

        def step(x_t, eps, g_now, g_next, z):
            out = real(x_t, eps, g_now, g_next, z)
            if os.getpid() == parent:
                calls.append(g_now)
                if len(calls) == 2:
                    out[7, 1] = np.inf
            return out

        killed = []
        real_kill = os.kill

        def kill(pid, sig):
            killed.append((pid, sig))
            real_kill(pid, sig)

        monkeypatch.setattr(sampler_mod, "_step", step)
        monkeypatch.setattr(os, "kill", kill)
        with pytest.raises(NonFiniteError):
            generate(mlp(64, True), LINEAR_OFF, SamplerConfig(steps=500, seed=0), 2048)
        assert len(calls) == 2
        assert killed == [(pid, signal.SIGKILL) for pid in pids]
        assert_reaped(pids)
