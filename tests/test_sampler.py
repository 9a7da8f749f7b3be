"""Sampling steps and full-loop closure against the oracle."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import noiselab
import noiselab.sampler
from conftest import traced_peak
from noiselab.core import NonFiniteError, Rng, _openblas_thread_funcs
from noiselab.datasets import DatasetSpec, ar1_covariance, dataset_covariance, make_dataset
from noiselab.denoiser import MlpArch, init_params
from noiselab.forward import CompoundSchedule, diffuse
from noiselab.metrics import covariance_error
from noiselab.oracle import GaussianOracle
from noiselab.sampler import (
    STEP_KINDS,
    SamplerConfig,
    _check_gammas,
    _step,
    generate,
)
from noiselab.schedules import ScheduleSpec
from noiselab.training import TrainConfig, train

LINEAR_OFF = CompoundSchedule(schedule=ScheduleSpec.linear(), input_scale=1.0, normalize="off")


def randomized_params(arch: MlpArch, seed: int):
    p = init_params(arch, Rng(seed))
    rng = Rng(seed + 1)
    for w in p.weights:
        w[...] = 0.3 * rng.normal(w.shape)
    for b in p.biases:
        b[...] = 0.05 * rng.normal(b.shape)
    return p


class TestDdimStep:
    def test_hand_value(self):
        x_t = np.array([[1.0]])
        eps = np.array([[0.5]])
        out = _step(x_t, eps, 0.5, 1.0)
        assert out[0, 0] == pytest.approx(0.9142135623730951, abs=1e-15)

    def test_fixed_point(self):
        x_t = Rng(0).normal((6, 3))
        eps = Rng(1).normal((6, 3))
        np.testing.assert_allclose(_step(x_t.copy(), eps, 0.4, 0.4), x_t, atol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_true_noise_inverts_forward(self, scale):
        """With the exact diffusion noise, one step to gamma=1 yields b x0."""
        cs = CompoundSchedule(schedule=ScheduleSpec.linear(), input_scale=scale, normalize="off")
        x0 = Rng(2).normal((200, 4))
        eps = Rng(3).normal((200, 4))
        t = 0.3
        sample = diffuse(x0, t, None, cs, eps=eps)
        g = float(sample.gamma_t[0])
        out = _step(sample.x_t, eps, g, 1.0)
        np.testing.assert_allclose(out, scale * x0, atol=1e-10)

    def test_deterministic_no_rng(self):
        """Without z, _step overwrites x_t, so each call gets its own copy; eps stays as it was."""
        x_t = Rng(4).normal((5, 2))
        eps = Rng(5).normal((5, 2))
        eps_before = eps.copy()
        np.testing.assert_array_equal(
            _step(x_t.copy(), eps, 0.3, 0.7), _step(x_t.copy(), eps, 0.3, 0.7)
        )
        np.testing.assert_array_equal(eps, eps_before)

    def test_gamma_zero_rejected(self):
        with pytest.raises(ValueError, match="gamma_now must lie in"):
            _check_gammas(0.0, 0.5)

    def test_gamma_decrease_rejected(self):
        with pytest.raises(ValueError, match="must not decrease"):
            _check_gammas(0.8, 0.5)


class TestDdpmStep:
    def test_variance_matches_formula(self):
        """10^4 repeats of one step from fixed inputs: var within 3%."""
        x_t = np.full((10_000, 1), 0.7)
        eps = np.full((10_000, 1), -0.3)
        out = _step(x_t, eps, 0.5, 0.8, Rng(11).normal(x_t.shape))
        want = (1.0 - 0.5 / 0.8) * (1.0 - 0.8) / (1.0 - 0.5)
        assert float(np.var(out)) == pytest.approx(want, rel=0.03)

    def test_clean_boundary_is_posterior_mean(self):
        """gamma_next = 1: injected variance and eps coefficient vanish."""
        x_t = Rng(6).normal((8, 3))
        eps = Rng(7).normal((8, 3))
        out = _step(x_t.copy(), eps, 0.6, 1.0, Rng(8).normal(x_t.shape))
        sig = (x_t - math.sqrt(0.4) * eps) / math.sqrt(0.6)
        np.testing.assert_allclose(out, sig, atol=1e-12)

    @pytest.mark.parametrize("g_now", [0.6, 1e-9, 1.0])
    def test_clean_boundary_equals_ddim(self, g_now):
        """gamma_next = 1 injects no noise, so the step is DDIM's to the last bit."""
        x_t = Rng(12).normal((8, 3))
        eps = Rng(13).normal((8, 3))
        np.testing.assert_array_equal(
            _step(x_t.copy(), eps, g_now, 1.0, Rng(14).normal(x_t.shape)),
            _step(x_t.copy(), eps, g_now, 1.0),
        )

    def test_seed_determinism(self):
        """With z, _step overwrites x_t, so each call gets its own copy; eps stays as it was."""
        x_t = Rng(9).normal((8, 3))
        eps = Rng(10).normal((8, 3))
        eps_before = eps.copy()
        a = _step(x_t.copy(), eps, 0.3, 0.6, Rng(21).normal(x_t.shape))
        b = _step(x_t.copy(), eps, 0.3, 0.6, Rng(21).normal(x_t.shape))
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(eps, eps_before)

    def test_always_consumes_noise(self, monkeypatch):
        """The chain draws fresh noise on every step, the last one to the clean
        boundary included, so a seed's stream is consumed alike whatever the gammas."""
        shapes, normal = [], Rng.normal
        monkeypatch.setattr(Rng, "normal",
                            lambda self, shape=(): shapes.append(shape) or normal(self, shape))
        sc = SamplerConfig(steps=3, seed=33, step_kind="ddpm")
        generate(GaussianOracle(np.eye(2)), LINEAR_OFF, sc, 4)
        assert shapes == [(4, 2)] * 4  # the start state, then one draw per step


class TestGenerate:
    def test_ddim_bit_identical_reruns(self):
        oracle = GaussianOracle(ar1_covariance(6, 0.5))
        sc = SamplerConfig(steps=20, seed=9)
        a = generate(oracle, LINEAR_OFF, sc, 50)
        b = generate(oracle, LINEAR_OFF, sc, 50)
        np.testing.assert_array_equal(a, b)

    def test_ddpm_bit_identical_reruns(self):
        oracle = GaussianOracle(ar1_covariance(6, 0.5))
        sc = SamplerConfig(steps=20, seed=9, step_kind="ddpm")
        a = generate(oracle, LINEAR_OFF, sc, 50)
        b = generate(oracle, LINEAR_OFF, sc, 50)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_samples(self):
        oracle = GaussianOracle(ar1_covariance(4, 0.3))
        a = generate(oracle, LINEAR_OFF, SamplerConfig(steps=10, seed=1), 20)
        b = generate(oracle, LINEAR_OFF, SamplerConfig(steps=10, seed=2), 20)
        assert np.max(np.abs(a - b)) > 1e-6

    def test_output_shape(self):
        oracle = GaussianOracle(np.eye(5))
        out = generate(oracle, LINEAR_OFF, SamplerConfig(steps=5, seed=0), 7)
        assert out.shape == (7, 5)

    def test_oracle_needs_raw_input(self):
        oracle = GaussianOracle(np.eye(3))
        cs = CompoundSchedule(schedule=ScheduleSpec.linear(), input_scale=1.0,
                              normalize="empirical")
        with pytest.raises(ValueError):
            generate(oracle, cs, SamplerConfig(steps=5, seed=0), 4)

    def test_bad_counts_and_labels(self):
        oracle = GaussianOracle(np.eye(3))
        with pytest.raises(ValueError):
            generate(oracle, LINEAR_OFF, SamplerConfig(steps=5, seed=0), 0)
        arch = MlpArch(in_dim=2, hidden_dims=(4,), time_embed_dim=2)
        params = init_params(arch, Rng(0))
        with pytest.raises(ValueError):
            generate(params, LINEAR_OFF, SamplerConfig(steps=2, seed=0), -1)
        with pytest.raises(TypeError):
            generate(params, LINEAR_OFF, SamplerConfig(steps=2, seed=0), 4,
                     labels=np.zeros(4, dtype=np.int64))

    @pytest.mark.parametrize("model, name", [(42, "int"), (lambda x: x, "function")])
    def test_only_the_two_models(self, monkeypatch, no_fork, model, name):
        """Anything but DenoiserParams or a GaussianOracle is refused before any draw or fork."""
        def no_draw(*args):
            raise AssertionError("drew")

        monkeypatch.setattr(Rng, "normal", no_draw)
        with pytest.raises(TypeError, match=f"^cannot sample from {name}$"):
            generate(model, LINEAR_OFF, SamplerConfig(steps=2, seed=0), 4)
        assert no_fork == []

    def test_self_cond_estimates_are_threaded(self):
        """Nonzero feedback weights must change the sample path."""
        arch = MlpArch(in_dim=2, hidden_dims=(8,), time_embed_dim=4, self_cond=True)
        live = randomized_params(arch, 45)
        dead = randomized_params(arch, 45)
        dead.weights[0][arch.in_dim + arch.time_embed_dim:, :] = 0.0
        sc = SamplerConfig(steps=10, seed=7)
        a = generate(live, LINEAR_OFF, sc, 12)
        b = generate(dead, LINEAR_OFF, sc, 12)
        assert np.max(np.abs(a - b)) > 1e-9

    def test_zeroed_self_cond_matches_plain_arch(self):
        """Dead feedback slice reproduces the equivalent plain network."""
        sc_arch = MlpArch(in_dim=2, hidden_dims=(8,), time_embed_dim=4, self_cond=True)
        plain_arch = MlpArch(in_dim=2, hidden_dims=(8,), time_embed_dim=4)
        p_sc = randomized_params(sc_arch, 46)
        p_sc.weights[0][plain_arch.input_width:, :] = 0.0
        from noiselab.denoiser import DenoiserParams

        p_plain = DenoiserParams(plain_arch)
        for dst, src in zip(p_plain.arrays, p_sc.arrays):
            dst[...] = src[: dst.shape[0]]
        cfg = SamplerConfig(steps=10, seed=8)
        np.testing.assert_array_equal(
            generate(p_sc, LINEAR_OFF, cfg, 9), generate(p_plain, LINEAR_OFF, cfg, 9)
        )

    def test_signal_clamp_wide_is_no_op(self):
        oracle = GaussianOracle(ar1_covariance(4, 0.5))
        a = generate(oracle, LINEAR_OFF, SamplerConfig(steps=15, seed=3), 30)
        b = generate(oracle, LINEAR_OFF,
                     SamplerConfig(steps=15, seed=3, signal_clamp=1e9), 30)
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_signal_clamp_tight_bounds_output(self):
        oracle = GaussianOracle(ar1_covariance(4, 0.5))
        out = generate(oracle, LINEAR_OFF,
                       SamplerConfig(steps=15, seed=3, signal_clamp=0.1), 30)
        # final step returns the clamped signal estimate itself
        assert np.max(np.abs(out)) <= 0.1 + 1e-12


def hook_oracle(monkeypatch, hook=lambda eps, call: eps):
    """Pass each step's oracle prediction, a (dim, n) block, through hook(eps, call).

    Returns the (gamma, state) of every call so far, the state as (n, dim).
    """
    real, seen = GaussianOracle._eps, []

    def eps(self, x_cols, gamma_t, scale):
        seen.append((gamma_t, x_cols.T.copy()))
        return hook(real(self, x_cols, gamma_t, scale), len(seen))

    monkeypatch.setattr(GaussianOracle, "_eps", eps)
    return seen


def _poison_step(value, at_call):
    def hook(eps, call):
        if call == at_call:
            eps[1, 3] = value
        return eps
    return hook


class TestPredictorBoundary:
    """generate checks the predicted noise, every step."""

    SIGMA = ar1_covariance(6, 0.7)

    def test_nan_at_one_step_raises(self, monkeypatch):
        seen = hook_oracle(monkeypatch, _poison_step(np.nan, 7))
        with pytest.raises(NonFiniteError):
            generate(GaussianOracle(self.SIGMA), LINEAR_OFF, SamplerConfig(steps=20, seed=1), 40)
        assert len(seen) == 7

    @pytest.mark.parametrize("step_kind", STEP_KINDS)
    def test_inf_with_signal_clamp_raises(self, monkeypatch, step_kind):
        """Clipping would turn +inf into a finite estimate; the step check sees it first."""
        seen = hook_oracle(monkeypatch, _poison_step(np.inf, 5))
        sc = SamplerConfig(steps=20, seed=1, step_kind=step_kind, signal_clamp=2.0)
        with pytest.raises(NonFiniteError):
            generate(GaussianOracle(self.SIGMA), LINEAR_OFF, sc, 40)
        assert len(seen) == 5

    @pytest.mark.parametrize("step_kind", STEP_KINDS)
    def test_returned_array_left_unchanged(self, monkeypatch, step_kind):
        """A step overwrites the state, never the array the prediction returned."""
        same = 0.2 * Rng(5).normal((3, 40))
        kept = same.copy()
        sc = SamplerConfig(steps=10, seed=6, step_kind=step_kind)
        hook_oracle(monkeypatch, lambda eps, call: same)
        out = generate(GaussianOracle(np.eye(3)), LINEAR_OFF, sc, 40)
        np.testing.assert_array_equal(same, kept)
        hook_oracle(monkeypatch, lambda eps, call: same.copy())
        np.testing.assert_array_equal(out, generate(GaussianOracle(np.eye(3)), LINEAR_OFF, sc, 40))


class TestChainMemory:
    """The peak a serial chain allocates, in state-sized (n, dim) float64 arrays.

    A DDIM step holds the state, the predicted noise and the next state;
    DDPM adds its step noise (and Box-Muller's uniforms while drawing it),
    self-conditioning the signal estimate, and an MLP its forward pass.
    Each bound lies between this chain's peak and that of a chain which
    keeps one more array alive, so a leaked array fails it.
    """

    N, DIM = 4000, 16

    def peak_states(self, monkeypatch, model, cs, sc):
        monkeypatch.setattr(noiselab.sampler, "usable_cpus", lambda: 1)
        generate(model, cs, sc, 8)  # first-call imports are not the chain's
        return traced_peak(lambda: generate(model, cs, sc, self.N)) / (self.N * self.DIM * 8)

    @pytest.mark.parametrize("clamp", [None, 1.0])
    @pytest.mark.parametrize("step_kind, bound", [("ddim", 3.5), ("ddpm", 5.0)])
    def test_oracle_chain(self, monkeypatch, no_fork, step_kind, bound, clamp):
        sc = SamplerConfig(steps=5, seed=3, step_kind=step_kind, signal_clamp=clamp)
        oracle = GaussianOracle(ar1_covariance(self.DIM, 0.9))
        assert self.peak_states(monkeypatch, oracle, LINEAR_OFF, sc) < bound

    def test_self_conditioning_mlp_chain(self, monkeypatch, no_fork):
        """The forward pass's input rows (width 2 dim + 4) and output layer
        set this peak, beside the state, the network input and the estimate."""
        arch = MlpArch(in_dim=self.DIM, hidden_dims=(8,), time_embed_dim=4, self_cond=True)
        cs = CompoundSchedule(schedule=ScheduleSpec.linear(), input_scale=0.5,
                              normalize="empirical")
        sc = SamplerConfig(steps=5, seed=3, signal_clamp=1.5)
        assert self.peak_states(monkeypatch, randomized_params(arch, 48), cs, sc) < 8.4


class TestSaturatedGamma:
    """sigmoid:-3,3,0.05 rounds to gamma == 1 on the last 18 of 100 steps."""

    SCHEDULE = ScheduleSpec.sigmoid(-3.0, 3.0, 0.05)

    def test_oracle_predicts_zero_noise(self):
        x_cols = Rng(0).normal((4, 9))
        eps = GaussianOracle(ar1_covariance(4, 0.5))._eps(x_cols, 1.0, 0.5)
        np.testing.assert_array_equal(eps, np.zeros((4, 9)))

    @pytest.mark.parametrize("step_kind", STEP_KINDS)
    def test_saturated_steps_leave_state_unchanged(self, monkeypatch, step_kind):
        scale = 0.5
        cs = CompoundSchedule(schedule=self.SCHEDULE, input_scale=scale, normalize="off")
        sc = SamplerConfig(steps=100, seed=6, step_kind=step_kind,
                           inference_schedule=self.SCHEDULE)
        oracle = GaussianOracle(ar1_covariance(8, 0.9))
        seen = hook_oracle(monkeypatch)
        out = generate(oracle, cs, sc, 500)
        saturated = [k for k, (g, _) in enumerate(seen) if g == 1.0]
        assert len(saturated) == 18
        states = [x for _, x in seen] + [out * scale]
        for k in saturated:
            np.testing.assert_array_equal(states[k + 1], states[k])


class TestSamplerConfigValidation:
    def test_default_inference_schedule(self):
        sc = SamplerConfig(steps=10, seed=0)
        assert sc.inference_schedule == ScheduleSpec.cosine(0.0, 1.0, 1.0)
        assert sc.step_kind == "ddim"

    @pytest.mark.parametrize(
        "bad",
        [
            dict(steps=0),
            dict(seed=-1),
            dict(step_kind="euler"),
            dict(signal_clamp=math.nan),
            dict(signal_clamp=0.0),
        ],
    )
    def test_rejects(self, bad):
        base = dict(steps=10, seed=0)
        base.update(bad)
        with pytest.raises(ValueError):
            SamplerConfig(**base)


class TestOracleClosure:
    """Sampling with the exact denoiser reproduces the data covariance."""

    SIGMA = ar1_covariance(16, 0.9)

    def test_ddim_100_steps(self):
        oracle = GaussianOracle(self.SIGMA)
        out = generate(oracle, LINEAR_OFF, SamplerConfig(steps=100, seed=123), 10_000)
        assert covariance_error(out, self.SIGMA) < 0.10

    def test_ddim_unscaling_contract(self):
        """b = 0.5: output covariance matches Sigma, not b^2 Sigma."""
        oracle = GaussianOracle(self.SIGMA)
        cs = CompoundSchedule(schedule=ScheduleSpec.linear(), input_scale=0.5,
                              normalize="off")
        out = generate(oracle, cs, SamplerConfig(steps=100, seed=123), 10_000)
        assert covariance_error(out, self.SIGMA) < 0.10
        assert covariance_error(out, 0.25 * self.SIGMA) > 0.5

    def test_ddpm_100_steps(self):
        oracle = GaussianOracle(self.SIGMA)
        out = generate(oracle, LINEAR_OFF,
                       SamplerConfig(steps=100, seed=5, step_kind="ddpm"), 10_000)
        assert covariance_error(out, self.SIGMA) < 0.10

    def test_inference_schedule_choice_respected(self):
        """Cosine vs linear inference grids visit different gammas."""
        oracle = GaussianOracle(ar1_covariance(4, 0.5))
        lin = SamplerConfig(steps=10, seed=2,
                            inference_schedule=ScheduleSpec.linear())
        cos = SamplerConfig(steps=10, seed=2,
                            inference_schedule=ScheduleSpec.cosine(0.0, 1.0, 1.0))
        a = generate(oracle, LINEAR_OFF, lin, 40)
        b = generate(oracle, LINEAR_OFF, cos, 40)
        assert np.max(np.abs(a - b)) > 1e-9


class TestScheduleDecouplingIntegration:
    def test_train_linear_sample_cosine(self):
        """Short end-to-end run with mismatched schedules stays sane."""
        data = make_dataset(
            DatasetSpec(kind="mixture2d", n_train=2048, seed=5, modes=2, radius=1.0, std=0.2)
        )
        arch = MlpArch(in_dim=2, hidden_dims=(32, 32), time_embed_dim=8)
        cfg = TrainConfig(steps=3000, batch_size=64, lr=3e-3, seed=7,
                          ema_decay=0.999, log_every=500)
        params, ema, _ = train(data, arch, LINEAR_OFF, cfg)
        sc = SamplerConfig(steps=25, seed=11, signal_clamp=3.0,
                           inference_schedule=ScheduleSpec.cosine(0.0, 1.0, 1.0))
        out = generate(ema, LINEAR_OFF, sc, 500)
        assert out.shape == (500, 2)
        assert np.all(np.isfinite(out))
        # sampled spread is data-like, far from the N(0, I) start
        assert 0.3 < float(out.std()) < 3.0


def _golden_mlp_checkpoint():
    """EMA params of the criterion-08 recipe cut to 200 LAMB steps."""
    data = make_dataset(
        DatasetSpec(kind="mixture2d", n_train=8192, seed=101, modes=8, radius=1.0, std=0.2)
    )
    arch = MlpArch(in_dim=2, hidden_dims=(64, 64), time_embed_dim=16)
    cfg = TrainConfig(steps=200, batch_size=128, lr=3e-3, seed=7, ema_decay=0.999,
                      log_every=50)
    return train(data, arch, LINEAR_OFF, cfg)[1]


def _golden_case(name: str) -> np.ndarray:
    linear = ScheduleSpec.linear()
    if name in ("oracle_ddim_ar1", "oracle_ddpm_ar1"):
        kind = name.split("_")[1]
        oracle = GaussianOracle(ar1_covariance(16, 0.9))
        cs = CompoundSchedule(schedule=linear, input_scale=0.3, normalize="off")
        sc = SamplerConfig(steps=50, seed=17, step_kind=kind, inference_schedule=linear)
        return generate(oracle, cs, sc, 2000)
    if name in ("oracle_ddim_toy_image_clamp", "oracle_ddim_toy_image64_clamp"):
        base_res = 4 if name == "oracle_ddim_toy_image64_clamp" else 3
        spec = DatasetSpec(kind="toy_image", n_train=1, seed=0, base_res=base_res, rho=0.8,
                           upsample=2)
        oracle = GaussianOracle(dataset_covariance(spec))
        cs = CompoundSchedule(schedule=linear, input_scale=0.5, normalize="off")
        sc = SamplerConfig(steps=50, seed=23, inference_schedule=linear, signal_clamp=1.5)
        return generate(oracle, cs, sc, 500)
    if name == "mlp_ddim_clamp":
        sc = SamplerConfig(steps=100, seed=303, signal_clamp=2.0)
        return generate(_golden_mlp_checkpoint(), LINEAR_OFF, sc, 2048)
    raise KeyError(name)


# sha256 of the bytes generate() returns, recorded before the oracle chain
# was reworked to run unchecked kernels on a column-ordered state. A change
# here means a sampling chain moved by at least one bit. Recorded with the
# bundled OpenBLAS on x86-64, with one and with two BLAS threads. The dim-64
# image case was recorded with OPENBLAS_NUM_THREADS=1 before generate()
# pinned BLAS: unpinned, its Sigma @ y gemm rounds differently with two
# threads.
GOLDEN_SAMPLING_DIGESTS = {
    "oracle_ddim_ar1": "c73e76afeae16e7bbaf69540d7546c960980f5e9c4f02a8e7893e8c04b4b6212",
    "oracle_ddpm_ar1": "e91764a60fcd91bd8dbb1b7b001f6dcfc2adaea5e47fc90795f210d44fd7f0ea",
    "oracle_ddim_toy_image_clamp": "71ce72ca95fb77d7dd0b55e26fc4cfc22da8a6c6aa8c1ba3a50928fbc91c2682",
    "oracle_ddim_toy_image64_clamp":
        "dfb9e97286b0429fb8482bb06a785487777c8d820fc6bf1c3667326a792dcd9a",
    "mlp_ddim_clamp": "578df4bfee81d6ccc1a492bd42c0269036722a3094649ff617d92ce6da2acba0",
}


# the golden cases of at least two 256-row blocks
SPLIT_GOLDEN_CASES = ("oracle_ddim_ar1", "oracle_ddpm_ar1", "mlp_ddim_clamp")


@pytest.mark.golden
class TestGoldenSamplingBits:
    """generate() reproduces recorded samples byte for byte."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_SAMPLING_DIGESTS))
    def test_sample_digests(self, monkeypatch, forks, name):
        """The same bytes on one usable CPU and on two, where the cases of
        512 rows or more split their chain (with numpy's OpenBLAS reachable)."""
        splits = name in SPLIT_GOLDEN_CASES and _openblas_thread_funcs() is not None
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            out = _golden_case(name)
            assert out.flags.c_contiguous
            assert hashlib.sha256(out.tobytes()).hexdigest() == GOLDEN_SAMPLING_DIGESTS[name]
        assert forks == [1, 2 if splits else 1]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_blas_thread_count_moves_no_bit(self, threads):
        # a fresh interpreter, since OpenBLAS reads its thread count at load
        name = "oracle_ddim_toy_image64_clamp"
        code = (
            "import hashlib, sys\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from test_sampler import _golden_case\n"
            f"print(hashlib.sha256(_golden_case({name!r}).tobytes()).hexdigest())\n"
        )
        src = str(Path(noiselab.__file__).resolve().parent.parent)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "OMP_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        assert proc.stdout.strip().splitlines()[-1] == GOLDEN_SAMPLING_DIGESTS[name]
