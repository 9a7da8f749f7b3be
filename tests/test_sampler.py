"""Sampling steps, guidance, and full-loop closure against the oracle."""

import math

import numpy as np
import pytest

from noiselab.core import Rng, gaussian
from noiselab.datasets import DatasetSpec, ar1_covariance, make_dataset
from noiselab.denoiser import MlpArch, init_params
from noiselab.forward import CompoundSchedule, diffuse
from noiselab.metrics import covariance_error
from noiselab.oracle import GaussianOracle
from noiselab.sampler import (
    MlpPredictor,
    OraclePredictor,
    SamplerConfig,
    as_predictor,
    cfg_combine,
    ddim_step,
    ddpm_step,
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
    if p.class_embed is not None:
        p.class_embed[...] = 0.2 * rng.normal(p.class_embed.shape)
    return p


class TestDdimStep:
    def test_hand_value(self):
        x_t = np.array([[1.0]])
        eps = np.array([[0.5]])
        out = ddim_step(x_t, eps, 0.5, 1.0)
        assert out[0, 0] == pytest.approx(0.9142135623730951, abs=1e-15)

    def test_fixed_point(self):
        x_t = Rng(0).normal((6, 3))
        eps = Rng(1).normal((6, 3))
        np.testing.assert_allclose(ddim_step(x_t, eps, 0.4, 0.4), x_t, atol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_true_noise_inverts_forward(self, scale):
        """With the exact diffusion noise, one step to gamma=1 yields b x0."""
        cs = CompoundSchedule(schedule=ScheduleSpec.linear(), input_scale=scale, normalize="off")
        x0 = Rng(2).normal((200, 4))
        eps = Rng(3).normal((200, 4))
        t = 0.3
        sample = diffuse(x0, t, None, cs, eps=eps)
        g = float(sample.gamma_t[0])
        out = ddim_step(sample.x_t, eps, g, 1.0)
        np.testing.assert_allclose(out, scale * x0, atol=1e-10)

    def test_deterministic_no_rng(self):
        x_t = Rng(4).normal((5, 2))
        eps = Rng(5).normal((5, 2))
        np.testing.assert_array_equal(
            ddim_step(x_t, eps, 0.3, 0.7), ddim_step(x_t, eps, 0.3, 0.7)
        )

    def test_gamma_zero_rejected(self):
        with pytest.raises(ValueError):
            ddim_step(np.zeros((1, 1)), np.zeros((1, 1)), 0.0, 0.5)

    def test_gamma_decrease_rejected(self):
        with pytest.raises(ValueError):
            ddim_step(np.zeros((1, 1)), np.zeros((1, 1)), 0.8, 0.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ddim_step(np.zeros((2, 2)), np.zeros((2, 3)), 0.5, 0.9)


class TestDdpmStep:
    def test_variance_matches_formula(self):
        """10^4 repeats of one step from fixed inputs: var within 3%."""
        x_t = np.full((10_000, 1), 0.7)
        eps = np.full((10_000, 1), -0.3)
        out = ddpm_step(x_t, eps, 0.5, 0.8, Rng(11))
        want = (1.0 - 0.5 / 0.8) * (1.0 - 0.8) / (1.0 - 0.5)
        assert float(np.var(out)) == pytest.approx(want, rel=0.03)

    def test_clean_boundary_is_posterior_mean(self):
        """gamma_next = 1: injected variance and eps coefficient vanish."""
        x_t = Rng(6).normal((8, 3))
        eps = Rng(7).normal((8, 3))
        out = ddpm_step(x_t, eps, 0.6, 1.0, Rng(8))
        sig = (x_t - math.sqrt(0.4) * eps) / math.sqrt(0.6)
        np.testing.assert_allclose(out, sig, atol=1e-12)

    def test_seed_determinism(self):
        x_t = Rng(9).normal((8, 3))
        eps = Rng(10).normal((8, 3))
        a = ddpm_step(x_t, eps, 0.3, 0.6, Rng(21))
        b = ddpm_step(x_t, eps, 0.3, 0.6, Rng(21))
        np.testing.assert_array_equal(a, b)

    def test_always_consumes_noise(self):
        """The draw happens even at the clean boundary, keeping one rng
        usable across a fixed number of steps regardless of gammas."""
        rng = Rng(33)
        ddpm_step(np.zeros((4, 2)), np.zeros((4, 2)), 0.5, 1.0, rng)
        after_boundary = rng.normal((1,))[0]
        rng2 = Rng(33)
        ddpm_step(np.zeros((4, 2)), np.zeros((4, 2)), 0.5, 0.9, rng2)
        after_interior = rng2.normal((1,))[0]
        assert after_boundary == after_interior


class TestCfgCombine:
    def test_w_zero_is_conditional(self):
        c = Rng(0).normal((3, 2))
        u = Rng(1).normal((3, 2))
        np.testing.assert_array_equal(cfg_combine(c, u, 0.0), c)

    def test_equal_inputs_any_weight(self):
        c = Rng(2).normal((3, 2))
        np.testing.assert_allclose(cfg_combine(c, c.copy(), 3.0), c, atol=1e-12)

    def test_hand_value(self):
        out = cfg_combine(np.array([[1.0]]), np.array([[0.0]]), 3.0)
        assert out[0, 0] == 4.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            cfg_combine(np.zeros((1, 1)), np.zeros((1, 1)), -0.5)


class TestPredictorProtocol:
    def test_mlp_predictor_attrs(self):
        arch = MlpArch(in_dim=3, hidden_dims=(8,), time_embed_dim=4, self_cond=True)
        pred = MlpPredictor(init_params(arch, Rng(0)))
        assert pred.dim == 3
        assert pred.self_conditioning is True
        assert pred.requires_raw_input is False

    def test_oracle_predictor_attrs(self):
        pred = OraclePredictor(GaussianOracle(np.eye(4)))
        assert pred.dim == 4
        assert pred.self_conditioning is False
        assert pred.requires_raw_input is True

    def test_as_predictor_accepts_all_forms(self):
        arch = MlpArch(in_dim=2, hidden_dims=(4,), time_embed_dim=2)
        params = init_params(arch, Rng(1))
        assert isinstance(as_predictor(params), MlpPredictor)
        oracle = GaussianOracle(np.eye(2))
        assert isinstance(as_predictor(oracle), OraclePredictor)
        ready = OraclePredictor(oracle)
        assert as_predictor(ready) is ready
        with pytest.raises(TypeError):
            as_predictor(42)


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
        arch = MlpArch(in_dim=2, hidden_dims=(4,), time_embed_dim=2, cond_classes=2)
        params = init_params(arch, Rng(0))
        with pytest.raises(ValueError):
            generate(params, LINEAR_OFF, SamplerConfig(steps=2, seed=0), 4,
                     labels=np.zeros(3, dtype=np.int64))

    def test_predictor_shape_checked(self):
        class Bad:
            dim = 3
            self_conditioning = False
            requires_raw_input = False

            def __call__(self, x_in, **kw):
                return np.zeros((2, 2))

        with pytest.raises(ValueError):
            generate(Bad(), LINEAR_OFF, SamplerConfig(steps=2, seed=0), 4)

    def test_null_labels_with_zero_weight_match_unlabeled(self):
        arch = MlpArch(in_dim=2, hidden_dims=(8,), time_embed_dim=4, cond_classes=3)
        params = randomized_params(arch, 40)
        sc = SamplerConfig(steps=8, seed=4)
        nulls = np.full(10, arch.null_class, dtype=np.int64)
        a = generate(params, LINEAR_OFF, sc, 10, labels=nulls)
        b = generate(params, LINEAR_OFF, sc, 10, labels=None)
        np.testing.assert_array_equal(a, b)

    def test_guidance_no_op_when_label_is_ignored(self):
        """Zeroed class table: cond and uncond passes agree, any weight."""
        arch = MlpArch(in_dim=2, hidden_dims=(8,), time_embed_dim=4, cond_classes=3)
        params = randomized_params(arch, 41)
        params.class_embed[:] = 0.0
        labels = Rng(42).integers(3, (10,))
        unguided = generate(params, LINEAR_OFF, SamplerConfig(steps=8, seed=5), 10,
                            labels=labels)
        guided = generate(params, LINEAR_OFF,
                          SamplerConfig(steps=8, seed=5, guidance_weight=3.0), 10,
                          labels=labels)
        np.testing.assert_allclose(guided, unguided, atol=1e-10)

    def test_guidance_changes_output_when_labels_matter(self):
        arch = MlpArch(in_dim=2, hidden_dims=(8,), time_embed_dim=4, cond_classes=3)
        params = randomized_params(arch, 43)
        labels = Rng(44).integers(3, (10,))
        a = generate(params, LINEAR_OFF, SamplerConfig(steps=8, seed=6), 10, labels=labels)
        b = generate(params, LINEAR_OFF,
                     SamplerConfig(steps=8, seed=6, guidance_weight=2.0), 10, labels=labels)
        assert np.max(np.abs(a - b)) > 1e-9

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


class TestSamplerConfigValidation:
    def test_default_inference_schedule(self):
        sc = SamplerConfig(steps=10, seed=0)
        assert sc.inference_schedule == ScheduleSpec.cosine(0.0, 1.0, 1.0)
        assert sc.step_kind == "ddim"
        assert sc.guidance_weight == 0.0

    @pytest.mark.parametrize(
        "bad",
        [
            dict(steps=0),
            dict(seed=-1),
            dict(step_kind="euler"),
            dict(guidance_weight=-1.0),
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
