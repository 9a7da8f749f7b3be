"""Acceptance suite: ten numbered end-to-end checks across the package.

Each criterion is one test (or one small parametrized group) with its
tolerance stated inline. conftest.py prints a one-line PASS/FAIL summary
per criterion after the run. The end-to-end training criterion compares
against tests/reference_run.json, committed from a reference run of the
exact recipe; every seed below is part of that recipe and must not drift.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from noiselab.config import Config, SweepSettings
from noiselab.core import Rng
from noiselab.datasets import DatasetSpec, ar1_covariance, make_dataset
from noiselab.denoiser import (
    DenoiserParams,
    MlpArch,
    clone_params,
    init_params,
    mlp_backward,
    mlp_forward,
)
from noiselab.forward import CompoundSchedule, diffuse
from noiselab.io import write_samples_csv
from noiselab.metrics import covariance_error, sliced_wasserstein
from noiselab.oracle import GaussianOracle
from noiselab.sampler import SamplerConfig, generate
from noiselab.schedules import (
    CLIP_MIN,
    REFERENCE_SPECS,
    ScheduleSpec,
    format_schedule,
    gamma,
    log_snr,
)
from noiselab.sweep import best_scale, run_sweep
from noiselab.training import (
    TrainConfig,
    adam_step,
    ema_update,
    init_optimizer_state,
    lamb_step,
    train,
)

REFERENCE_PATH = Path(__file__).parent / "reference_run.json"

MIXTURE = dict(kind="mixture2d", modes=8, radius=1.0, std=0.2)


def end_to_end_pipeline():
    """The frozen training recipe behind criteria 8 and 9.

    Linear training schedule, default cosine inference schedule, LAMB,
    20k steps. Returns the generated samples plus the scores. Roughly
    30 s; both callers below rerun it from scratch on purpose.
    """
    data = make_dataset(DatasetSpec(n_train=8192, seed=101, **MIXTURE))
    held = make_dataset(DatasetSpec(n_train=16384, seed=202, **MIXTURE))
    cs = CompoundSchedule(schedule=ScheduleSpec.linear(), input_scale=1.0, normalize="off")
    cfg = TrainConfig(steps=20000, batch_size=128, lr=3e-3, seed=7,
                      ema_decay=0.999, log_every=5000)
    params, ema, history = train(data, cs, cfg)
    samples = generate(ema, cs, SamplerConfig(steps=100, seed=303, signal_clamp=2.0), 16384)
    sw = sliced_wasserstein(samples, held)
    sw_base = sliced_wasserstein(Rng(404).normal((16384, 2)), held)
    return dict(samples=samples, sw=sw, sw_base=sw_base, final_loss=history[-1][1])


@pytest.fixture(scope="module")
def end_to_end_run():
    return end_to_end_pipeline()


def oracle_closure_samples(scale: float) -> np.ndarray:
    """The generation run behind criteria 6 and 9: oracle eps, AR1(16, 0.9)."""
    oracle = GaussianOracle(ar1_covariance(16, 0.9))
    cs = CompoundSchedule(schedule=ScheduleSpec.cosine(0.0, 1.0, 1.0),
                          input_scale=scale, normalize="off")
    return generate(oracle, cs, SamplerConfig(steps=100, seed=123), 10000)


class TestCriterion01Schedules:
    """Reference schedule set: endpoints, monotonicity, cosine closed form."""

    @pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=format_schedule)
    def test_criterion_01_endpoints_and_monotone(self, spec):
        assert gamma(spec, 0.0) == 1.0
        assert gamma(spec, 1.0) == CLIP_MIN
        g = gamma(spec, np.linspace(0.0, 1.0, 1000))
        assert np.all(np.diff(g) <= 0.0)

    def test_criterion_01_cosine_closed_form(self):
        """Plain cosine is cos^2(pi t / 2) clipped below, within 1e-12."""
        spec = ScheduleSpec.cosine(0.0, 1.0, 1.0)
        t = np.linspace(0.0, 1.0, 1000)
        want = np.maximum(np.cos(np.pi * t / 2.0) ** 2, CLIP_MIN)
        np.testing.assert_allclose(gamma(spec, t), want, rtol=0, atol=1e-12)


class TestCriterion02LogSnrShift:
    def test_criterion_02_shift_is_two_log_b(self):
        """Input scale b moves every schedule's logSNR curve by exactly 2 ln b."""
        t = np.linspace(0.01, 0.99, 99)
        worst = 0.0
        for spec in REFERENCE_SPECS:
            base = log_snr(spec, t, 1.0)
            for b in np.arange(0.1, 1.01, 0.1):
                shifted = log_snr(spec, t, float(b))
                err = np.max(np.abs(shifted - base - 2.0 * math.log(b)))
                worst = max(worst, float(err))
        assert worst < 1e-9


class TestCriterion03VarianceLaw:
    def test_criterion_03_marginal_variance(self):
        """Var(x_t) for unit-variance data matches (b^2 - 1) gamma + 1 within 2%."""
        cs_of = {}
        rng = Rng(777)
        x0 = Rng(778).normal((100000, 1))
        for g_target in (0.1, 0.3, 0.5, 0.7, 0.9):
            t = 1.0 - g_target  # linear schedule hits gamma exactly
            for b in (0.1, 0.3, 0.5, 0.7, 1.0):
                cs = cs_of.setdefault(b, CompoundSchedule(
                    schedule=ScheduleSpec.linear(), input_scale=b, normalize="off"))
                x_t, _ = diffuse(x0, t, cs, rng.normal(x0.shape))
                got = float(np.var(x_t))
                want = (b * b - 1.0) * g_target + 1.0
                assert abs(got - want) / want < 0.02, (g_target, b, got, want)


class TestCriterion04GradientCheck:
    """Backprop vs central finite differences, 3 architectures x 5 batches."""

    ARCHS = [
        MlpArch(in_dim=3, hidden_dims=(8,), time_embed_dim=4),
        MlpArch(in_dim=4, hidden_dims=(16, 8), time_embed_dim=6, self_cond=True),
        MlpArch(in_dim=2, hidden_dims=(32,), time_embed_dim=8, self_cond=True),
    ]

    @staticmethod
    def _loss_and_grads(p, x, t, target, self_cond):
        cache = {}
        pred = mlp_forward(p, x, t, self_cond, cache=cache)
        diff = pred - target
        return float(np.mean(diff**2)), mlp_backward(p, cache, 2.0 * diff / diff.size)

    @pytest.mark.parametrize("arch", ARCHS, ids=["plain", "cond_sc", "sc"])
    @pytest.mark.parametrize("batch_seed", [0, 1, 2, 3, 4])
    def test_criterion_04_finite_differences(self, arch, batch_seed):
        p = init_params(arch, Rng(900 + batch_seed))
        rng = Rng(950 + batch_seed)
        for w in p.weights:
            w[...] = 0.5 * rng.normal(w.shape)
        for b in p.biases:
            b[...] = 0.1 * rng.normal(b.shape)

        x = rng.normal((6, arch.in_dim))
        t = rng.uniform((6,))
        target = rng.normal((6, arch.in_dim))
        sc = rng.normal((6, arch.in_dim)) if arch.self_cond else None
        _, grads = self._loss_and_grads(p, x, t, target, sc)

        param_list = p.arrays
        grad_list = grads.arrays
        picker = np.random.default_rng(batch_seed)
        h = 1e-5
        worst = 0.0
        for _ in range(100 // len(param_list) + 1):
            for arr, g_arr in zip(param_list, grad_list):
                idx = np.unravel_index(int(picker.integers(arr.size)), arr.shape)
                orig = arr[idx]
                arr[idx] = orig + h
                lp = self._loss_and_grads(p, x, t, target, sc)[0]
                arr[idx] = orig - h
                lm = self._loss_and_grads(p, x, t, target, sc)[0]
                arr[idx] = orig
                fd = (lp - lm) / (2.0 * h)
                rel = abs(fd - g_arr[idx]) / max(1.0, abs(fd), abs(g_arr[idx]))
                worst = max(worst, rel)
        assert worst < 1e-4


class TestCriterion05RedundancyMse:
    @pytest.mark.parametrize("g", [0.3, 0.5, 0.7, 0.9])
    def test_criterion_05_mse_decreases_with_rho(self, g):
        """More correlation means an easier denoising problem at every gamma."""
        rhos = (0.0, 0.25, 0.5, 0.75, 0.9, 0.99)
        vals = [GaussianOracle(ar1_covariance(32, r)).expected_mse(g) for r in rhos]
        assert all(a > b for a, b in zip(vals, vals[1:])), vals


class TestCriterion06OracleClosure:
    def test_criterion_06_covariance_error(self):
        """100 DDIM steps with exact eps reproduce Sigma within 0.10."""
        sigma = ar1_covariance(16, 0.9)
        samples = oracle_closure_samples(1.0)
        assert covariance_error(samples, sigma) < 0.10

    def test_criterion_06_unscaling(self):
        """With b = 0.5 the sampler's final unscaling restores data space."""
        sigma = ar1_covariance(16, 0.9)
        samples = oracle_closure_samples(0.5)
        assert covariance_error(samples, sigma) < 0.10


class TestCriterion07BestScaleStaircase:
    @pytest.mark.slow
    def test_criterion_07_best_scale_non_increasing_in_rho(self):
        """Oracle b-sweeps: more redundancy pushes the best input scale down."""
        scales = tuple(round(0.1 * k, 1) for k in range(1, 11))
        bests = []
        for rho in (0.0, 0.5, 0.9):
            spec = Config(
                sweep=SweepSettings(
                    schedules=("linear",), scales=scales, metric="covariance_error",
                    base_seed=7, oracle=True, n_eval=10000, normalize="off"),
                dataset=DatasetSpec(kind="gaussian_ar1", n_train=1, seed=0,
                                    dim=16, rho=rho),
                sampler=SamplerConfig(steps=100, seed=0),
            )
            result = run_sweep(spec)
            assert result.ok, result.rows
            bests.append(best_scale(result))
        assert bests[2] <= bests[1] <= bests[0], bests


@pytest.mark.golden
class TestCriterion08EndToEnd:
    @pytest.mark.slow  # runs the end_to_end_run fixture's 20k-step set-up
    def test_criterion_08_sw_ratio(self, end_to_end_run):
        """Trained samples beat the standard-normal baseline by > 3.3x in SW."""
        r = end_to_end_run
        ratio = r["sw"] / r["sw_base"]
        assert ratio < 0.3, (r["sw"], r["sw_base"], ratio)

        reference = json.loads(REFERENCE_PATH.read_text())
        assert r["sw"] == pytest.approx(reference["sw_model"], rel=1e-6)
        assert r["sw_base"] == pytest.approx(reference["sw_base"], rel=1e-6)
        assert r["final_loss"] == pytest.approx(reference["final_loss"], rel=1e-6)


@pytest.mark.golden
class TestCriterion09Determinism:
    def test_criterion_09_oracle_samples_bit_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_samples_csv(a, oracle_closure_samples(1.0))
        write_samples_csv(b, oracle_closure_samples(1.0))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.slow
    def test_criterion_09_trained_samples_bit_identical(self, tmp_path, end_to_end_run):
        """A from-scratch rerun of the whole recipe reproduces the same file."""
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_samples_csv(a, end_to_end_run["samples"])
        write_samples_csv(b, end_to_end_pipeline()["samples"])
        assert a.read_bytes() == b.read_bytes()


SCALAR_ARCH = MlpArch(in_dim=1, hidden_dims=(), time_embed_dim=2)


def scalar_layer(theta: float) -> DenoiserParams:
    """One linear layer whose only nonzero entry is W[0, 0] = theta."""
    return DenoiserParams(SCALAR_ARCH, np.array([theta, 0.0, 0.0, 0.0]))


def scalar_grads(g: float) -> DenoiserParams:
    return DenoiserParams(SCALAR_ARCH, np.array([g, 0.0, 0.0, 0.0]))


class TestCriterion10OptimizerExamples:
    CFG = TrainConfig(steps=10, batch_size=16, lr=1e-3, seed=0, weight_decay=0.0)

    def test_criterion_10_adam_zero_grad_fixed_point(self):
        p = scalar_layer(2.0)
        adam_step(p, scalar_grads(0.0), init_optimizer_state(p), self.CFG, lr=0.1)
        assert p.weights[0][0, 0] == 2.0

    def test_criterion_10_lamb_zero_grad_fixed_point(self):
        p = scalar_layer(2.0)
        lamb_step(p, scalar_grads(0.0), init_optimizer_state(p), self.CFG, lr=0.1)
        assert p.weights[0][0, 0] == 2.0

    def test_criterion_10_lamb_trust_ratio_homogeneity(self):
        """Scaling one layer by c scales that layer's update by c (wd = 0)."""
        arch = MlpArch(in_dim=2, hidden_dims=(4,), time_embed_dim=2)
        base = init_params(arch, Rng(30))
        for w in base.weights:
            w += 0.01  # keep every layer away from the trust-ratio guard
        scaled = clone_params(base)
        c = 3.0
        scaled.weights[0][...] *= c

        rng = Rng(31)
        grads = DenoiserParams(arch)
        for w in grads.weights:
            w[...] = rng.normal(w.shape)
        for b in grads.biases:
            b[...] = rng.normal(b.shape)
        before_b = [a.copy() for a in base.arrays]
        before_s = [a.copy() for a in scaled.arrays]
        lamb_step(base, grads, init_optimizer_state(base), self.CFG, lr=0.01)
        lamb_step(scaled, grads, init_optimizer_state(scaled), self.CFG, lr=0.01)
        np.testing.assert_allclose(
            scaled.arrays[0] - before_s[0],
            c * (base.arrays[0] - before_b[0]),
            rtol=1e-10,
        )

    def test_criterion_10_ema_geometric_series(self):
        """k pulls toward a constant from zero: ema = (1 - decay^k) * p."""
        decay = 0.9
        ema = scalar_layer(0.0)
        p = scalar_layer(2.0)
        for _ in range(10):
            ema_update(ema, p, decay)
        assert ema.weights[0][0, 0] == pytest.approx((1.0 - decay**10) * 2.0, rel=1e-12)
