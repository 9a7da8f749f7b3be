"""Training loop: loss contract, optimizers, EMA, LR decay, determinism."""

import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noiselab import training
from noiselab.cli import main as cli_main
from noiselab.config import parse_config
from noiselab.core import NonFiniteError, Rng, _openblas_thread_funcs
from noiselab.datasets import DatasetSpec, make_dataset
from noiselab.denoiser import (
    DenoiserParams,
    MlpArch,
    _layout,
    clone_params,
    init_params,
    mlp_backward,
    mlp_forward,
)
from noiselab.forward import (
    SELF_COND_CLAMP,
    CompoundSchedule,
    diffuse,
    normalize_input,
    _signal_estimate,
)
from noiselab.schedules import ScheduleSpec
from noiselab.training import (
    _Batches,
    TrainConfig,
    TrainingDiverged,
    _norm,
    adam_step,
    ema_update,
    init_optimizer_state,
    lamb_step,
    lr_at,
    train,
)

LINEAR_OFF = CompoundSchedule(schedule=ScheduleSpec.linear(), input_scale=1.0, normalize="off")


def tiny_cfg(**overrides) -> TrainConfig:
    base = dict(steps=10, batch_size=16, lr=1e-3, seed=0, log_every=1, hidden=(16, 16),
                time_embed=8)
    base.update(overrides)
    return TrainConfig(**base)


SCALAR_ARCH = MlpArch(in_dim=1, hidden_dims=(), time_embed_dim=2)


def scalar_layer_params(theta: float) -> DenoiserParams:
    """One linear layer; only W[0,0] is live, so norms reduce to scalars."""
    return DenoiserParams(SCALAR_ARCH, np.array([theta, 0.0, 0.0, 0.0]))


def scalar_layer_grads(g: float) -> DenoiserParams:
    return DenoiserParams(SCALAR_ARCH, np.array([g, 0.0, 0.0, 0.0]))


def batch_loss(x0, params, cs, rng, self_cond_rate=0.0):
    """One step of train on the batch x0: (loss, gradients, the batch's gamma)."""
    batches = _Batches(params.arch, cs, x0.shape[0], self_cond_rate, 1)
    batches.fill(rng.uniform((1, batches.draws)), x0[None])
    cache = {}
    loss, d = batches.loss(0, params, cache)
    return loss, mlp_backward(params, cache, d), batches.gamma[0]


class TestTrainLoss:
    """The loss of one training step, as train computes it."""

    def test_zero_net_baseline(self):
        """eps_hat = 0 makes the loss the mean of squared noise draws."""
        arch = MlpArch(in_dim=4, hidden_dims=(8,), time_embed_dim=4)
        params = init_params(arch, Rng(1))  # zero output layer
        x0 = Rng(2).normal((4096, 4))
        loss, _, _ = batch_loss(x0, params, LINEAR_OFF, Rng(3))
        assert loss == pytest.approx(1.0, abs=0.05)

    def test_deterministic(self):
        arch = MlpArch(in_dim=3, hidden_dims=(8,), time_embed_dim=4, self_cond=True)
        params = init_params(arch, Rng(4))
        params.weights[-1][...] = Rng(5).normal(params.weights[-1].shape) * 0.1
        x0 = Rng(6).normal((32, 3))
        a = batch_loss(x0, params, LINEAR_OFF, Rng(7), self_cond_rate=0.9)
        b = batch_loss(x0, params, LINEAR_OFF, Rng(7), self_cond_rate=0.9)
        assert a[0] == b[0]
        assert a[1].flat.tobytes() == b[1].flat.tobytes()

    def test_loss_non_negative(self):
        arch = MlpArch(in_dim=2, hidden_dims=(8,), time_embed_dim=4)
        params = init_params(arch, Rng(8))
        for seed in range(3):
            loss, _, _ = batch_loss(Rng(seed).normal((16, 2)), params, LINEAR_OFF, Rng(seed + 50))
            assert loss >= 0.0

    def test_gamma_stats_ordered(self):
        arch = MlpArch(in_dim=2, hidden_dims=(8,), time_embed_dim=4)
        params = init_params(arch, Rng(9))
        _, _, g = batch_loss(Rng(10).normal((64, 2)), params, LINEAR_OFF, Rng(11))
        assert 0.0 <= g.min() <= g.mean() <= g.max() <= 1.0

    def test_rejects_empty_batch(self):
        """Batches are drawn from the dataset, so train rejects an empty one at entry."""
        with pytest.raises(ValueError, match="nonempty"):
            train(np.zeros((0, 2)), LINEAR_OFF, tiny_cfg(hidden=(), time_embed=2))


class TestAdamStep:
    def test_zero_grads_zero_wd_identity(self):
        p = scalar_layer_params(2.0)
        st = init_optimizer_state(p)
        before = [a.copy() for a in p.arrays]
        adam_step(p, scalar_layer_grads(0.0), st, tiny_cfg(weight_decay=0.0), lr=0.1)
        for a, b in zip(p.arrays, before):
            np.testing.assert_array_equal(a, b)

    def test_first_step_is_signed_lr(self):
        """Bias correction makes m_hat/sqrt(v_hat) = sign(g) on step one."""
        p = scalar_layer_params(2.0)
        st = init_optimizer_state(p)
        adam_step(p, scalar_layer_grads(0.5), st, tiny_cfg(weight_decay=0.0), lr=0.01)
        assert p.weights[0][0, 0] == pytest.approx(2.0 - 0.01, abs=1e-7)

    def test_decoupled_decay_factor(self):
        """wd = 0.01, lr = 1, zero grads: parameters shrink by 0.99."""
        p = scalar_layer_params(2.0)
        st = init_optimizer_state(p)
        adam_step(p, scalar_layer_grads(0.0), st, tiny_cfg(weight_decay=0.01), lr=1.0)
        assert p.weights[0][0, 0] == pytest.approx(2.0 * 0.99, abs=1e-15)

    def test_state_mismatch_rejected(self):
        p = scalar_layer_params(1.0)
        other = init_params(MlpArch(in_dim=2, hidden_dims=(4,), time_embed_dim=2), Rng(0))
        st = init_optimizer_state(other)
        with pytest.raises(ValueError):
            adam_step(p, scalar_layer_grads(0.0), st, tiny_cfg(), lr=0.1)

    def test_step_counter_advances(self):
        p = scalar_layer_params(1.0)
        st = init_optimizer_state(p)
        adam_step(p, scalar_layer_grads(0.1), st, tiny_cfg(weight_decay=0.0), lr=0.01)
        adam_step(p, scalar_layer_grads(0.1), st, tiny_cfg(weight_decay=0.0), lr=0.01)
        assert st.step == 2


class TestLambStep:
    def test_zero_grads_zero_wd_guard(self):
        """r = 0 trips the trust-ratio guard; parameters stay put."""
        p = scalar_layer_params(2.0)
        st = init_optimizer_state(p)
        lamb_step(p, scalar_layer_grads(0.0), st, tiny_cfg(weight_decay=0.0), lr=0.1)
        assert p.weights[0][0, 0] == 2.0

    def test_scalar_hand_value(self):
        """theta = 2, g = 1, wd = 0: trust ratio 2, update exactly -2 lr."""
        p = scalar_layer_params(2.0)
        st = init_optimizer_state(p)
        lamb_step(p, scalar_layer_grads(1.0), st, tiny_cfg(weight_decay=0.0), lr=0.05)
        # trust * r = ||theta|| * sign(r) regardless of eps_opt
        assert p.weights[0][0, 0] == pytest.approx(2.0 - 2.0 * 0.05, abs=1e-12)

    @pytest.mark.parametrize("c", [0.5, 3.0])
    def test_trust_ratio_homogeneity(self, c):
        """Scaling a layer by c > 0 scales its update by c (wd = 0)."""
        arch = MlpArch(in_dim=2, hidden_dims=(4,), time_embed_dim=2)
        base = init_params(arch, Rng(30))
        for w in base.weights:
            w += 0.01  # no zero layers, so the guard stays out of the way
        scaled = clone_params(base)
        scaled.weights[0][...] *= c

        rng = Rng(31)
        grads = DenoiserParams(arch)
        for w in grads.weights:
            w[...] = rng.normal(w.shape)
        for b in grads.biases:
            b[...] = rng.normal(b.shape)
        cfg = tiny_cfg(weight_decay=0.0)
        before_b = [a.copy() for a in base.arrays]
        before_s = [a.copy() for a in scaled.arrays]
        lamb_step(base, grads, init_optimizer_state(base), cfg, lr=0.01)
        lamb_step(scaled, grads, init_optimizer_state(scaled), cfg, lr=0.01)
        upd_b = base.arrays[0] - before_b[0]
        upd_s = scaled.arrays[0] - before_s[0]
        np.testing.assert_allclose(upd_s, c * upd_b, rtol=1e-10)
        # untouched layers get identical updates in both copies
        np.testing.assert_allclose(
            scaled.arrays[2] - before_s[2],
            base.arrays[2] - before_b[2],
            rtol=1e-12,
        )

    def test_weight_decay_enters_r(self):
        """With zero grads, r = wd * theta, so theta moves toward zero."""
        p = scalar_layer_params(2.0)
        st = init_optimizer_state(p)
        lamb_step(p, scalar_layer_grads(0.0), st, tiny_cfg(weight_decay=0.01), lr=0.1)
        # r = 0.02, trust = 2 / 0.02 = 100, update = -0.1 * 100 * 0.02 = -0.2
        assert p.weights[0][0, 0] == pytest.approx(1.8, abs=1e-12)


def per_array_step(kind, arrays, grads, m, v, t, cfg, lr):
    """Reference: the per-array loop that the whole-vector optimizers replaced."""
    for a, g, mi, vi in zip(arrays, grads, m, v):
        mi[...] = cfg.beta1 * mi + (1.0 - cfg.beta1) * g
        vi[...] = cfg.beta2 * vi + (1.0 - cfg.beta2) * g * g
        mh = mi / (1.0 - cfg.beta1**t)
        vh = vi / (1.0 - cfg.beta2**t)
        if kind == "adam":
            a -= lr * mh / (np.sqrt(vh) + cfg.eps_opt)
            a -= lr * cfg.weight_decay * a
        else:
            r = mh / (np.sqrt(vh) + cfg.eps_opt) + cfg.weight_decay * a
            theta_norm, r_norm = float(np.linalg.norm(a)), float(np.linalg.norm(r))
            trust = 1.0 if theta_norm < 1e-12 or r_norm < 1e-12 else theta_norm / r_norm
            a -= lr * trust * r


class TestWholeVectorMatchesPerArrayLoop:
    """The flat-vector updates are bit-identical to the per-array loops."""

    ARCH = MlpArch(in_dim=2, hidden_dims=(8, 4), time_embed_dim=4, self_cond=True)

    @pytest.mark.parametrize("step_fn, kind", [(adam_step, "adam"), (lamb_step, "lamb")])
    def test_optimizer_steps(self, step_fn, kind):
        params = init_params(self.ARCH, Rng(40))
        ref = [a.copy() for a in params.arrays]
        m = [np.zeros_like(a) for a in ref]
        v = [np.zeros_like(a) for a in ref]
        state = init_optimizer_state(params)
        cfg = tiny_cfg(weight_decay=0.01)
        rng = Rng(41)
        for t in range(1, 4):
            grads = DenoiserParams(self.ARCH, rng.normal((params.flat.size,)))
            step_fn(params, grads, state, cfg, lr=0.01)
            per_array_step(kind, ref, grads.arrays, m, v, t, cfg, 0.01)
            for a, b in zip(params.arrays, ref):
                np.testing.assert_array_equal(a, b)

    def test_ema_update(self):
        ema = init_params(self.ARCH, Rng(42))
        params = DenoiserParams(self.ARCH, Rng(43).normal((ema.flat.size,)))
        ref = [a.copy() for a in ema.arrays]
        ema_update(ema, params, 0.999)
        for e, p in zip(ref, params.arrays):
            e *= 0.999
            e += (1.0 - 0.999) * p
        for a, b in zip(ema.arrays, ref):
            np.testing.assert_array_equal(a, b)


@st.composite
def archs(draw):
    """Small architectures, self-conditioning ones included."""
    return MlpArch(
        in_dim=draw(st.integers(1, 4)),
        hidden_dims=tuple(draw(st.lists(st.integers(1, 9), max_size=3))),
        time_embed_dim=draw(st.sampled_from([2, 4, 6])),
        self_cond=draw(st.booleans()),
    )


def random_params(arch: MlpArch, seed: int) -> DenoiserParams:
    """Entries on mixed scales, with every third array left at zero."""
    rng = Rng(seed)
    p = DenoiserParams(arch, rng.normal((_layout(arch)[1],)))
    for k, a in enumerate(p.arrays):
        a *= 0.0 if k % 3 == 2 else 10.0 ** (4.0 * rng.uniform() - 2.0)
    return p


class TestStepPiecesBitwise:
    """The reworked training step against references kept here."""

    @settings(max_examples=60, deadline=None)
    @given(arch=archs(), seed=st.integers(0, 2**32 - 1))
    def test_dot_norm_equals_linalg_norm(self, arch, seed):
        p = random_params(arch, seed)
        for (start, stop, _), a in zip(_layout(arch)[0], p.arrays):
            assert _norm(p.flat[start:stop]) == float(np.linalg.norm(a))

    @settings(max_examples=40, deadline=None)
    @given(arch=archs(), seed=st.integers(0, 2**32 - 1), wd=st.sampled_from([0.0, 0.01, 0.3]))
    def test_whole_vector_trust_update_equals_per_array_loop(self, arch, seed, wd):
        params = random_params(arch, seed)
        ref = [a.copy() for a in params.arrays]
        m = [np.zeros_like(a) for a in ref]
        v = [np.zeros_like(a) for a in ref]
        state = init_optimizer_state(params)
        cfg = tiny_cfg(weight_decay=wd)
        for t in range(1, 4):
            grads = random_params(arch, seed + 1 + t)
            lamb_step(params, grads, state, cfg, lr=0.01 * t)
            per_array_step("lamb", ref, grads.arrays, m, v, t, cfg, 0.01 * t)
            assert params.flat.tobytes() == np.concatenate([a.ravel() for a in ref]).tobytes()

    def test_reused_gradient_buffer_equals_fresh(self):
        """Three steps on a self-conditioning arch: every step overwrites the buffer."""
        arch = MlpArch(in_dim=2, hidden_dims=(8, 5), time_embed_dim=4, self_cond=True)
        params = {k: init_params(arch, Rng(51)) for k in ("fresh", "reused")}
        states = {k: init_optimizer_state(params[k]) for k in params}
        buffer = DenoiserParams(arch)
        cfg = tiny_cfg()
        for step in range(3):
            rng = Rng(52 + step)
            x, t, sc, target = rng.normal((6, 2)), rng.uniform((6,)), rng.normal((6, 2)), rng.normal((6, 2))
            grads = {}
            for k in params:
                cache = {}
                pred = mlp_forward(params[k], x, t, sc, cache=cache)
                d = 2.0 * (pred - target) / pred.size
                grads[k] = mlp_backward(params[k], cache, d, out=buffer if k == "reused" else None)
                lamb_step(params[k], grads[k], states[k], cfg, lr=0.05)
            assert grads["reused"] is buffer
            assert buffer.flat.tobytes() == grads["fresh"].flat.tobytes()
            assert params["reused"].flat.tobytes() == params["fresh"].flat.tobytes()

    def test_backward_out_must_match_layout(self):
        arch = MlpArch(in_dim=2, hidden_dims=(4,), time_embed_dim=2)
        p = init_params(arch, Rng(60))
        cache = {}
        mlp_forward(p, Rng(61).normal((5, 2)), 0.5, cache=cache)
        other = DenoiserParams(MlpArch(in_dim=2, hidden_dims=(5,), time_embed_dim=2))
        with pytest.raises(ValueError, match="layout"):
            mlp_backward(p, cache, np.ones((5, 2)), out=other)


class TestLayoutMismatch:
    """Arrays of another architecture are rejected, not zipped and truncated."""

    NARROW = MlpArch(in_dim=2, hidden_dims=(4,), time_embed_dim=2)
    WIDE = MlpArch(in_dim=2, hidden_dims=(5,), time_embed_dim=2)

    @pytest.mark.parametrize("step_fn", [adam_step, lamb_step], ids=["adam", "lamb"])
    def test_grads_of_another_arch_rejected(self, step_fn):
        # zip over the narrow grads would leave the wide params' tail unstepped
        params = init_params(self.WIDE, Rng(0))
        grads = init_params(self.NARROW, Rng(1))
        with pytest.raises(ValueError):
            step_fn(params, grads, init_optimizer_state(params), tiny_cfg(), lr=0.1)

    def test_ema_of_another_arch_rejected(self):
        ema = init_params(self.WIDE, Rng(0))
        with pytest.raises(ValueError):
            ema_update(ema, init_params(self.NARROW, Rng(1)), 0.9)


class TestEmaUpdate:
    def test_single_step_value(self):
        ema = scalar_layer_params(0.0)
        p = scalar_layer_params(1.0)
        ema_update(ema, p, 0.9999)
        assert ema.weights[0][0, 0] == pytest.approx(0.0001, abs=1e-15)

    def test_fixed_point(self):
        ema = scalar_layer_params(3.0)
        p = scalar_layer_params(3.0)
        ema_update(ema, p, 0.99)
        assert ema.weights[0][0, 0] == 3.0

    def test_geometric_series(self):
        """k pulls toward constant p from 0: ema = (1 - decay^k) p."""
        decay = 0.9
        ema = scalar_layer_params(0.0)
        p = scalar_layer_params(2.0)
        for _ in range(10):
            ema_update(ema, p, decay)
        want = (1.0 - decay**10) * 2.0
        assert ema.weights[0][0, 0] == pytest.approx(want, rel=1e-12)

    def test_bad_decay(self):
        with pytest.raises(ValueError):
            ema_update(scalar_layer_params(0.0), scalar_layer_params(1.0), 1.5)


class TestLrAt:
    def test_constant(self):
        cfg = tiny_cfg(steps=100, lr=0.5, lr_decay="constant")
        assert lr_at(0, cfg) == 0.5
        assert lr_at(50, cfg) == 0.5
        assert lr_at(100, cfg) == 0.5

    def test_cosine_endpoints(self):
        cfg = tiny_cfg(steps=1000, lr=0.2)
        assert lr_at(0, cfg) == pytest.approx(0.2, abs=1e-15)
        assert lr_at(700, cfg) == pytest.approx(0.0, abs=1e-15)
        assert lr_at(1000, cfg) == pytest.approx(0.0, abs=1e-15)

    def test_cosine_midpoint(self):
        """step = 0.35 steps is halfway through the 70% horizon."""
        cfg = tiny_cfg(steps=1000, lr=0.2)
        assert lr_at(350, cfg) == pytest.approx(0.1, abs=1e-12)

    def test_monotone_non_increasing(self):
        cfg = tiny_cfg(steps=200, lr=1.0)
        vals = [lr_at(s, cfg) for s in range(201)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        cfg = tiny_cfg(steps=10)
        with pytest.raises(ValueError):
            lr_at(11, cfg)
        with pytest.raises(ValueError):
            lr_at(-1, cfg)


class TestConfigValidation:
    def test_defaults_follow_reference_recipe(self):
        cfg = TrainConfig(steps=1, batch_size=1, lr=1e-3, seed=0)
        assert cfg.optimizer == "lamb"
        assert cfg.beta1 == 0.9 and cfg.beta2 == 0.999
        assert cfg.weight_decay == 0.01
        assert cfg.ema_decay == 0.9999
        assert cfg.self_cond_rate == 0.9
        assert cfg.lr_decay == "cosine_first_fraction"
        assert cfg.lr_decay_fraction == 0.7

    @pytest.mark.parametrize(
        "bad",
        [
            dict(steps=-1),
            dict(batch_size=0),
            dict(lr=0.0),
            dict(optimizer="sgd"),
            dict(lr_decay="linear"),
            dict(lr_decay_fraction=0.0),
            dict(beta1=1.0),
            dict(eps_opt=0.0),
            dict(weight_decay=-0.1),
            dict(ema_decay=1.1),
            dict(self_cond_rate=-0.1),
            dict(self_cond_rate=1.5),
            dict(log_every=0),
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            tiny_cfg(**bad)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["lr", "eps_opt", "weight_decay"])
    def test_rejects_non_finite(self, name, value):
        # nan passes a bare "< 0" test and reaches the first step as nan params
        with pytest.raises(ValueError, match=f"{name} must be .*finite"):
            tiny_cfg(**{name: value})


class TestTrainLoop:
    ARCH = tiny_cfg().arch(2)

    def small_data(self):
        spec = DatasetSpec(kind="mixture2d", n_train=512, seed=5, modes=2, radius=1.0, std=0.2)
        return make_dataset(spec)

    def test_steps_zero_returns_init(self):
        data = self.small_data()
        cfg = tiny_cfg(steps=0)
        params, ema, history = train(data, LINEAR_OFF, cfg)
        fresh = init_params(self.ARCH, Rng(cfg.seed))
        for a, b in zip(params.arrays, fresh.arrays):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(params.arrays, ema.arrays):
            np.testing.assert_array_equal(a, b)
        assert history == []

    def test_steps_run_on_one_blas_thread(self, monkeypatch):
        funcs = _openblas_thread_funcs()
        if funcs is None:
            pytest.skip("numpy's OpenBLAS is not reachable, so the thread count cannot be set")
        get, set_ = funcs
        seen, step = [], training.lamb_step
        monkeypatch.setattr(training, "lamb_step", lambda *args: seen.append(get()) or step(*args))
        old = get()
        set_(2)
        try:
            train(self.small_data(), LINEAR_OFF, tiny_cfg(steps=3))
            after = get()
        finally:
            set_(old)
        assert seen == [1, 1, 1]
        assert after == 2  # the caller's count is back

    def test_bit_exact_determinism(self):
        data = self.small_data()
        cfg = tiny_cfg(steps=25, seed=9)
        p1, e1, h1 = train(data, LINEAR_OFF, cfg)
        p2, e2, h2 = train(data, LINEAR_OFF, cfg)
        assert h1 == h2
        for a, b in zip(p1.arrays, p2.arrays):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(e1.arrays, e2.arrays):
            np.testing.assert_array_equal(a, b)

    def test_seed_changes_history(self):
        data = self.small_data()
        h1 = train(data, LINEAR_OFF, tiny_cfg(steps=10, seed=1))[2]
        h2 = train(data, LINEAR_OFF, tiny_cfg(steps=10, seed=2))[2]
        assert [r[1] for r in h1] != [r[1] for r in h2]

    def test_history_schedule(self):
        data = self.small_data()
        cfg = tiny_cfg(steps=25, log_every=10)
        history = train(data, LINEAR_OFF, cfg)[2]
        assert [row[0] for row in history] == [10, 20, 25]
        for _, loss, lr in history:
            assert loss >= 0.0 and lr >= 0.0

    def test_ema_in_convex_hull(self):
        """Per coordinate, EMA stays between the extremes of raw params."""
        data = self.small_data()
        cfg = tiny_cfg(steps=30, ema_decay=0.5, seed=3, hidden=(8,), time_embed=4)
        arch = cfg.arch(2)

        # replay: track raw params per step by training step-by-step
        lo = [a.copy() for a in init_params(arch, Rng(cfg.seed)).arrays]
        hi = [a.copy() for a in lo]
        params, ema, _ = train(data, LINEAR_OFF, cfg)
        # bounds from a parallel manual run
        rng = Rng(cfg.seed)
        manual = init_params(arch, rng)
        from noiselab.training import init_optimizer_state as init_st
        from noiselab.training import lamb_step as step_fn

        st = init_st(manual)
        n = data.shape[0]
        for step in range(cfg.steps):
            lr = lr_at(step, cfg)
            idx = rng.integers(n, (cfg.batch_size,))
            _, grads, _ = step_loop_loss(data[idx], manual, LINEAR_OFF, rng, cfg.self_cond_rate)
            step_fn(manual, grads, st, cfg, lr)
            for j, a in enumerate(manual.arrays):
                lo[j] = np.minimum(lo[j], a)
                hi[j] = np.maximum(hi[j], a)
        for j, e in enumerate(ema.arrays):
            assert np.all(e >= lo[j] - 1e-12)
            assert np.all(e <= hi[j] + 1e-12)

    def test_divergence_aborts_with_diagnostics(self):
        # lr large enough that squared predictions overflow float64 on
        # the very next loss evaluation, step 1, the second of its block
        data = self.small_data()
        cfg = tiny_cfg(steps=5, lr=1e154, optimizer="adam", weight_decay=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged) as ref:
                step_loop_train(data, LINEAR_OFF, cfg)
            with pytest.raises(TrainingDiverged) as got:
                train(data, LINEAR_OFF, cfg)
        assert str(ref.value).startswith("non-finite loss at step 1 (lr ")
        assert _Batches(self.ARCH, LINEAR_OFF, cfg.batch_size, 0.0, cfg.steps).k == 5
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_dataset_fails_at_entry(self, bad, monkeypatch):
        data = self.small_data()
        data[7, 1] = bad
        monkeypatch.setattr(training, "_Batches", None)  # nothing is drawn or built
        with pytest.raises(NonFiniteError, match=r"^train dataset: non-finite values encountered$"):
            train(data, LINEAR_OFF, tiny_cfg())


def step_loop_loss(x0, params, cs, rng, self_cond_rate):
    """One training step's (loss, gradients, gamma) from per-batch calls that draw
    and build one batch in stream order."""
    arch = params.arch
    t = rng.uniform((x0.shape[0],))
    eps = rng.normal(x0.shape)
    x_t, g = diffuse(x0, t, cs, eps)
    x_in = normalize_input(x_t, g, cs)
    self_cond = None
    if arch.self_cond and self_cond_rate > 0.0:
        coin = float(rng.uniform((1,))[0])
        if coin < self_cond_rate:
            est = _signal_estimate(x_t, g[:, None], mlp_forward(params, x_in, t))
            self_cond = np.clip(est, -SELF_COND_CLAMP, SELF_COND_CLAMP)
    cache = {}
    pred = mlp_forward(params, x_in, t, self_cond, cache=cache)
    diff = pred - eps
    loss = float((diff * diff).mean())
    return loss, mlp_backward(params, cache, 2.0 * diff / diff.size), g


def step_loop_train(dataset, cs, cfg):
    """The reference for train: each step draws and builds its own batch, then updates."""
    rng = Rng(cfg.seed)
    params = init_params(cfg.arch(dataset.shape[1]), rng)
    ema = clone_params(params)
    state = init_optimizer_state(params)
    step_fn = adam_step if cfg.optimizer == "adam" else lamb_step
    history = []
    for step in range(cfg.steps):
        lr = lr_at(step, cfg)
        x0 = dataset.take(rng.integers(dataset.shape[0], (cfg.batch_size,)), axis=0)
        loss, grads, g = step_loop_loss(x0, params, cs, rng, cfg.self_cond_rate)
        if not math.isfinite(loss):
            raise TrainingDiverged(
                f"non-finite loss at step {step} (lr {lr:.6g}, batch gamma "
                f"min {g.min():.6g} mean {g.mean():.6g} max {g.max():.6g})"
            )
        step_fn(params, grads, state, cfg, lr)
        ema_update(ema, params, cfg.ema_decay)
        if (step + 1) % cfg.log_every == 0 or step == cfg.steps - 1:
            history.append((step + 1, loss, lr))
    return params, ema, history


def outcome(fn, *args):
    """fn's result as bytes, or its exception's type and message."""
    try:
        params, ema, history = fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return params.flat.tobytes(), ema.flat.tobytes(), history


SCHEDULES = [ScheduleSpec.linear(), ScheduleSpec.cosine(0.2, 1.0, 1.5),
             ScheduleSpec.sigmoid(-3.0, 3.0, 1.1)]


class TestBlockTrainingEqualsStepLoop:
    """train, built a block of steps at a time, against the step loop kept here."""

    @settings(max_examples=100, deadline=None)
    @given(
        hidden=st.lists(st.sampled_from([3, 8]), max_size=2),
        self_cond=st.booleans(),
        normalize=st.sampled_from(["off", "empirical", "analytic"]),
        schedule=st.sampled_from(SCHEDULES),
        batch=st.sampled_from([1, 3, 7]),
        dim=st.sampled_from([1, 3]),
        n_rows=st.sampled_from([1, 40]),
        budget=st.sampled_from([1, 1500, 4000]),
        around=st.sampled_from([(1, -1), (1, 0), (1, 1), (2, 1)]),
        optimizer=st.sampled_from(["adam", "lamb"]),
        seed=st.integers(0, 2**16),
    )
    def test_train_equals_step_loop(self, hidden, self_cond, normalize, schedule, batch, dim,
                                    n_rows, budget, around, optimizer, seed):
        arch = MlpArch(in_dim=dim, hidden_dims=tuple(hidden), time_embed_dim=4,
                       self_cond=self_cond)
        cs = CompoundSchedule(schedule, 0.5, normalize)
        data = Rng(seed).normal((n_rows, dim))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(training, "_BLOCK_BYTES", budget)
            k = _Batches(arch, cs, batch, 0.5, 10**9).k
            times, extra = around
            cfg = TrainConfig(steps=times * k + extra, batch_size=batch, lr=0.01, seed=seed,
                              optimizer=optimizer, self_cond_rate=0.5, ema_decay=0.9,
                              log_every=2, hidden=tuple(hidden), time_embed=4,
                              self_cond=self_cond)
            assert outcome(train, data, cs, cfg) == outcome(step_loop_train, data, cs, cfg)


class TestTrainingQuality:
    """Slow checks that learning actually happens."""

    def test_two_mode_mixture_reference_run(self):
        """5k steps on the two-mode mixture beats the zero-net baseline."""
        spec = DatasetSpec(kind="mixture2d", n_train=8192, seed=5, modes=2, radius=1.0, std=0.2)
        data = make_dataset(spec)
        cfg = TrainConfig(steps=5000, batch_size=128, lr=3e-3, seed=7, log_every=10)
        _, _, history = train(data, LINEAR_OFF, cfg)
        losses = [row[1] for row in history]
        k = max(1, len(losses) // 10)
        assert float(np.mean(losses[-k:])) < 0.5  # zero net scores ~1.0
        assert float(np.mean(losses[-k:])) < float(np.mean(losses[:k]))


GOLDEN_DATASET = """
[dataset]
kind = mixture2d
n_train = 8192
seed = 101
modes = 8
radius = 1.0
std = 0.2
"""

# The criterion-08 recipe cut to 200 steps, and a self-conditioning Adam
# variant on a scaled, normalized cosine schedule.
GOLDEN_RUNS = {
    "criterion08_200": GOLDEN_DATASET + """
[compound]
schedule = linear
input_scale = 1.0
normalize = off

[train]
steps = 200
batch_size = 128
lr = 0.003
seed = 7
optimizer = lamb
ema_decay = 0.999
log_every = 50
hidden = 64 64
time_embed = 16
""",
    "self_cond_adam_100": GOLDEN_DATASET + """
[compound]
schedule = cosine:0.2,1,1
input_scale = 0.5
normalize = analytic

[train]
steps = 100
batch_size = 128
lr = 0.003
seed = 7
optimizer = adam
ema_decay = 0.999
log_every = 50
hidden = 64 64
time_embed = 16
self_cond = true
""",
    # Each step draws 21 normals, so Box-Muller drops a trailing draw;
    # the 613 steps are more than one block and not a multiple of it.
    "sigmoid_empirical_self_cond_lamb_613": """
[dataset]
kind = gaussian_ar1
n_train = 500
seed = 13
dim = 3
rho = 0.6

[compound]
schedule = sigmoid:-3,3,1.1
input_scale = 0.7
normalize = empirical

[train]
steps = 613
batch_size = 7
lr = 0.002
seed = 23
optimizer = lamb
lr_decay = constant
ema_decay = 0.99
log_every = 50
hidden = 32 32
time_embed = 8
self_cond = true
""",
    # shorter than one block
    "short_cosine_adam_5": """
[dataset]
kind = mixture2d
n_train = 1024
seed = 101
modes = 8
radius = 1.0
std = 0.2

[compound]
schedule = cosine:0,1,1
input_scale = 1.0
normalize = off

[train]
steps = 5
batch_size = 32
lr = 0.003
seed = 7
optimizer = adam
ema_decay = 0.9
log_every = 2
hidden = 64 64
time_embed = 16
""",
}

# sha256 of each artifact, recorded before the training step was reworked
# to reuse its buffers (the last two before batches were built a block of
# steps at a time). A change here means training moved by at least one
# bit. config.txt pins the written run file, the retired
# class-conditioning keys at their neutral values included.
GOLDEN_DIGESTS = {
    "criterion08_200": {
        "params.bin": "0af3728b25caf34de310531be2dd7f0a8188a96617349173362ba9a0bf2ce34d",
        "ema.bin": "f4e6e5b79ea6eb25e0cc542e2b98e0e79388f72074e54166b16630b1a5c667f4",
        "loss.csv": "f5850d19d0c0a81053043c54205acb167e94db4f7a15feaeda63f93b8cab2d9b",
        "config.txt": "f11447ad785268943be0b53e7768bf7ecd4c6477aa3776f1951486467f3d9250",
    },
    "self_cond_adam_100": {
        "params.bin": "d751f21abd00309c127653597783f6277c452b63d78a7a1deb01218ece418c4b",
        "ema.bin": "42c0a2c5ae658d20e2bae13617cd1236e8ae2dbdb4d763affa73bb59f5bc8b53",
        "loss.csv": "3af560146aaefcb619595f52cdd60c7ab1bd2997ffbe304d44e14ddb89954c96",
        "config.txt": "9bdbd31925146ee8c9aafb01812e965a70ef7d52b627ea54253aaa007deb6cab",
    },
    "sigmoid_empirical_self_cond_lamb_613": {
        "params.bin": "3c8301eac61ad9b3f4d1872955e64698c338e6efdded5d077bff179d8f7672fe",
        "ema.bin": "0561173fc111e3980cc5986ce32d78511600e498f9389eb06e4be0eb2fef8b53",
        "loss.csv": "46ec6a685091aa8978bbd5fdcde8cbff2046d1c8512711b60bde5a461258ffb2",
        "config.txt": "6175354351b8e2cc2d59660002ab9bfc4c304dfa3a669f5a7930253458e5f813",
    },
    "short_cosine_adam_5": {
        "params.bin": "886a704b5f4d79b297e83389787b7cca91fd4fd63724068cdc31af6d3b56d5e6",
        "ema.bin": "7cc80ac4c7193f6fa97d0991346cace158e3d9937a0d31ee200e3e26c30196fa",
        "loss.csv": "a32298f3e760e39a3cedb7de1ad88ced888eff987e08a01ae4419b9607a58bbe",
        "config.txt": "90696abac5c53324d4d1b0fd9cbddbd22f8260e124d19a88c0ce2b4b8957a552",
    },
}


@pytest.mark.golden
class TestGoldenTrainingBits:
    """`noiselab train` reproduces recorded artifacts byte for byte."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_artifact_digests(self, name, tmp_path):
        cfg = tmp_path / "run.txt"
        cfg.write_text(GOLDEN_RUNS[name])
        out = tmp_path / "out"
        assert cli_main(["train", "--config", str(cfg), "--out-dir", str(out)],
                        stdout=io.StringIO()) == 0
        digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
                   for f in GOLDEN_DIGESTS[name]}
        assert digests == GOLDEN_DIGESTS[name]

    @pytest.mark.parametrize("name, blocks", [
        ("sigmoid_empirical_self_cond_lamb_613", "several"),
        ("short_cosine_adam_5", "part of one"),
    ])
    def test_runs_straddle_the_block_size(self, name, blocks, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text(GOLDEN_RUNS[name])
        cfg = parse_config(path)
        arch = cfg.train.arch(cfg.dataset.data_dim)
        k = _Batches(arch, cfg.compound, cfg.train.batch_size, cfg.train.self_cond_rate, 10**9).k
        steps = cfg.train.steps
        assert (k < steps and steps % k != 0) if blocks == "several" else steps < k
