"""MLP forward/backward correctness, embeddings, the flat layout, and serialization."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noiselab import denoiser
from noiselab.core import Rng, sigmoid
from noiselab.denoiser import (
    DenoiserParams,
    MlpArch,
    clone_params,
    init_params,
    load_params,
    mlp_backward,
    mlp_forward,
    save_params,
    time_embedding,
)

GRAD_CHECK_ARCHS = [
    MlpArch(in_dim=3, hidden_dims=(8,), time_embed_dim=4),
    MlpArch(in_dim=4, hidden_dims=(16, 8), time_embed_dim=6, self_cond=True),
    MlpArch(in_dim=2, hidden_dims=(32,), time_embed_dim=8, self_cond=True),
]


def randomized_params(arch: MlpArch, seed: int) -> DenoiserParams:
    """Params with every array non-degenerate (zero init would hide bugs)."""
    p = init_params(arch, Rng(seed))
    rng = Rng(seed + 1)
    for w in p.weights:
        w[...] = 0.5 * rng.normal(w.shape)
    for b in p.biases:
        b[...] = 0.1 * rng.normal(b.shape)
    return p


def batch_for(arch: MlpArch, n: int, seed: int):
    rng = Rng(seed)
    x = rng.normal((n, arch.in_dim))
    t = rng.uniform((n,))
    target = rng.normal((n, arch.in_dim))
    self_cond = rng.normal((n, arch.in_dim)) if arch.self_cond else None
    return x, t, target, self_cond


def mse_loss_and_grads(p, x, t, target, self_cond):
    cache = {}
    pred = mlp_forward(p, x, t, self_cond, cache=cache)
    diff = pred - target
    loss = float(np.mean(diff**2))
    grads = mlp_backward(p, cache, 2.0 * diff / diff.size)
    return loss, grads


class TestTimeEmbedding:
    """Sinusoidal time features."""

    def test_t_zero(self):
        emb = time_embedding(np.array([0.0]), 8)
        np.testing.assert_array_equal(emb[0, :4], np.zeros(4))
        np.testing.assert_array_equal(emb[0, 4:], np.ones(4))

    def test_shape(self):
        assert time_embedding(np.linspace(0, 1, 7), 16).shape == (7, 16)

    def test_distinct_times_distinct_embeddings(self):
        emb = time_embedding(np.array([0.3, 0.7]), 16)
        assert np.max(np.abs(emb[0] - emb[1])) > 1e-6

    def test_frequency_range(self):
        """Highest frequency resolves small dt; lowest stays smooth."""
        emb = time_embedding(np.array([0.0, 1e-3]), 16)
        assert np.max(np.abs(emb[0] - emb[1])) > 0.5  # fast component moved
        assert abs(emb[0, 0] - emb[1, 0]) < 2e-3  # slow component barely

    @pytest.mark.parametrize("dim", [0, 3, 7])
    def test_odd_dim_rejected(self, dim):
        with pytest.raises(ValueError):
            time_embedding(np.array([0.5]), dim)

    def test_deterministic(self):
        t = np.linspace(0, 1, 5)
        np.testing.assert_array_equal(time_embedding(t, 12), time_embedding(t, 12))

    @pytest.mark.parametrize("dim", [2, 4, 16])
    def test_cached_frequencies_match_formula_and_are_read_only(self, dim):
        k = dim // 2
        ref = np.exp(np.linspace(0.0, np.log(1.0e4), k)) if k > 1 else np.ones(1)
        freqs = denoiser._frequencies(k)
        assert freqs.tobytes() == ref.tobytes()
        assert denoiser._frequencies(k) is freqs
        assert not freqs.flags.writeable
        with pytest.raises(ValueError):
            freqs[0] = 2.0
        t = np.array([0.0, 0.25, 1.0])
        ang = t[:, None] * ref[None, :]
        expected = np.concatenate([np.sin(ang), np.cos(ang)], axis=1)
        assert time_embedding(t, dim).tobytes() == expected.tobytes()

    def test_writing_into_a_returned_embedding_leaves_the_next_call_alone(self):
        t = np.linspace(0, 1, 5)
        first = time_embedding(t, 16)
        expected = first.copy()
        first[...] = 7.0
        assert time_embedding(t, 16).tobytes() == expected.tobytes()
        row = time_embedding(np.float64(0.5), 16)
        row[...] = -1.0
        assert time_embedding(np.float64(0.5), 16)[0, 0] != -1.0


class TestForward:
    """Forward-pass contract."""

    def test_zero_params_zero_output(self):
        arch = MlpArch(in_dim=3, hidden_dims=(8,), time_embed_dim=4)
        p = init_params(arch, Rng(0))
        for w in p.weights:
            w[:] = 0.0
        out = mlp_forward(p, Rng(1).normal((5, 3)), 0.3)
        np.testing.assert_array_equal(out, np.zeros((5, 3)))

    def test_fresh_init_outputs_zero(self):
        """Zero-initialized output layer: training starts at eps_hat = 0."""
        arch = MlpArch(in_dim=2, hidden_dims=(16, 16), time_embed_dim=8)
        p = init_params(arch, Rng(3))
        out = mlp_forward(p, Rng(4).normal((9, 2)), 0.7)
        np.testing.assert_array_equal(out, np.zeros((9, 2)))

    def test_output_shape(self):
        arch = MlpArch(in_dim=5, hidden_dims=(8, 8), time_embed_dim=4)
        p = randomized_params(arch, 0)
        assert mlp_forward(p, Rng(2).normal((7, 5)), 0.5).shape == (7, 5)

    def test_deterministic(self):
        arch = GRAD_CHECK_ARCHS[1]
        p = randomized_params(arch, 5)
        x, t, _, sc = batch_for(arch, 6, 11)
        a = mlp_forward(p, x, t, sc)
        b = mlp_forward(p, x, t, sc)
        np.testing.assert_array_equal(a, b)

    def test_single_weight_hand_gradient(self):
        """out = w * x for a bare linear layer: dL/dw = 2 x (w x - e)."""
        arch = MlpArch(in_dim=1, hidden_dims=(), time_embed_dim=2)
        # W[0, 0] = 1 is the x column; time-feature columns and the bias stay zero
        p = DenoiserParams(arch, np.array([1.0, 0.0, 0.0, 0.0]))
        x = np.array([[2.0]])
        target = np.array([[1.0]])
        loss, grads = mse_loss_and_grads(p, x, 0.0, target, None)
        assert loss == pytest.approx(1.0, abs=1e-15)
        assert grads.weights[0][0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_unconditional_rejects_labels(self):
        arch = GRAD_CHECK_ARCHS[0]
        p = randomized_params(arch, 1)
        x, t, _, _ = batch_for(arch, 4, 2)
        with pytest.raises(TypeError):
            mlp_forward(p, x, t, labels=np.array([0, 0, 0, 0]))


class TestSelfConditioning:
    """The self-conditioning slice behaves as an optional extra input."""

    def test_zero_slice_weights_match_plain_arch(self):
        """Zeroed self-cond columns reproduce the unconditioned forward."""
        sc_arch = MlpArch(in_dim=3, hidden_dims=(8, 8), time_embed_dim=4, self_cond=True)
        plain_arch = MlpArch(in_dim=3, hidden_dims=(8, 8), time_embed_dim=4, self_cond=False)
        p_sc = randomized_params(sc_arch, 21)
        p_sc.weights[0][plain_arch.input_width :, :] = 0.0
        p_plain = DenoiserParams(plain_arch)
        for dst, src in zip(p_plain.arrays, p_sc.arrays):
            dst[...] = src[: dst.shape[0]]
        x, t = Rng(1).normal((5, 3)), Rng(2).uniform((5,))
        estimate = Rng(3).normal((5, 3))
        np.testing.assert_array_equal(
            mlp_forward(p_sc, x, t, self_cond=estimate),
            mlp_forward(p_plain, x, t),
        )

    def test_fresh_init_ignores_estimate(self):
        """init_params zeroes the slice, so any estimate is a no-op at start."""
        arch = MlpArch(in_dim=2, hidden_dims=(8,), time_embed_dim=4, self_cond=True)
        p = init_params(arch, Rng(5))
        p.weights[-1][...] = Rng(6).normal(p.weights[-1].shape)  # make output nonzero
        x, t = Rng(7).normal((4, 2)), 0.4
        np.testing.assert_array_equal(
            mlp_forward(p, x, t, self_cond=Rng(8).normal((4, 2))),
            mlp_forward(p, x, t, self_cond=None),
        )

    def test_none_means_zeros(self):
        arch = MlpArch(in_dim=2, hidden_dims=(8,), time_embed_dim=4, self_cond=True)
        p = randomized_params(arch, 13)
        x, t = Rng(1).normal((4, 2)), 0.2
        np.testing.assert_array_equal(
            mlp_forward(p, x, t, self_cond=None),
            mlp_forward(p, x, t, self_cond=np.zeros((4, 2))),
        )

    def test_plain_arch_rejects_estimate(self):
        arch = MlpArch(in_dim=2, hidden_dims=(8,), time_embed_dim=4)
        p = randomized_params(arch, 1)
        with pytest.raises(ValueError):
            mlp_forward(p, Rng(0).normal((3, 2)), 0.5, self_cond=np.zeros((3, 2)))


class TestGradientCheck:
    """Backward pass against central finite differences.

    Relative error is measured against max(1, |fd|, |bp|); threshold 1e-4.
    """

    @pytest.mark.parametrize("arch", GRAD_CHECK_ARCHS, ids=["plain", "cond_sc", "sc"])
    @pytest.mark.parametrize("batch_seed", [0, 1, 2, 3, 4])
    def test_finite_differences(self, arch, batch_seed):
        p = randomized_params(arch, 100 + batch_seed)
        x, t, target, sc = batch_for(arch, 6, 200 + batch_seed)
        _, grads = mse_loss_and_grads(p, x, t, target, sc)

        param_list = p.arrays
        grad_list = grads.arrays
        picker = np.random.default_rng(batch_seed)
        h = 1e-5
        worst = 0.0
        for _ in range(100 // len(param_list) + 1):
            for arr, g_arr in zip(param_list, grad_list):
                flat_idx = int(picker.integers(arr.size))
                idx = np.unravel_index(flat_idx, arr.shape)
                orig = arr[idx]
                arr[idx] = orig + h
                lp = mse_loss_and_grads(p, x, t, target, sc)[0]
                arr[idx] = orig - h
                lm = mse_loss_and_grads(p, x, t, target, sc)[0]
                arr[idx] = orig
                fd = (lp - lm) / (2.0 * h)
                bp = g_arr[idx]
                rel = abs(fd - bp) / max(1.0, abs(fd), abs(bp))
                worst = max(worst, rel)
        assert worst < 1e-4


class TestArchValidation:
    def test_bad_dims(self):
        with pytest.raises(ValueError):
            MlpArch(in_dim=0, hidden_dims=(8,))
        with pytest.raises(ValueError):
            MlpArch(in_dim=2, hidden_dims=(0,))
        with pytest.raises(ValueError):
            MlpArch(in_dim=2, hidden_dims=(8,), time_embed_dim=5)

    def test_input_width(self):
        arch = MlpArch(in_dim=3, hidden_dims=(8,), time_embed_dim=4, self_cond=True)
        assert arch.input_width == 3 + 4 + 3


class TestSerialization:
    """Binary round trip and corruption handling."""

    @pytest.mark.parametrize("arch", GRAD_CHECK_ARCHS, ids=["plain", "cond_sc", "sc"])
    def test_round_trip(self, arch, tmp_path):
        p = randomized_params(arch, 77)
        path = tmp_path / "params.bin"
        save_params(path, p)
        q = load_params(path)
        assert q.arch == p.arch
        for a, b in zip(p.arrays, q.arrays):
            np.testing.assert_array_equal(a, b)

    def test_header_is_ascii_line(self, tmp_path):
        p = randomized_params(GRAD_CHECK_ARCHS[0], 1)
        path = tmp_path / "params.bin"
        save_params(path, p)
        first = path.read_bytes().split(b"\n", 1)[0].decode("ascii")
        assert first.startswith("mlp1 ")

    def test_truncated_payload_rejected(self, tmp_path):
        p = randomized_params(GRAD_CHECK_ARCHS[0], 1)
        path = tmp_path / "params.bin"
        save_params(path, p)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError):
            load_params(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "params.bin"
        path.write_bytes(b"not-a-params-file\n" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_params(path)

    @pytest.mark.parametrize("classes", ["3", "0", "x"])
    def test_class_conditional_header_rejected(self, classes, tmp_path):
        """A checkpoint with a class table is refused, whatever its payload."""
        path = tmp_path / "params.bin"
        save_params(path, randomized_params(GRAD_CHECK_ARCHS[0], 1))
        blob = path.read_bytes().replace(b"classes=-", b"classes=" + classes.encode(), 1)
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="class-conditional checkpoints are no longer"):
            load_params(path)

    def test_header_without_classes_field_rejected(self, tmp_path):
        path = tmp_path / "params.bin"
        save_params(path, randomized_params(GRAD_CHECK_ARCHS[0], 1))
        path.write_bytes(path.read_bytes().replace(b" classes=-", b"", 1))
        with pytest.raises(ValueError, match="bad params header"):
            load_params(path)


GOLDEN_HEADERS = [
    (MlpArch(in_dim=3, hidden_dims=(8,), time_embed_dim=4),
     "mlp1 in=3 hidden=8 time_embed=4 classes=- self_cond=0"),
    (MlpArch(in_dim=2, hidden_dims=(16, 8), time_embed_dim=6),
     "mlp1 in=2 hidden=16,8 time_embed=6 classes=- self_cond=0"),
    (MlpArch(in_dim=2, hidden_dims=(32,), time_embed_dim=8, self_cond=True),
     "mlp1 in=2 hidden=32 time_embed=8 classes=- self_cond=1"),
]


class TestFileFormat:
    """params.bin is the header line, then weights and bias per layer."""

    @pytest.mark.golden
    @pytest.mark.parametrize("arch, header", GOLDEN_HEADERS, ids=["plain", "cond", "sc"])
    def test_golden_bytes(self, arch, header, tmp_path):
        widths = [arch.input_width, *arch.hidden_dims, arch.in_dim]
        rng = Rng(3)
        p = init_params(arch, Rng(0))
        expected = [header.encode("ascii") + b"\n"]
        for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            w = rng.normal((fan_in, fan_out))
            b = rng.normal((fan_out,))
            p.weights[i][...] = w
            p.biases[i][...] = b
            expected += [w.astype("<f8").tobytes(), b.astype("<f8").tobytes()]
        path = tmp_path / "params.bin"
        save_params(path, p)
        assert path.read_bytes() == b"".join(expected)


@st.composite
def mlp_archs(draw, max_width=6):
    return MlpArch(
        in_dim=draw(st.integers(1, 4)),
        hidden_dims=tuple(draw(st.lists(st.integers(1, max_width), max_size=3))),
        time_embed_dim=draw(st.sampled_from([2, 4, 6])),
        self_cond=draw(st.booleans()),
    )


class TestFlatLayoutProperties:
    """Invariants of the one flat parameter vector, over random architectures."""

    @given(arch=mlp_archs())
    def test_views_tile_flat_once_in_order(self, arch):
        p = DenoiserParams(arch)
        p.flat[:] = np.arange(p.flat.size)
        pairs = [a for wb in zip(p.weights, p.biases) for a in wb]
        assert [id(a) for a in p.arrays] == [id(a) for a in pairs]
        assert all(np.shares_memory(a, p.flat) for a in p.arrays)
        np.testing.assert_array_equal(
            np.concatenate([a.ravel() for a in p.arrays]), np.arange(p.flat.size)
        )
        assert [w.shape for w in p.weights] == arch.layer_dims()

    @settings(max_examples=50)
    @given(arch=mlp_archs(), seed=st.integers(0, 2**32 - 1))
    def test_save_load_round_trip_is_bitwise(self, arch, seed, tmp_path_factory):
        p = DenoiserParams(arch)
        p.flat[:] = np.random.default_rng(seed).normal(size=p.flat.size)
        path = tmp_path_factory.mktemp("params") / "params.bin"
        save_params(path, p)
        q = load_params(path)
        assert q.arch == arch
        assert q.flat.tobytes() == p.flat.tobytes()

    @given(arch=mlp_archs())
    def test_clone_never_aliases(self, arch):
        p = init_params(arch, Rng(1))
        c = clone_params(p)
        assert c.arch == p.arch
        assert not np.shares_memory(c.flat, p.flat)
        assert not any(np.shares_memory(a, b) for a in c.arrays for b in p.arrays)
        before = p.flat.copy()
        c.flat[:] = 7.0
        np.testing.assert_array_equal(p.flat, before)

    @given(arch=mlp_archs())
    def test_rebinding_raises(self, arch):
        p = DenoiserParams(arch)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.weights = tuple(np.zeros_like(w) for w in p.weights)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.flat = np.zeros_like(p.flat)
        with pytest.raises(TypeError):
            p.weights[0] = np.zeros_like(p.weights[0])
        with pytest.raises(TypeError):
            p.biases[0] = np.zeros_like(p.biases[0])

    def test_wrong_flat_size_rejected(self):
        arch = GRAD_CHECK_ARCHS[0]
        with pytest.raises(ValueError, match="flat"):
            DenoiserParams(arch, np.zeros(DenoiserParams(arch).flat.size + 1))


BENCH_ARCHS = {
    "plain": MlpArch(in_dim=2, hidden_dims=(64, 64), time_embed_dim=16),
    "self_cond": MlpArch(in_dim=2, hidden_dims=(64, 64), time_embed_dim=16, self_cond=True),
}
B = denoiser._BLOCK_ROWS


def whole_batch_forward(p, x, t, self_cond=None):
    """Every layer on the whole batch and a per-row time embedding: the
    forward pass before blocking, kept as the reference."""
    arch = p.arch
    n = x.shape[0]
    tt = np.full(n, float(t)) if np.ndim(t) == 0 else t
    parts = [x, time_embedding(tt, arch.time_embed_dim)]
    if arch.self_cond:
        parts.append(np.zeros_like(x) if self_cond is None else self_cond)
    a = np.concatenate(parts, axis=1)
    for i in range(len(arch.hidden_dims)):
        z = a @ p.weights[i] + p.biases[i]
        a = z * sigmoid(z)
    return a @ p.weights[-1] + p.biases[-1]


def recomputing_backward(p, cache, d):
    """Gradient arrays in layout order, each sigmoid recomputed from the
    cached pre-activation: the backward pass before the cache kept it."""
    acts, pres = cache["acts"], cache["pres"]
    n_hidden = len(p.arch.hidden_dims)
    g_w, g_b = [acts[-1].T @ d], [d.sum(axis=0)]
    da = d @ p.weights[-1].T
    for i in range(n_hidden - 1, -1, -1):
        s = sigmoid(pres[i])
        dz = da * (s * (1.0 + pres[i] * (1.0 - s)))
        g_w.insert(0, acts[i].T @ dz)
        g_b.insert(0, dz.sum(axis=0))
        da = dz @ p.weights[i].T
    return [a for wb in zip(g_w, g_b) for a in wb]


class TestBlockedForward:
    """mlp_forward runs the hidden layers in row blocks; with a cache it
    runs the whole batch as one block. Both come from one layer loop."""

    def test_row_blocks_tile_the_batch(self):
        for n in (1, 2, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 16385):
            blocks = denoiser._row_blocks(n)
            assert blocks[0][0] == 0 and blocks[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            sizes = [stop - start for start, stop in blocks]
            assert all(B <= k < 2 * B for k in sizes) or sizes == [n]
            assert n == 1 or min(sizes) > 1

    @pytest.mark.parametrize("per_row_t", [False, True], ids=["scalar_t", "per_row_t"])
    @pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 2 * B + 1, 16385])
    @pytest.mark.parametrize("kind", sorted(BENCH_ARCHS))
    def test_benchmark_arch_bit_identical(self, kind, n, per_row_t):
        arch = BENCH_ARCHS[kind]
        p = randomized_params(arch, 21)
        x, t, _, sc = batch_for(arch, n, n)
        if not per_row_t:
            t = 0.37
        blocked = mlp_forward(p, x, t, sc)
        whole = mlp_forward(p, x, t, sc, cache={})
        assert blocked.tobytes() == whole.tobytes()
        assert blocked.tobytes() == whole_batch_forward(p, x, t, sc).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        arch=mlp_archs(max_width=128),
        n=st.integers(1, 3 * B + 2),
        seed=st.integers(0, 2**16),
        per_row_t=st.booleans(),
    )
    # failed a relative test: one output near 0 is 5.6e-17 off, 2.1e-12 of itself
    @example(arch=MlpArch(in_dim=3, hidden_dims=(100, 36, 1), time_embed_dim=4),
             n=770, seed=38, per_row_t=False)
    def test_random_archs_agree(self, arch, n, seed, per_row_t):
        """The blocked pass agrees with the reference to 1e-12 of its largest output;
        an output near 0 can differ in its last bits by much more of its own size."""
        p = randomized_params(arch, seed)
        x, t, _, sc = batch_for(arch, n, seed + 1)
        if not per_row_t:
            t = float(t[0])
        blocked = mlp_forward(p, x, t, sc)
        reference = whole_batch_forward(p, x, t, sc)
        np.testing.assert_allclose(blocked, reference, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(reference)))
        assert mlp_forward(p, x, t, sc).tobytes() == blocked.tobytes()
        assert mlp_forward(p, x, t, sc, cache={}).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("t", [0.0, 1e-3, 0.37, 0.999, 1.0])
    @pytest.mark.parametrize("n", [1, 3, 8, 11, 257, 16385])
    def test_scalar_t_row_is_broadcast_bitwise(self, n, t):
        dim = 16
        row = np.broadcast_to(time_embedding(np.float64(t), dim), (n, dim))
        assert row.tobytes() == time_embedding(np.full(n, t), dim).tobytes()
        # in_dim 1 makes x both C- and Fortran-contiguous, so only the
        # assembled input's explicit layout keeps it C-ordered
        for arch in (BENCH_ARCHS["plain"], MlpArch(in_dim=1, hidden_dims=(), time_embed_dim=2)):
            p = randomized_params(arch, 4)
            x = Rng(n).normal((n, arch.in_dim))
            expected = mlp_forward(p, x, np.full(n, t)).tobytes()
            assert mlp_forward(p, x, t).tobytes() == expected

    @pytest.mark.parametrize("arch", GRAD_CHECK_ARCHS + [BENCH_ARCHS["self_cond"]])
    def test_backward_with_cached_sigmoid_bit_identical(self, arch):
        p = randomized_params(arch, 13)
        x, t, target, sc = batch_for(arch, 128, 5)
        cache = {}
        pred = mlp_forward(p, x, t, sc, cache=cache)
        d = 2.0 * (pred - target) / pred.size
        grads = mlp_backward(p, cache, d)
        reference = recomputing_backward(p, cache, d)
        assert [g.tobytes() for g in grads.arrays] == [g.tobytes() for g in reference]

    def test_cache_keeps_the_forward_sigmoid(self):
        arch = GRAD_CHECK_ARCHS[1]
        p = randomized_params(arch, 9)
        x, t, _, sc = batch_for(arch, 7, 3)
        cache = {}
        mlp_forward(p, x, t, sc, cache=cache)
        assert len(cache["sigs"]) == len(cache["pres"]) == len(arch.hidden_dims)
        for z, s, a in zip(cache["pres"], cache["sigs"], cache["acts"][1:]):
            assert s.tobytes() == sigmoid(z).tobytes()
            assert a.tobytes() == (z * s).tobytes()
