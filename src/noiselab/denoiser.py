"""Noise-prediction MLP with hand-written forward and backward passes.

The network maps a (batch, in_dim) input plus a scalar time per example to
a predicted noise tensor of the input's shape. Time enters through
sinusoidal features; optional self-conditioning concatenates the previous
signal estimate to the input.

All parameters live in one contiguous float64 vector, ``flat``, laid out
in layer order: weights (fan_in, fan_out) then bias per layer. The
per-array names are views into it, so gradients, optimizer moments and
the EMA copy use the same type and update as whole-vector numpy ops.
``save_params`` writes one ASCII header line naming the architecture,
then ``flat`` as little-endian float64.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from noiselab.core import Rng, as_f64, ensure_finite, sigmoid

__all__ = [
    "DenoiserParams",
    "MlpArch",
    "clone_params",
    "init_params",
    "load_params",
    "mlp_backward",
    "mlp_forward",
    "save_params",
    "time_embedding",
]

_EMBED_MAX_PERIOD = 1.0e4
_FORMAT_TAG = "mlp1"
# The header's classes field: every checkpoint this package writes or
# reads is unconditional.
_NO_CLASSES = "-"
# Rows per block of the hidden layers: at width 64 a block's activations
# take 128 KiB and stay in cache through matmul, bias and SiLU.
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class MlpArch:
    """Architecture descriptor.

    input layer width = in_dim + time_embed_dim + (in_dim if self_cond).
    """

    in_dim: int
    hidden_dims: tuple[int, ...]
    time_embed_dim: int = 16
    self_cond: bool = False

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.in_dim < 1:
            raise ValueError(f"in_dim must be >= 1, got {self.in_dim}")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden dims must be >= 1, got {self.hidden_dims}")
        if self.time_embed_dim < 2 or self.time_embed_dim % 2 != 0:
            raise ValueError(f"time_embed_dim must be even and >= 2, got {self.time_embed_dim}")

    @property
    def input_width(self) -> int:
        return self.in_dim + self.time_embed_dim + (self.in_dim if self.self_cond else 0)

    def layer_dims(self) -> list[tuple[int, int]]:
        widths = [self.input_width, *self.hidden_dims, self.in_dim]
        return list(zip(widths[:-1], widths[1:]))


@functools.lru_cache(maxsize=None)
def _layout(arch: MlpArch) -> tuple[tuple[tuple[int, int, tuple[int, ...]], ...], int]:
    """(start, stop, shape) of each array in layout order, and the total size.

    Computed once per arch; the result is an immutable tuple.
    """
    shapes: list[tuple[int, ...]] = []
    for fan_in, fan_out in arch.layer_dims():
        shapes += [(fan_in, fan_out), (fan_out,)]
    spans, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        spans.append((offset, offset + size, shape))
        offset += size
    return tuple(spans), offset


@dataclass(frozen=True, eq=False)
class DenoiserParams:
    """One flat float64 vector with per-array views; zeros when flat is None.

    A given ``flat`` is adopted, not copied, when it already is a contiguous
    float64 vector. This is also the type of gradients, optimizer moments
    and the EMA copy. The views are writable, but the dataclass is frozen
    and the view lists are tuples, so no attribute can be rebound away
    from ``flat``.
    """

    arch: MlpArch
    flat: Optional[np.ndarray] = None
    arrays: tuple = field(init=False, repr=False)
    weights: tuple = field(init=False, repr=False)
    biases: tuple = field(init=False, repr=False)

    def __post_init__(self):
        spans, size = _layout(self.arch)
        if self.flat is None:
            flat = np.zeros(size)
        else:
            flat = np.ascontiguousarray(self.flat, dtype=np.float64)
            if flat.shape != (size,):
                raise ValueError(f"flat has shape {flat.shape}, the arch needs ({size},)")
        arrays = tuple(flat[start:stop].reshape(shape) for start, stop, shape in spans)
        setattr_ = object.__setattr__
        setattr_(self, "flat", flat)
        setattr_(self, "arrays", arrays)
        setattr_(self, "weights", arrays[0::2])
        setattr_(self, "biases", arrays[1::2])


def clone_params(p: DenoiserParams) -> DenoiserParams:
    """Deep copy: the clone's arrays never alias the original's."""
    return DenoiserParams(p.arch, p.flat.copy())


def init_params(arch: MlpArch, rng: Rng) -> DenoiserParams:
    """Scaled-uniform init preserving unit activation variance.

    Hidden weights are uniform on +-sqrt(3/fan_in); the output layer is
    zero so training starts from an all-zero noise prediction; the
    first-layer rows fed by the self-conditioning slice start at zero so
    a zero estimate is a true no-op.
    """
    p = DenoiserParams(arch)
    for w in p.weights[:-1]:
        limit = np.sqrt(3.0 / w.shape[0])
        w[...] = (2.0 * rng.uniform(w.shape) - 1.0) * limit
    if arch.self_cond:
        p.weights[0][arch.in_dim + arch.time_embed_dim :, :] = 0.0
    return p


def time_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal features [sin(w_k t), cos(w_k t)], w_k log-spaced in [1, 1e4].

    Args:
        t: (batch,) times.
        dim: even feature count; dim/2 frequencies.

    Returns:
        (batch, dim) array: all sines, then all cosines.
    """
    if dim < 2 or dim % 2 != 0:
        raise ValueError(f"embedding dim must be even and >= 2, got {dim}")
    t = as_f64(np.atleast_1d(t), "time_embedding t")
    if t.ndim != 1:
        raise ValueError("time_embedding expects scalar or (batch,) t")
    k = dim // 2
    ang = t[:, None] * _frequencies(k)[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


@functools.lru_cache(maxsize=None)
def _frequencies(k: int) -> np.ndarray:
    """The k log-spaced embedding frequencies, built once per k and read-only."""
    freqs = np.exp(np.linspace(0.0, np.log(_EMBED_MAX_PERIOD), k)) if k > 1 else np.ones(1)
    freqs.setflags(write=False)
    return freqs


def _silu_grad(z: np.ndarray, s: np.ndarray, da: np.ndarray) -> np.ndarray:
    """da * d/dz z*sigmoid(z), given s = sigmoid(z) from the forward pass.

    Evaluates da * (s * (1 + z * (1 - s))) in one new array. Each in-place
    step has the operands of that expression, so it rounds the same way.
    """
    dz = np.subtract(1.0, s)
    dz *= z
    dz += 1.0
    dz *= s
    dz *= da
    return dz


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) row ranges of _BLOCK_ROWS; the tail joins the last block.

    So no block has a single row unless n == 1: BLAS computes a 1-row
    product on its matrix-vector path, whose rounding differs.
    """
    bounds = [i * _BLOCK_ROWS for i in range(max(1, n // _BLOCK_ROWS))] + [n]
    return list(zip(bounds[:-1], bounds[1:]))


def _input_rows(arch: MlpArch, x, emb, self_cond, out: np.ndarray) -> np.ndarray:
    """The input layer's rows [x | time features | self_cond], written into out.

    emb is one time-feature row per example or a single row for all;
    self_cond None gives zeros. A C-ordered out fixes the layout, which
    BLAS rounds by.
    """
    d, e = arch.in_dim, arch.in_dim + arch.time_embed_dim
    out[:, :d] = x
    out[:, d:e] = emb
    out[:, e:] = 0.0 if self_cond is None else self_cond
    return out


def _hidden(p: DenoiserParams, a: np.ndarray, out: np.ndarray,
            cache: Optional[dict] = None) -> None:
    """The hidden layers (matmul, bias, SiLU) of input rows a; the last one fills out."""
    n_hidden = len(p.arch.hidden_dims)
    for i in range(n_hidden):
        z = a @ p.weights[i]
        z += p.biases[i]
        s = sigmoid(z)
        a = np.multiply(z, s, out=out if i == n_hidden - 1 else None)
        if cache is not None:
            cache["pres"].append(z)
            cache["sigs"].append(s)
            cache["acts"].append(a)


def mlp_forward(p: DenoiserParams, x, t, self_cond=None,
                cache: Optional[dict] = None) -> np.ndarray:
    """Predicted noise for a batch; t is a scalar or one time per row.

    A given cache dict is filled for mlp_backward.
    """
    arch = p.arch
    x = as_f64(x, "mlp input")
    if x.ndim != 2 or x.shape[1] != arch.in_dim:
        raise ValueError(f"input shape {x.shape} does not match in_dim {arch.in_dim}")
    n = x.shape[0]
    tt = np.asarray(t, dtype=np.float64)
    if tt.ndim != 0 and tt.shape != (n,):
        raise ValueError(f"t shape {tt.shape}, expected ({n},)")
    # one time for the whole batch is embedded once and broadcast
    emb = time_embedding(tt, arch.time_embed_dim)
    if self_cond is not None:
        if not arch.self_cond:
            raise ValueError("arch has no self-conditioning input")
        self_cond = as_f64(self_cond, "self_cond input")
        if self_cond.shape != x.shape:
            raise ValueError(f"self_cond shape {self_cond.shape} != x shape {x.shape}")
    a0 = _input_rows(arch, x, emb, self_cond, np.empty((n, arch.input_width)))
    return ensure_finite(_forward_rows(p, a0, cache), "mlp output")


def _forward_rows(p: DenoiserParams, a0: np.ndarray, cache: Optional[dict] = None) -> np.ndarray:
    """The network on prebuilt C-ordered input rows a0, unchecked.

    Without a cache the hidden layers run block by block, so a block's
    activations stay in cache, and only the last hidden layer's output is
    held for the whole batch. With a cache dict the whole batch is one
    block and every layer's pre-activation, sigmoid and activation are
    kept. The output layer runs on the whole batch: for a narrow output,
    BLAS picks a kernel by the product's size, and blocks would move its
    last ulp. A sampling chain split by rows runs this pass on a run of
    blocks only where the run's output layer rounds as the whole batch's
    (sampler.split_processes).
    """
    n_hidden = len(p.arch.hidden_dims)
    last = np.empty((len(a0), p.arch.hidden_dims[-1])) if n_hidden else a0
    if cache is not None:
        cache.update(acts=[a0], pres=[], sigs=[])
    for r0, r1 in [(0, len(a0))] if cache is not None else _row_blocks(len(a0)):
        _hidden(p, a0[r0:r1], last[r0:r1], cache)
    return last @ p.weights[n_hidden] + p.biases[n_hidden]


def mlp_backward(p: DenoiserParams, cache: dict, grad_out: np.ndarray, *,
                 out: Optional[DenoiserParams] = None) -> DenoiserParams:
    """Exact reverse-mode gradients of the cached forward pass.

    Args:
        p: parameters used in the forward pass.
        cache: the dict that mlp_forward filled.
        grad_out: dLoss/d(eps_pred), shape (batch, in_dim).
        out: optional gradient buffer in p's layout, overwritten and
            returned, so a training loop allocates it once.

    Returns:
        The gradients, in p's layout.
    """
    acts, pres, sigs = cache["acts"], cache["pres"], cache["sigs"]
    d = as_f64(grad_out, "grad_out")
    n_hidden = len(p.arch.hidden_dims)
    if out is None:
        grads = DenoiserParams(p.arch)
    elif out.arch != p.arch:
        raise ValueError("gradient buffer does not match the parameter layout")
    else:
        grads = out
    g_w, g_b = grads.weights, grads.biases
    np.matmul(acts[n_hidden].T, d, out=g_w[n_hidden])
    d.sum(axis=0, out=g_b[n_hidden])
    if n_hidden > 0:
        da = d @ p.weights[n_hidden].T
        for i in range(n_hidden - 1, -1, -1):
            dz = _silu_grad(pres[i], sigs[i], da)
            np.matmul(acts[i].T, dz, out=g_w[i])
            dz.sum(axis=0, out=g_b[i])
            if i > 0:
                da = dz @ p.weights[i].T
    return grads


def _arch_header(arch: MlpArch) -> str:
    hidden = ",".join(str(h) for h in arch.hidden_dims) if arch.hidden_dims else "-"
    return (
        f"{_FORMAT_TAG} in={arch.in_dim} hidden={hidden} "
        f"time_embed={arch.time_embed_dim} classes={_NO_CLASSES} "
        f"self_cond={int(arch.self_cond)}"
    )


def _parse_header(line: str) -> MlpArch:
    fields = line.split()
    if not fields or fields[0] != _FORMAT_TAG:
        raise ValueError(f"bad params header: {line!r}")
    kv = {}
    for item in fields[1:]:
        key, _, val = item.partition("=")
        if not val:
            raise ValueError(f"bad params header field: {item!r}")
        kv[key] = val
    try:
        hidden = () if kv["hidden"] == "-" else tuple(int(h) for h in kv["hidden"].split(","))
        classes = kv["classes"]
        arch = MlpArch(
            in_dim=int(kv["in"]),
            hidden_dims=hidden,
            time_embed_dim=int(kv["time_embed"]),
            self_cond=bool(int(kv["self_cond"])),
        )
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad params header: {line!r}") from exc
    if classes != _NO_CLASSES:
        raise ValueError(f"params header {line!r} has classes={classes}: "
                         "class-conditional checkpoints are no longer supported")
    return arch


def save_params(path, p: DenoiserParams) -> None:
    """Write the header line, then flat as little-endian float64."""
    with open(path, "wb") as fh:
        fh.write((_arch_header(p.arch) + "\n").encode("ascii"))
        fh.write(p.flat.astype("<f8", copy=False).tobytes())


def load_params(path) -> DenoiserParams:
    """Inverse of save_params; validates sizes and finiteness."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").rstrip("\n")
        arch = _parse_header(header)
        blob = fh.read()
    expected = _layout(arch)[1] * 8
    if len(blob) != expected:
        raise ValueError(f"params payload is {len(blob)} bytes, expected {expected}")
    flat = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    ensure_finite(flat, "loaded params")
    return DenoiserParams(arch, flat)
