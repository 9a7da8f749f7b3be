"""Noise-prediction MLP with hand-written forward and backward passes.

The network maps a (batch, in_dim) input plus a scalar time per example to
a predicted noise tensor of the input's shape. Time enters through
sinusoidal features; an optional class label is embedded and added to the
first hidden pre-activation (the last embedding row is reserved for the
null class used by label dropout and classifier-free guidance); optional
self-conditioning concatenates the previous signal estimate to the input.

All parameters live in one contiguous float64 vector, ``flat``, laid out
in layer order: weights (fan_in, fan_out) then bias per layer, the class
embedding last. The per-array names are views into it, so gradients,
optimizer moments and the EMA copy use the same type and update as
whole-vector numpy ops. ``save_params`` writes one ASCII header line
naming the architecture, then ``flat`` as little-endian float64.
"""

from __future__ import annotations

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
    "mlp_forward_cached",
    "save_params",
    "time_embedding",
]

_EMBED_MAX_PERIOD = 1.0e4
_FORMAT_TAG = "mlp1"
# Rows per block of the hidden layers: at width 64 a block's activations
# take 128 KiB and stay in cache through matmul, bias and SiLU.
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class MlpArch:
    """Architecture descriptor.

    input layer width = in_dim + time_embed_dim + (in_dim if self_cond);
    the class embedding does not widen the input, it is added to the
    first hidden pre-activation.
    """

    in_dim: int
    hidden_dims: tuple[int, ...]
    time_embed_dim: int = 16
    cond_classes: Optional[int] = None
    self_cond: bool = False

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.in_dim < 1:
            raise ValueError(f"in_dim must be >= 1, got {self.in_dim}")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden dims must be >= 1, got {self.hidden_dims}")
        if self.time_embed_dim < 2 or self.time_embed_dim % 2 != 0:
            raise ValueError(f"time_embed_dim must be even and >= 2, got {self.time_embed_dim}")
        if self.cond_classes is not None:
            if self.cond_classes < 1:
                raise ValueError(f"cond_classes must be >= 1, got {self.cond_classes}")
            if not self.hidden_dims:
                raise ValueError("class conditioning needs at least one hidden layer")

    @property
    def input_width(self) -> int:
        return self.in_dim + self.time_embed_dim + (self.in_dim if self.self_cond else 0)

    @property
    def null_class(self) -> int:
        """Embedding row used for 'no label' (dropout and unguided passes)."""
        if self.cond_classes is None:
            raise ValueError("arch is unconditional")
        return self.cond_classes

    def layer_dims(self) -> list[tuple[int, int]]:
        widths = [self.input_width, *self.hidden_dims, self.in_dim]
        return list(zip(widths[:-1], widths[1:]))


def _layout(arch: MlpArch) -> tuple[list[tuple[int, int, tuple[int, ...]]], int]:
    """(start, stop, shape) of each array in layout order, and the total size."""
    shapes: list[tuple[int, ...]] = []
    for fan_in, fan_out in arch.layer_dims():
        shapes += [(fan_in, fan_out), (fan_out,)]
    if arch.cond_classes is not None:
        shapes.append((arch.cond_classes + 1, arch.hidden_dims[0]))
    spans, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        spans.append((offset, offset + size, shape))
        offset += size
    return spans, offset


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
    class_embed: Optional[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        spans, size = _layout(self.arch)
        if self.flat is None:
            flat = np.zeros(size)
        else:
            flat = np.ascontiguousarray(self.flat, dtype=np.float64)
            if flat.shape != (size,):
                raise ValueError(f"flat has shape {flat.shape}, the arch needs ({size},)")
        arrays = tuple(flat[start:stop].reshape(shape) for start, stop, shape in spans)
        n_layers = len(self.arch.hidden_dims) + 1
        setattr_ = object.__setattr__
        setattr_(self, "flat", flat)
        setattr_(self, "arrays", arrays)
        setattr_(self, "weights", arrays[0 : 2 * n_layers : 2])
        setattr_(self, "biases", arrays[1 : 2 * n_layers : 2])
        setattr_(self, "class_embed", arrays[-1] if self.arch.cond_classes is not None else None)


def clone_params(p: DenoiserParams) -> DenoiserParams:
    """Deep copy: the clone's arrays never alias the original's."""
    return DenoiserParams(p.arch, p.flat.copy())


def init_params(arch: MlpArch, rng: Rng) -> DenoiserParams:
    """Scaled-uniform init preserving unit activation variance.

    Hidden weights are uniform on +-sqrt(3/fan_in); the output layer is
    zero so training starts from an all-zero noise prediction; the class
    table starts at zero so a fresh conditional net matches the
    unconditional one; the first-layer rows fed by the self-conditioning
    slice start at zero so a zero estimate is a true no-op.
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
    freqs = np.exp(np.linspace(0.0, np.log(_EMBED_MAX_PERIOD), k)) if k > 1 else np.ones(1)
    ang = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def _silu_grad(z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """d/dz z*sigmoid(z), given s = sigmoid(z) from the forward pass."""
    return s * (1.0 + z * (1.0 - s))


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) row ranges of _BLOCK_ROWS; the tail joins the last block.

    So no block has a single row unless n == 1: BLAS computes a 1-row
    product on its matrix-vector path, whose rounding differs.
    """
    bounds = [i * _BLOCK_ROWS for i in range(max(1, n // _BLOCK_ROWS))] + [n]
    return list(zip(bounds[:-1], bounds[1:]))


def _assemble_input(p: DenoiserParams, x, t, labels, self_cond):
    arch = p.arch
    x = as_f64(x, "mlp input")
    if x.ndim != 2 or x.shape[1] != arch.in_dim:
        raise ValueError(f"input shape {x.shape} does not match in_dim {arch.in_dim}")
    n = x.shape[0]
    tt = np.asarray(t, dtype=np.float64)
    dim = arch.time_embed_dim
    if tt.ndim == 0:
        # one time for the whole batch: embed it once and broadcast the row
        emb = np.broadcast_to(time_embedding(tt, dim), (n, dim))
    elif tt.shape != (n,):
        raise ValueError(f"t shape {tt.shape}, expected ({n},)")
    else:
        emb = time_embedding(tt, dim)
    parts = [x, emb]
    if arch.self_cond:
        if self_cond is None:
            self_cond = np.zeros_like(x)
        else:
            self_cond = as_f64(self_cond, "self_cond input")
            if self_cond.shape != x.shape:
                raise ValueError(f"self_cond shape {self_cond.shape} != x shape {x.shape}")
        parts.append(self_cond)
    elif self_cond is not None:
        raise ValueError("arch has no self-conditioning input")
    # out= keeps a0 C-ordered: with a broadcast row among the parts, concatenate
    # may pick Fortran order, and BLAS rounds that layout differently
    a0 = np.concatenate(parts, axis=1, out=np.empty((n, arch.input_width)))

    idx = None
    if arch.cond_classes is not None:
        if labels is None:
            idx = np.full(n, arch.null_class, dtype=np.int64)
        else:
            idx = np.asarray(labels)
            if idx.shape != (n,):
                raise ValueError(f"labels shape {idx.shape}, expected ({n},)")
            if not np.issubdtype(idx.dtype, np.integer):
                raise ValueError("labels must be integers")
            if idx.min() < 0 or idx.max() > arch.null_class:
                raise ValueError(f"labels must lie in [0, {arch.null_class}]")
            idx = idx.astype(np.int64)
    elif labels is not None:
        raise ValueError("arch is unconditional but labels were given")
    return a0, idx


def _forward(p: DenoiserParams, x, t, labels, self_cond, cache: Optional[dict]) -> np.ndarray:
    """The one layer loop behind mlp_forward and mlp_forward_cached.

    Hidden layers (matmul, bias, SiLU) run block by block, so a block's
    activations stay in cache, and only the last hidden layer's output is
    held for the whole batch. With a cache dict the whole batch is one
    block and every layer's pre-activation, sigmoid and activation are
    kept. The output layer runs on the whole batch: for a narrow output,
    BLAS picks a kernel by row count, and blocks would move its last ulp.
    """
    a0, idx = _assemble_input(p, x, t, labels, self_cond)
    n = a0.shape[0]
    n_hidden = len(p.arch.hidden_dims)
    last = np.empty((n, p.arch.hidden_dims[-1])) if n_hidden else a0
    if cache is not None:
        cache.update(acts=[a0], pres=[], sigs=[], labels=idx)
    for r0, r1 in [(0, n)] if cache is not None else _row_blocks(n):
        a = a0[r0:r1]
        for i in range(n_hidden):
            z = a @ p.weights[i]
            z += p.biases[i]
            if i == 0 and p.class_embed is not None:
                z += p.class_embed[idx[r0:r1]]
            s = sigmoid(z)
            a = np.multiply(z, s, out=last[r0:r1] if i == n_hidden - 1 else None)
            if cache is not None:
                cache["pres"].append(z)
                cache["sigs"].append(s)
                cache["acts"].append(a)
    out = last @ p.weights[n_hidden] + p.biases[n_hidden]
    return ensure_finite(out, "mlp output")


def mlp_forward_cached(p: DenoiserParams, x, t, labels=None, self_cond=None):
    """Forward pass returning (eps_pred, cache) for mlp_backward."""
    cache: dict = {}
    return _forward(p, x, t, labels, self_cond, cache), cache


def mlp_forward(p: DenoiserParams, x, t, labels=None, self_cond=None) -> np.ndarray:
    """Predicted noise for a batch; t is a scalar or one time per row."""
    return _forward(p, x, t, labels, self_cond, None)


def mlp_backward(p: DenoiserParams, cache: dict, grad_out: np.ndarray) -> DenoiserParams:
    """Exact reverse-mode gradients of the cached forward pass.

    Args:
        p: parameters used in the forward pass.
        cache: second output of mlp_forward_cached.
        grad_out: dLoss/d(eps_pred), shape (batch, in_dim).

    Returns:
        The gradients, in p's layout.
    """
    acts, pres, sigs, idx = cache["acts"], cache["pres"], cache["sigs"], cache["labels"]
    d = as_f64(grad_out, "grad_out")
    n_hidden = len(p.arch.hidden_dims)
    grads = DenoiserParams(p.arch)
    g_w, g_b = grads.weights, grads.biases
    np.matmul(acts[n_hidden].T, d, out=g_w[n_hidden])
    d.sum(axis=0, out=g_b[n_hidden])
    if n_hidden > 0:
        da = d @ p.weights[n_hidden].T
        for i in range(n_hidden - 1, -1, -1):
            dz = da * _silu_grad(pres[i], sigs[i])
            np.matmul(acts[i].T, dz, out=g_w[i])
            dz.sum(axis=0, out=g_b[i])
            if i == 0 and grads.class_embed is not None:
                np.add.at(grads.class_embed, idx, dz)
            if i > 0:
                da = dz @ p.weights[i].T
    return grads


def _arch_header(arch: MlpArch) -> str:
    hidden = ",".join(str(h) for h in arch.hidden_dims) if arch.hidden_dims else "-"
    classes = "-" if arch.cond_classes is None else str(arch.cond_classes)
    return (
        f"{_FORMAT_TAG} in={arch.in_dim} hidden={hidden} "
        f"time_embed={arch.time_embed_dim} classes={classes} "
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
        return MlpArch(
            in_dim=int(kv["in"]),
            hidden_dims=hidden,
            time_embed_dim=int(kv["time_embed"]),
            cond_classes=None if kv["classes"] == "-" else int(kv["classes"]),
            self_cond=bool(int(kv["self_cond"])),
        )
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad params header: {line!r}") from exc


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
