"""Deterministic numerics: seeded random draws and small dense linear algebra.

All tensors in this package are C-contiguous float64 numpy arrays (flat
row-major storage plus an explicit shape), except the oracle sampling
chain's state, which generate() keeps in column order. Public operations
here either return all-finite values or raise; nothing silently produces
NaN or Inf. The private kernels skip the input checks for callers that
have made them already.

Randomness comes from a Philox 4x64 counter-based bit generator. Normal
deviates are produced by a Box-Muller transform of the generator's 53-bit
uniform stream, so for a given seed the stream of draws is bit-identical
across platforms, processes, and library versions.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "DecompositionError",
    "NonFiniteError",
    "Rng",
    "check_seed",
    "cholesky_factor",
    "cholesky_solve",
    "ensure_finite",
    "gaussian",
    "sigmoid",
]

_PIVOT_TOL = 1e-12


class NonFiniteError(ValueError):
    """An operation produced or received NaN/Inf values."""


class DecompositionError(ValueError):
    """Cholesky factorization failed (matrix not positive definite)."""


def ensure_finite(x: np.ndarray, what: str) -> np.ndarray:
    """Return ``x`` unchanged, raising NonFiniteError if any entry is NaN/Inf."""
    if not np.isfinite(x).all():
        raise NonFiniteError(f"{what}: non-finite values encountered")
    return x


def check_seed(seed: int, what: str = "seed") -> None:
    """Raise unless seed is an int in [0, 2**64), the seeds Rng accepts.

    TypeError for a bool or a non-integer, ValueError for one out of range.
    """
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise TypeError(f"{what} must be an int, got {type(seed).__name__}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"{what} must be in [0, 2**64), got {seed}")


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function of an array with ndim >= 1; x is not modified.

    exp only ever sees -|x|, so it cannot overflow. The numerator is 1
    where x >= 0 and e = exp(-|x|) elsewhere. Since 0 <= e <= 1,
    max(float(x >= 0), e) picks the same value (NaN stays NaN) without a
    branchy select. The temporaries are updated in place.
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum((x >= 0).astype(np.float64), e)
    e += 1.0
    out /= e
    return out


def as_f64(x, what: str = "array") -> np.ndarray:
    """Coerce to a C-contiguous float64 array and check finiteness."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    return ensure_finite(arr, what)


class Rng:
    """Seeded random stream with a platform-independent draw sequence.

    The bit source is numpy's Philox 4x64 generator. ``uniform`` exposes
    its native 53-bit doubles in [0, 1); ``normal`` applies Box-Muller to
    consecutive uniform pairs; ``integers`` floors scaled uniforms. Each
    method consumes the shared stream in documented order, so any fixed
    call sequence is reproducible from the seed alone.
    """

    def __init__(self, seed: int):
        check_seed(seed)
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.Philox(self.seed))

    def uniform(self, shape: int | Sequence[int] = ()) -> np.ndarray | float:
        """Uniform draws in [0, 1). Scalar shape () returns a float."""
        out = self._gen.random(size=shape)
        return float(out) if np.ndim(out) == 0 else out

    def normal(self, shape: int | Sequence[int] = ()) -> np.ndarray | float:
        """Standard-normal draws via Box-Muller over the uniform stream.

        Consumes ceil(n/2) uniform pairs for n outputs; the trailing draw
        of an odd request is discarded, keeping the layout deterministic.
        """
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        shape = tuple(int(s) for s in shape)
        n = math.prod(shape)
        m = (n + 1) // 2
        u1 = self._gen.random(size=m)
        u2 = self._gen.random(size=m)
        # 1 - u1 lies in (0, 1], so the log argument never hits zero.
        r = np.sqrt(-2.0 * np.log1p(-u1))
        ang = (2.0 * math.pi) * u2
        z = np.empty((2, m))
        np.cos(ang, out=z[0])
        np.sin(ang, out=z[1])
        z *= r
        z = z.ravel()[:n]
        return float(z[0]) if shape == () else z.reshape(shape)

    def integers(self, n: int, shape: int | Sequence[int] = ()) -> np.ndarray | int:
        """Uniform integers in [0, n), derived from the uniform stream."""
        if n <= 0:
            raise ValueError(f"integers() needs n >= 1, got {n}")
        u = self._gen.random(size=shape)
        out = np.floor(u * n).astype(np.int64)
        return int(out) if np.ndim(out) == 0 else out


def gaussian(rng: Rng, shape: Sequence[int]) -> np.ndarray:
    """Tensor of i.i.d. standard-normal entries with the given shape.

    Args:
        rng: seeded stream; consumed in deterministic order.
        shape: nonempty sequence of dims, all >= 1.

    Returns:
        float64 array of the requested shape, all entries finite.
    """
    dims = tuple(int(s) for s in shape)
    if len(dims) == 0:
        raise ValueError("gaussian() needs a nonempty shape")
    if any(d < 1 for d in dims):
        raise ValueError(f"gaussian() needs all dims >= 1, got {dims}")
    return rng.normal(dims)


def cholesky_factor(a: np.ndarray, pivot_tol: float = _PIVOT_TOL) -> np.ndarray:
    """Lower Cholesky factor L with a = L L^T.

    Raises DecompositionError when any pivot falls at or below
    ``pivot_tol``, i.e. the matrix is not (numerically) positive definite.
    """
    a = as_f64(a, "cholesky input")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"cholesky needs a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a - a.T)) > 1e-9 * scale:
        raise ValueError("cholesky needs a symmetric matrix")
    return _factor(a, pivot_tol)


def _factor(a: np.ndarray, pivot_tol: float = _PIVOT_TOL) -> np.ndarray:
    """cholesky_factor without the input checks; the pivot check stays."""
    n = a.shape[0]
    L = np.zeros((n, n))
    for j in range(n):
        d = a[j, j] - L[j, :j] @ L[j, :j]
        if d <= pivot_tol:
            raise DecompositionError(
                f"matrix is not positive definite (pivot {d:.3e} at column {j})"
            )
        L[j, j] = math.sqrt(d)
        if j + 1 < n:
            L[j + 1 :, j] = (a[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def _solve_triangular(L: np.ndarray, b: np.ndarray, lower: bool, out: np.ndarray) -> np.ndarray:
    """Solve L x = b (lower) or L^T x = b (upper) row by row into ``out``.

    ``out`` may be ``b`` itself: row i reads b[i] before writing it, and
    otherwise only rows already solved.
    """
    n = L.shape[0]
    if lower:
        for i in range(n):
            np.subtract(b[i], L[i, :i] @ out[:i], out=out[i])
            out[i] /= L[i, i]
    else:
        for i in range(n - 1, -1, -1):
            np.subtract(b[i], L[i + 1 :, i] @ out[i + 1 :], out=out[i])
            out[i] /= L[i, i]
    return out


def _cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L L^T x = b for a C-contiguous (n, k) b into one new buffer."""
    y = _solve_triangular(L, b, lower=True, out=np.empty_like(b))
    return _solve_triangular(L, y, lower=False, out=y)


def cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for symmetric positive definite ``a``.

    Args:
        a: (n, n) SPD matrix.
        b: (n,) vector or (n, k) stack of right-hand sides.

    Returns:
        x with the same shape as b; all entries finite.
    """
    L = cholesky_factor(a)
    b = as_f64(b, "cholesky_solve rhs")
    vector = b.ndim == 1
    if vector:
        b = b[:, None]
    if b.ndim != 2 or b.shape[0] != L.shape[0]:
        raise ValueError(f"rhs shape {b.shape} does not match matrix {L.shape}")
    x = _cho_solve(L, b)
    ensure_finite(x, "cholesky_solve result")
    return x[:, 0] if vector else x
