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

A matrix product can round differently with the number of BLAS threads,
so code that must give the same bits on every machine runs inside
``one_blas_thread``. Work that runs in parallel sizes itself by
``usable_cpus``, which alone decides whether it may fork, and forks
through ``fork_map``.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "DecompositionError",
    "NonFiniteError",
    "Rng",
    "check_seed",
    "cholesky_factor",
    "ensure_finite",
    "fork_map",
    "one_blas_thread",
    "sigmoid",
    "usable_cpus",
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
        if any(s < 0 for s in shape):
            raise ValueError(f"negative dimensions are not allowed, got shape {shape}")
        n = math.prod(shape)
        z = _normals(self._gen.random(size=2 * ((n + 1) // 2)), n)
        return float(z[0]) if shape == () else z.reshape(shape)

    def integers(self, n: int, shape: int | Sequence[int] = ()) -> np.ndarray | int:
        """Uniform integers in [0, n), derived from the uniform stream.

        TypeError for a bool or a non-integer n, ValueError for n < 1.
        """
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise TypeError(f"integers() needs an int n, got {type(n).__name__}")
        if n < 1:
            raise ValueError(f"integers() needs n >= 1, got {n}")
        u = self._gen.random(size=shape)
        out = np.floor(u * n).astype(np.int64)
        return int(out) if np.ndim(out) == 0 else out


def _normals(u: np.ndarray, n: int) -> np.ndarray:
    """n standard normals from each row of 2 ceil(n/2) uniforms, which are overwritten.

    A row's halves are Box-Muller's (u1, u2); its normals are every
    r cos(2 pi u2), then every r sin(2 pi u2), the last dropped when n is
    odd. This is Rng.normal's layout, so k rows give k successive draws.
    """
    m = u.shape[-1] // 2
    z = _box_muller(u[..., :m], u[..., m:], np.empty(u.shape[:-1] + (2, m)))
    return z.reshape(u.shape[:-1] + (2 * m,))[..., :n]


def _box_muller(u1: np.ndarray, u2: np.ndarray, out: np.ndarray) -> np.ndarray:
    """r cos(2 pi u2), r sin(2 pi u2) into out (..., 2, m), r = sqrt(-2 log1p(-u1)),
    overwriting u1 and u2 (..., m); 1 - u1 lies in (0, 1], so the log stays finite."""
    np.log1p(np.negative(u1, out=u1), out=u1)
    np.sqrt(np.multiply(u1, -2.0, out=u1), out=u1)
    u2 *= 2.0 * math.pi
    np.cos(u2, out=out[..., 0, :])
    np.sin(u2, out=out[..., 1, :])
    out *= u1[..., None, :]
    return out


def cholesky_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L with a = L L^T.

    Raises DecompositionError when any pivot falls at or below 1e-12,
    i.e. the matrix is not (numerically) positive definite.
    """
    a = as_f64(a, "cholesky input")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"cholesky needs a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a - a.T)) > 1e-9 * scale:
        raise ValueError("cholesky needs a symmetric matrix")
    return _factor(a)


def _factor(a: np.ndarray) -> np.ndarray:
    """cholesky_factor without the input checks; the pivot check stays."""
    n = a.shape[0]
    L = np.zeros((n, n))
    for j in range(n):
        d = a[j, j] - L[j, :j] @ L[j, :j]
        if d <= _PIVOT_TOL:
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


# (get, set) thread-count functions, newest OpenBLAS naming first
_OPENBLAS_THREAD_FUNCS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@lru_cache(maxsize=None)
def _openblas_thread_funcs():
    """(get, set) of the OpenBLAS bundled with numpy, or None without one.

    The library is looked up in the ``numpy.libs`` directory of a wheel
    install; loading it again returns the copy numpy already uses.
    """
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_FUNCS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the body with OpenBLAS on one thread, then restore the old count.

    Where numpy's BLAS cannot be reached nothing changes (and
    usable_cpus() is 1). Processes forked inside the body inherit the
    setting.
    """
    funcs = _openblas_thread_funcs()
    if funcs is None:
        yield
        return
    get, set_ = funcs
    old = get()
    set_(1)
    try:
        yield
    finally:
        set_(old)


_forked = False  # set while a fork_map of several parts runs, in the caller and each child


def usable_cpus() -> int:
    """CPUs this process may compute on, and so the most processes its work may fork into.

    This is the one place that decides whether work may fork. It is 1
    inside a fork_map of several parts, where os.fork does not exist,
    and where numpy's OpenBLAS cannot be reached: one_blas_thread cannot
    pin it there, so the bits could move with the thread count and
    forked processes would compete for its threads' cores. Otherwise it
    is the affinity set's size, or without an affinity call on the
    platform, the CPU count (1 if unknown).
    """
    if _forked or not hasattr(os, "fork") or _openblas_thread_funcs() is None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def fork_map(fn: Callable, parts: Sequence) -> list:
    """[fn(part) for part in parts], the parts after the first in forked children.

    One part runs here and nothing else changes. With several, this
    process runs the first while one forked child runs each other part
    and sends its result back pickled; usable_cpus() is 1 in all of them
    until this returns, since each already holds one of the CPUs counted.
    The first failing part's exception is raised with its own type and
    message, this process's part first; one that does not pickle, or a
    result that does not, gives ChildProcessError naming it, as does a
    child that dies without reporting. Once a part fails the later
    children are killed. Every child has ended and been reaped when this
    returns or raises.
    """
    global _forked
    if len(parts) == 1:
        return [fn(parts[0])]
    outer, _forked = _forked, True
    children, failed = [], True  # (pid, report fd) of each forked part
    try:
        for part in parts[1:]:
            children.append(_fork(fn, part))
        first = fn(parts[0])
        failed = False
    finally:
        _forked = outer
        reports = _reap(children, kill=failed)
    results = [first]
    for ok, value in reports:
        if not ok:
            raise value
        results.append(value)
    return results


def _fork(fn, part) -> tuple[int, int]:
    """Fork a child that reports fn(part) on a pipe; its pid and the pipe's read end."""
    report_r, report_w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(report_r)
        os.close(report_w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(report_r)
            with os.fdopen(report_w, "wb") as pipe:
                pipe.write(_report(fn, part))
            status = 0
        finally:
            os._exit(status)
    os.close(report_w)
    return pid, report_r


def _report(fn, part) -> bytes:
    """(True, fn(part)) or (False, its exception) pickled; ChildProcessError
    in place of either when it does not pickle."""
    try:
        result = fn(part)
    except BaseException as exc:  # noqa: BLE001 - reported to the caller
        try:
            blob = pickle.dumps((False, exc))
            pickle.loads(blob)
            return blob
        except Exception:  # noqa: BLE001 - any pickling failure
            what = f"raised {type(exc).__name__}: {exc}"
    else:
        try:
            return pickle.dumps((True, result))
        except Exception as exc:  # noqa: BLE001 - any pickling failure
            what = f"returned {type(result).__name__}, which does not pickle: {exc}"
    return pickle.dumps((False, ChildProcessError(f"a worker process {what}")))


def _reap(children, kill: bool) -> list[tuple[bool, object]]:
    """Wait for every child in part order; its (ok, result or error) each,
    up to the first that failed.

    kill ends the children first (the caller's part raised), as a failed
    part ends the later ones.
    """
    reports = []
    for pid, fd in children:
        if kill:
            os.kill(pid, signal.SIGKILL)
        with os.fdopen(fd, "rb") as pipe:
            report = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if kill:
            continue
        if code == 0 and report:
            reports.append(pickle.loads(report))
        else:
            how = f"signal {-code}" if code < 0 else f"exit status {code}"
            reports.append((False, ChildProcessError(f"a worker process died ({how})")))
        kill = not reports[-1][0]
    return reports
