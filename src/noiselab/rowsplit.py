"""A sampling chain split by rows across forked processes.

Every part of a sampling step acts row by row, so a chain run on a
contiguous run of a batch's row blocks (denoiser._row_blocks) gives those
rows of the whole-batch chain. RowSplit forks once per chain: each child
runs the chain on its own run and writes its final rows once into
anonymous shared memory; the caller runs the first run and reaps the rest.
Children compute and never fork: they count as one CPU (core.become_worker).

One matrix product a step grows with the row count: the MLP's output
layer, and the oracle's Sigma @ y. BLAS may pick its kernel by a
product's size (OpenBLAS has one for small products), and kernels round
differently. So split_processes takes only a cut each of whose runs
rounds that product as the whole batch does.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
from typing import Callable, Optional

import numpy as np

from noiselab.core import become_worker, usable_cpus
from noiselab.denoiser import DenoiserParams, _row_blocks
from noiselab.oracle import GaussianOracle

__all__ = ["RowSplit", "split_processes"]


def split_processes(model, n_rows: int) -> Optional[int]:
    """Processes to split a chain of model on n_rows over, or None for none.

    model is DenoiserParams with hidden layers or a GaussianOracle, and
    fork must exist. There is at most one process per usable CPU and per
    row block. On two CPUs a 100-step chain of 512 rows, two blocks,
    already runs faster split; forking and reaping cost a few ms.
    """
    if isinstance(model, DenoiserParams) and model.arch.hidden_dims:
        product = ("rows", model.arch.hidden_dims[-1], model.arch.in_dim)  # output layer
    elif isinstance(model, GaussianOracle):
        product = ("cols", model.dim, model.dim)  # Sigma @ y
    else:
        return None
    most = min(usable_cpus(), len(_row_blocks(n_rows)))
    return _most_alike(product, n_rows, most) if most > 1 and hasattr(os, "fork") else None


@functools.lru_cache(maxsize=None)
def _most_alike(product: tuple[str, int, int], n_rows: int, most: int) -> Optional[int]:
    """The most processes, 2 to `most`, whose runs round product as the whole, or None.

    product is ("rows", k, c) for (n_rows, k) @ (k, c), or ("cols", k, k)
    for (k, k) @ (k, n_rows). It is probed on fixed random data.
    """
    kind, k, c = product
    gen = np.random.default_rng(0)
    if kind == "rows":
        a, b = gen.standard_normal((n_rows, k)), gen.standard_normal((k, c))
    else:
        a, b = gen.standard_normal((k, k)), gen.standard_normal((k, n_rows))
    whole = a @ b

    def alike(r0, r1):
        if kind == "rows":
            return (a[r0:r1] @ b).tobytes() == whole[r0:r1].tobytes()
        return (a @ np.ascontiguousarray(b[:, r0:r1])).tobytes() == whole[:, r0:r1].tobytes()

    for processes in range(most, 1, -1):
        if all(alike(r0, r1) for r0, r1 in RowSplit(n_rows, processes).runs):
            return processes
    return None


class RowSplit:
    """n_rows cut into `processes` contiguous runs of whole row blocks, the caller's first."""

    def __init__(self, n_rows: int, processes: int):
        blocks = _row_blocks(n_rows)
        cuts = [len(blocks) * k // processes for k in range(processes + 1)]
        self.n_rows = n_rows
        self.runs = [(blocks[a][0], blocks[b - 1][1]) for a, b in zip(cuts[:-1], cuts[1:])]

    def run(self, chain: Callable[[int, int], np.ndarray], dim: int) -> np.ndarray:
        """chain(r0, r1) of every run, stacked into an (n_rows, dim) array.

        A run's exception is raised here with its own type and message,
        the first failing run's; a child that dies without reporting one
        gives ChildProcessError. Every child has ended and been reaped
        when this returns or raises.
        """
        import mmap

        # anonymous and shared, so the children's writes are seen here
        out = np.frombuffer(mmap.mmap(-1, 8 * self.n_rows * dim)).reshape(self.n_rows, dim)
        children, failed = [], True  # (pid, report fd) of each forked run
        try:
            for r0, r1 in self.runs[1:]:
                children.append(_fork(chain, r0, r1, out))
            r0, r1 = self.runs[0]
            out[r0:r1] = chain(r0, r1)
            failed = False
        finally:
            error = _reap(children, kill=failed)
        if error is not None:
            raise error
        return out


def _fork(chain, r0: int, r1: int, out: np.ndarray) -> tuple[int, int]:
    """Fork a child that writes chain(r0, r1) into out[r0:r1]; its pid and report pipe."""
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
            become_worker()
            out[r0:r1] = chain(r0, r1)
            status = 0
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            with os.fdopen(report_w, "wb") as pipe:
                pipe.write(_pickled(exc))
        finally:
            os._exit(status)
    os.close(report_w)
    return pid, report_r


def _pickled(exc: BaseException) -> bytes:
    """exc pickled, or a ChildProcessError naming it if it does not unpickle."""
    try:
        blob = pickle.dumps(exc)
        pickle.loads(blob)
        return blob
    except Exception:  # noqa: BLE001 - any pickling failure
        return pickle.dumps(ChildProcessError(
            f"a row-split worker process raised {type(exc).__name__}: {exc}"))


def _reap(children, kill: bool) -> Optional[BaseException]:
    """Wait for every child in run order; the first failed run's error, or None.

    kill ends the children first (the caller's run raised), as a failed
    run ends the later ones.
    """
    error = None
    for pid, fd in children:
        if kill or error is not None:
            os.kill(pid, signal.SIGKILL)
        with os.fdopen(fd, "rb") as pipe:
            report = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if kill or error is not None or code == 0:
            continue
        how = f"signal {-code}" if code < 0 else f"exit status {code}"
        error = pickle.loads(report) if report else ChildProcessError(
            f"a row-split worker process died ({how})")
    return error
