"""Hidden layers of an MLP forward pass split by rows across forked processes.

A RowSplit belongs to one sampling chain: one parameter set and one batch
size. It forks its child processes once, when it opens; each forward pass
then hands every process a contiguous run of the batch's row blocks. The
parent writes the pass's inputs into anonymous shared memory and sends one
byte down each child's pipe. Every process, the parent included, runs
denoiser._block over its own blocks into a shared ``last`` buffer, the
same kernel over the same block bounds as the serial pass, so the result
is the same to the last bit. Each child acks with one byte. Closing the
pipes ends the children, and close() reaps them.

Children compute and never fork: they count as one CPU (core.become_worker).
"""

from __future__ import annotations

import os
import traceback
from typing import Optional

import numpy as np

from noiselab.core import become_worker, usable_cpus
from noiselab.denoiser import DenoiserParams, _block, _row_blocks

__all__ = ["RowSplit", "split_processes"]

_GO = b"g"


def split_processes(p: DenoiserParams, n_rows: int) -> Optional[int]:
    """Processes to split the hidden layers of p on n_rows over, or None.

    One per usable CPU, each with at least one row block, where fork
    exists and the arch has hidden layers. None means no split. On two
    CPUs a 100-step chain of 512 rows, two blocks, already runs faster
    split; forking and reaping cost about 2.5 ms a call.
    """
    if not p.arch.hidden_dims or not hasattr(os, "fork"):
        return None
    processes = min(usable_cpus(), len(_row_blocks(n_rows)))
    return processes if processes > 1 else None


class RowSplit:
    """Forked processes that run the hidden layers of p on n rows.

    processes comes from split_processes. Use as a context manager, or
    call close(). A child that raises or dies makes the next pass raise
    ChildProcessError.
    """

    def __init__(self, p: DenoiserParams, n: int, processes: int):
        import mmap

        arch = p.arch
        self.p, self.n = p, n
        blocks = _row_blocks(n)
        runs = [blocks[len(blocks) * k // processes: len(blocks) * (k + 1) // processes]
                for k in range(processes)]
        shapes = [(n, arch.in_dim), (1, arch.time_embed_dim),
                  (n, arch.in_dim if arch.self_cond else 0), (n, arch.hidden_dims[-1])]
        sizes = [rows * cols for rows, cols in shapes]
        # anonymous and shared: the children see the parent's writes and
        # the parent theirs; unmapped when the last view is dropped
        buf = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)), dtype=np.float64)
        views, offset = [], 0
        for shape, size in zip(shapes, sizes):
            views.append(buf[offset:offset + size].reshape(shape))
            offset += size
        self._x, self._emb, self._self_cond, self._last = views
        if not arch.self_cond:
            self._self_cond = None
        self._run = runs[0]
        self._children = []  # (pid, go_fd, ack_fd) of each live child
        try:
            for run in runs[1:]:
                self._fork(run)
        except BaseException:
            self.close()
            raise

    def _fork(self, run) -> None:
        go_r, go_w = os.pipe()
        ack_r, ack_w = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (go_r, go_w, ack_r, ack_w):
                os.close(fd)
            raise
        if pid == 0:
            # the other children's pipe ends stay open here otherwise, and
            # then closing them in the parent would not end those children
            for fd in (go_w, ack_r, *(fd for _, *fds in self._children for fd in fds)):
                os.close(fd)
            self._serve(run, go_r, ack_w)
        os.close(go_r)
        os.close(ack_w)
        self._children.append((pid, go_w, ack_r))

    def _serve(self, run, go_fd: int, ack_fd: int) -> None:
        """A child's loop: a byte in, its blocks computed, a byte out; EOF ends it."""
        status = 1
        try:
            become_worker()
            while os.read(go_fd, 1):
                self._compute(run)
                os.write(ack_fd, _GO)
            status = 0
        except Exception:  # noqa: BLE001 - reported here, seen by the parent as a dead child
            traceback.print_exc()
        finally:
            os._exit(status)

    def _compute(self, run) -> None:
        for r0, r1 in run:
            _block(self.p, self._x, self._emb, self._self_cond, r0, r1, self._last)

    def hidden(self, x: np.ndarray, emb: np.ndarray, self_cond) -> np.ndarray:
        """The last hidden layer of a pass, (n, width), in the shared buffer.

        The buffer is overwritten by the next pass. emb is the single
        time-feature row of the whole batch.
        """
        if x.shape[0] != self.n or emb.shape[0] != 1:
            raise ValueError(f"this split runs {self.n} rows with one time, "
                             f"got {x.shape[0]} rows and {emb.shape[0]} times")
        np.copyto(self._x, x)
        np.copyto(self._emb, emb)
        if self._self_cond is not None:
            np.copyto(self._self_cond, self_cond)
        try:
            for _, go_fd, _ in self._children:
                os.write(go_fd, _GO)
        except BrokenPipeError:
            raise ChildProcessError("a row-split worker process died") from None
        self._compute(self._run)
        if any(os.read(ack_fd, 1) != _GO for _, _, ack_fd in self._children):
            raise ChildProcessError("a row-split worker process died")
        return self._last

    def close(self) -> None:
        """End and reap every child; safe to call twice."""
        children, self._children = self._children, []
        for _, go_fd, _ in children:
            os.close(go_fd)  # the child reads EOF and exits
        for pid, _, ack_fd in children:
            os.close(ack_fd)
            os.waitpid(pid, 0)

    def __enter__(self) -> RowSplit:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
