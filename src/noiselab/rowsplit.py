"""Where a sampling chain splits by rows across forked processes.

Every part of a sampling step acts row by row, so a chain run on a
contiguous run of a batch's row blocks (denoiser._row_blocks) gives those
rows of the whole-batch chain. generate() runs each run of row_runs in
its own process through core.fork_map and stacks the final rows.

One matrix product a step grows with the row count: the MLP's output
layer, and the oracle's Sigma @ y. BLAS may pick its kernel by a
product's size (OpenBLAS has one for small products), and kernels round
differently. So split_processes takes only a cut each of whose runs
rounds that product as the whole batch does.
"""

from __future__ import annotations

import functools
import os
from typing import Optional

import numpy as np

from noiselab.core import usable_cpus
from noiselab.denoiser import DenoiserParams, _row_blocks
from noiselab.oracle import GaussianOracle

__all__ = ["row_runs", "split_processes"]


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
        if all(alike(r0, r1) for r0, r1 in row_runs(n_rows, processes)):
            return processes
    return None


def row_runs(n_rows: int, processes: int) -> list[tuple[int, int]]:
    """n_rows cut into `processes` contiguous runs of whole row blocks, as (start, stop)."""
    blocks = _row_blocks(n_rows)
    cuts = [len(blocks) * k // processes for k in range(processes + 1)]
    return [(blocks[a][0], blocks[b - 1][1]) for a, b in zip(cuts[:-1], cuts[1:])]
