"""Flat-file output: sample/loss/sweep CSVs and binary PGM image grids.

Every writer formats floats with repr so that identical arrays produce
byte-identical files and parsing the text recovers the exact doubles.
"""

from __future__ import annotations

import csv
import itertools
import math
from pathlib import Path

import numpy as np

from .core import as_f64

SWEEP_HEADER = "schedule,scale,metric,wall_ms,seed,status"
SWEEP_ERRORS_HEADER = "schedule,scale,seed,error"
_WRITE_VALUES = 1024  # values write_samples_csv formats and writes at a time


def _fmt(v: float) -> str:
    return repr(float(v))


def write_samples_csv(path, samples: np.ndarray) -> None:
    """One sample per line, comma-separated coordinates, no header."""
    x = as_f64(samples, "samples")
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"samples must be a nonempty 2-D array, got shape {x.shape}")
    # a block at a time keeps the Python floats and text to a block's
    # worth; tolist() gives Python floats, whose repr is _fmt's text
    step = max(1, _WRITE_VALUES // max(1, x.shape[1]))
    with open(path, "w", encoding="ascii", newline="") as fh:
        for r0 in range(0, x.shape[0], step):
            fh.write("".join(",".join(map(repr, row)) + "\n"
                             for row in x[r0:r0 + step].tolist()))


def read_samples_csv(path) -> np.ndarray:
    """The (n, dim) float64 array of a samples file; blank lines are skipped.

    Raises ValueError naming the path for a file with no rows, ragged
    rows, or a field that is not a number (a '#' line included).
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            rows = (line for line in fh if not line.isspace())
            first = next(rows, None)
            if first is None:
                raise ValueError("no sample rows")
            # numpy's C reader rounds decimal text exactly as float() does
            return np.loadtxt(itertools.chain([first], rows), dtype=np.float64,
                              delimiter=",", comments=None, ndmin=2)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def write_loss_csv(path, history) -> None:
    """Training curve rows (step, loss, lr) under a fixed header."""
    lines = ["step,loss,lr"]
    for step, loss, lr in history:
        lines.append(f"{int(step)},{_fmt(loss)},{_fmt(lr)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_loss_csv(path):
    text = Path(path).read_text(encoding="ascii")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "step,loss,lr":
        raise ValueError(f"{path} is not a loss history file")
    out = []
    for ln in lines[1:]:
        step, loss, lr = ln.split(",")
        out.append((int(step), float(loss), float(lr)))
    return out


def write_sweep_csv(path, rows) -> None:
    """Grid results, one row per (schedule, scale) cell.

    Columns: schedule (string), scale and metric (repr floats), wall_ms
    and seed (ints), status (0 ok, 1 failed; failed rows carry metric
    nan). Schedule strings contain commas, so fields are quoted per the
    usual CSV rules. Wall time is the one column reruns may change.
    """
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_HEADER.split(","))
        for r in rows:
            writer.writerow([
                r.schedule, _fmt(r.scale), _fmt(r.metric),
                str(int(r.wall_ms)), str(int(r.seed)), str(int(r.status)),
            ])


def write_sweep_errors_csv(path, rows) -> None:
    """The failed cells of a sweep with their error messages, quoted as CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_ERRORS_HEADER.split(","))
        for r in rows:
            if r.status != 0:
                writer.writerow([r.schedule, _fmt(r.scale), str(int(r.seed)), r.error])


def read_sweep_csv(path):
    """Rows back as plain tuples (schedule, scale, metric, wall_ms, seed, status)."""
    with open(path, "r", encoding="ascii", newline="") as fh:
        records = [row for row in csv.reader(fh) if row]
    if not records or records[0] != SWEEP_HEADER.split(","):
        raise ValueError(f"{path} is not a sweep result file")
    out = []
    for rec in records[1:]:
        if len(rec) != 6:
            raise ValueError(f"{path}: expected 6 columns, got {len(rec)}")
        sched, scale, metric, wall, seed, status = rec
        out.append((sched, float(scale), float(metric), int(wall), int(seed), int(status)))
    return out


def tile_images(flat: np.ndarray, side: int) -> np.ndarray:
    """Arrange flattened side*side images into one near-square mosaic."""
    x = as_f64(flat, "flat")
    if x.ndim != 2 or x.shape[1] != side * side:
        raise ValueError(f"expected (n, {side * side}) array, got shape {x.shape}")
    n = x.shape[0]
    cols = int(math.ceil(math.sqrt(n)))
    rows = int(math.ceil(n / cols))
    grid = np.zeros((rows * side, cols * side))
    for i in range(n):
        r, c = divmod(i, cols)
        grid[r * side:(r + 1) * side, c * side:(c + 1) * side] = x[i].reshape(side, side)
    return grid


def write_pgm(path, image: np.ndarray, value_range: float = 3.0) -> None:
    """Binary P5 8-bit PGM; values clipped to [-value_range, value_range]."""
    img = as_f64(image, "image")
    if img.ndim != 2 or img.size == 0:
        raise ValueError(f"image must be a nonempty 2-D array, got shape {img.shape}")
    if value_range <= 0:
        raise ValueError(f"value_range must be > 0, got {value_range}")
    unit = np.clip((img + value_range) / (2.0 * value_range), 0.0, 1.0)
    pixels = np.round(unit * 255.0).astype(np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())

