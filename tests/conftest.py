"""Prints a one-line PASS/FAIL verdict per acceptance criterion, fails any
test that leaves a child process behind, spies on core.fork_map and
os.fork, measures the peak memory a call allocates, and reads back the
PGM files the package writes."""

import os
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import noiselab.core

CRITERIA = {
    "01": "schedule endpoints, monotonicity, cosine closed form",
    "02": "logSNR shift from input scaling is exactly 2 ln b",
    "03": "forward-process variance law (b^2 - 1) gamma + 1",
    "04": "backprop matches central finite differences",
    "05": "oracle denoising MSE decreases with redundancy",
    "06": "oracle sampling closure reproduces the target covariance",
    "07": "best input scale is non-increasing in redundancy",
    "08": "end-to-end training beats the noise baseline 3.3x in SW",
    "09": "sample files are bit-identical across reruns",
    "10": "optimizer and EMA hand examples",
}

_PATTERN = re.compile(r"test_criterion_(\d\d)")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test after which a child of this process runs on or is unreaped.

    Sweeps and the sampler's row split fork through core.fork_map, which
    must end and reap every child before it returns, also when it raises.
    """
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    if pid == 0:
        pytest.fail("the test left a child process running")
    pytest.fail(f"the test left child process {pid} unreaped (status {status})")


def spy_on_forks(monkeypatch, refuse=False):
    """The part count of every core.fork_map call made in this process from now on.

    The spy replaces fork_map in every noiselab module that imported it.
    It raises AssertionError for a call of several parts inside another
    (a child would then fork again), and, with refuse, for any call of
    several parts.
    """
    real, counts = noiselab.core.fork_map, []

    def spy(fn, parts):
        counts.append(len(parts))
        if len(parts) > 1 and (refuse or noiselab.core._forked):
            raise AssertionError(f"fork_map forked for {len(parts)} parts")
        return real(fn, parts)

    for name, module in list(sys.modules.items()):
        if name.startswith("noiselab.") and getattr(module, "fork_map", None) is real:
            monkeypatch.setattr(module, "fork_map", spy)
    return counts


@pytest.fixture
def forks(monkeypatch):
    """The part counts of the test's fork_map calls, in call order."""
    return spy_on_forks(monkeypatch)


@pytest.fixture
def no_fork(monkeypatch):
    """Fail any fork_map call of several parts."""
    return spy_on_forks(monkeypatch, refuse=True)


def forked_pids(monkeypatch):
    """The pid of every child forked from now on, in fork order."""
    pids, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_reaped(pids):
    """Assert that some child was forked and that every one has been reaped."""
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def traced_peak(fn) -> int:
    """The peak bytes that tracemalloc saw allocated while fn() ran.

    numpy reports its array buffers to tracemalloc, so arrays count as
    well as Python objects.
    """
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def read_pgm(path) -> np.ndarray:
    """The uint8 pixels of a P5 file, asserting the header and size io.write_pgm writes."""
    parts = Path(path).read_bytes().split(b"\n", 3)
    assert len(parts) == 4 and parts[0] == b"P5" and parts[2] == b"255", f"{path} is not 8-bit P5"
    w, h = (int(tok) for tok in parts[1].split())
    pixels = np.frombuffer(parts[3], dtype=np.uint8)
    assert pixels.size == w * h, f"{path} holds {pixels.size} pixels, not {w} x {h}"
    return pixels.reshape(h, w)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    rank = {"PASS": 0, "SKIP": 1, "FAIL": 2}
    for status, verdict in (("passed", "PASS"), ("skipped", "SKIP"),
                            ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(status, []):
            m = _PATTERN.search(getattr(report, "nodeid", ""))
            if m is None:
                continue
            key = m.group(1)
            if rank[verdict] >= rank.get(outcomes.get(key), -1):
                outcomes[key] = verdict
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for key in sorted(CRITERIA):
        verdict = outcomes.get(key, "not run")
        terminalreporter.write_line(f"criterion {key} {verdict}  {CRITERIA[key]}")
