"""Prints a one-line PASS/FAIL verdict per acceptance criterion, fails any
test that leaves a child process behind, spies on core.fork_map, and
measures the peak memory a call allocates."""

import os
import re
import sys
import tracemalloc

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
