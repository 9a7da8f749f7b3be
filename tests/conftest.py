"""Prints a one-line PASS/FAIL verdict per acceptance criterion, and fails any
test that leaves a child process behind."""

import os
import re

import pytest

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

    Sweep workers and the sampler's row split fork; both must end and
    reap every child before they return, also when they raise.
    """
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    if pid == 0:
        pytest.fail("the test left a child process running")
    pytest.fail(f"the test left child process {pid} unreaped (status {status})")


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
