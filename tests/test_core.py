"""Deterministic RNG, Cholesky factor and solve, the shared sigmoid, the CPU
count and fork_map."""

import hashlib
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import noiselab.core
from conftest import assert_reaped, forked_pids
from noiselab.core import (
    DecompositionError,
    NonFiniteError,
    Rng,
    _cho_solve,
    _normals,
    cholesky_factor,
    ensure_finite,
    fork_map,
    sigmoid,
    usable_cpus,
)

# First four draws and digest of the first 1000 draws for seed 42,
# frozen from a reference run. Any platform or version drift in the
# stream shows up here first.
GOLDEN_FIRST4 = [
    -0.1375745667322461,
    0.541870765773665,
    -0.7504021978099477,
    0.11228834653019364,
]
GOLDEN_SHA256 = "c9e0ed012e20462b59f484be129f168454bc946fe281ac86a64573a37f8814ef"


class TestRngDeterminism:
    """Same seed, same stream; different seeds, different streams."""

    def test_two_instances_agree(self):
        a = Rng(42).normal((1000,))
        b = Rng(42).normal((1000,))
        assert np.array_equal(a, b)

    @pytest.mark.golden
    def test_matches_golden_values(self):
        z = Rng(42).normal((1000,))
        np.testing.assert_array_equal(z[:4], GOLDEN_FIRST4)
        assert hashlib.sha256(z.tobytes()).hexdigest() == GOLDEN_SHA256

    @pytest.mark.golden
    def test_bit_identical_across_processes(self):
        code = (
            "import hashlib; from noiselab.core import Rng; "
            "print(hashlib.sha256(Rng(42).normal((1000,)).tobytes()).hexdigest())"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == GOLDEN_SHA256

    def test_seeds_differ(self):
        assert not np.array_equal(Rng(0).normal((100,)), Rng(1).normal((100,)))

    def test_bad_seeds_rejected(self):
        with pytest.raises(ValueError):
            Rng(-1)
        with pytest.raises(ValueError):
            Rng(2**64)
        with pytest.raises(TypeError):
            Rng(1.5)

    def test_integers_range(self):
        draws = Rng(5).integers(7, (1000,))
        assert draws.min() >= 0 and draws.max() <= 6
        assert set(np.unique(draws)) == set(range(7))

    @pytest.mark.parametrize("n", [float("nan"), 2.5, 2.0, True, "3"])
    def test_integers_needs_an_int_n(self, n):
        # a NaN n floored to INT64_MIN, and 2.5 drew from {0, 1, 2}
        with pytest.raises(TypeError, match="integers\\(\\) needs an int n"):
            Rng(0).integers(n, (2,))

    @pytest.mark.parametrize("n", [0, -3])
    def test_integers_needs_n_at_least_one(self, n):
        with pytest.raises(ValueError, match="n >= 1"):
            Rng(0).integers(n, (2,))

    def test_integers_takes_a_numpy_int(self):
        assert Rng(5).integers(np.int64(7), (4,)).tolist() == Rng(5).integers(7, (4,)).tolist()

    @pytest.mark.parametrize("shape", [-1, (-1,), (-2,), (3, -1), (-1, -1)])
    @pytest.mark.parametrize("method", ["normal", "uniform", "integers"])
    def test_negative_dimensions_rejected(self, method, shape):
        # normal(-1) asked for no uniforms and reshaped them to an empty array
        rng = Rng(0)
        draw = getattr(rng, method)
        with pytest.raises(ValueError, match="negative dimensions"):
            draw(4, shape) if method == "integers" else draw(shape)


class TestGaussian:
    """Moment sanity and shape of Rng.normal draws."""

    def test_moments_at_1e5(self):
        z = Rng(7).normal((100000,))
        assert -0.02 <= z.mean() <= 0.02
        assert 0.99 <= z.std() <= 1.01

    def test_requested_shape(self):
        assert Rng(0).normal((3, 4, 5)).shape == (3, 4, 5)

    def test_all_finite(self):
        assert np.all(np.isfinite(Rng(3).normal((10000,))))

    @pytest.mark.parametrize("n", [1, 6, 7])
    def test_normals_rows_are_successive_draws(self, n):
        """_normals on k rows of 2 ceil(n/2) uniforms is k successive normal(n) draws,
        bit for bit: the trainer draws a block of steps' eps this way."""
        k = 3
        z = _normals(Rng(11).uniform((k, 2 * ((n + 1) // 2))), n)
        rng = Rng(11)
        assert z.shape == (k, n)
        for row in z:
            assert row.tobytes() == rng.normal(n).tobytes()


def cholesky_solve(a, b):
    """Solve a x = b for a vector or (n, k) b: the factor and solve the oracle chain runs."""
    b = np.asarray(b, dtype=np.float64)
    x = _cho_solve(cholesky_factor(a), np.ascontiguousarray(b.reshape(len(b), -1)))
    return x.reshape(b.shape)


class TestCholeskySolve:
    """Factor-and-solve against known systems and SPD round trips."""

    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(cholesky_solve(np.eye(3), b), b)

    def test_diagonal(self):
        a = np.diag([4.0, 9.0])
        x = cholesky_solve(a, np.array([8.0, 27.0]))
        np.testing.assert_allclose(x, [2.0, 3.0], rtol=0, atol=1e-14)

    def test_indefinite_rejected(self):
        with pytest.raises(DecompositionError):
            cholesky_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([1.0, 1.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            cholesky_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("n", [2, 8, 32, 64])
    def test_random_spd_roundtrip(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            m = rng.normal(size=(n, n))
            a = m @ m.T + n * np.eye(n)
            b = rng.normal(size=(n, 4))
            x = cholesky_solve(a, b)
            residual = np.max(np.abs(a @ x - b))
            assert residual < 1e-9 * max(1.0, np.max(np.abs(b)))

    def test_factor_reconstructs(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(6, 6))
        a = m @ m.T + 6 * np.eye(6)
        L = cholesky_factor(a)
        np.testing.assert_allclose(L @ L.T, a, atol=1e-10)
        assert np.allclose(L, np.tril(L))

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteError):
            cholesky_solve(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))


class TestFiniteness:
    """No operation silently produces non-finite values."""

    def test_ensure_finite_passthrough(self):
        x = np.arange(4.0)
        assert ensure_finite(x, "x") is x

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_ensure_finite_raises(self, bad):
        with pytest.raises(NonFiniteError):
            ensure_finite(np.array([1.0, bad]), "x")

    def test_random_pipelines_stay_finite(self):
        rng = Rng(11)
        for n in (2, 5, 16):
            z = rng.normal((n, n))
            a = z @ z.T + n * np.eye(n)
            x = cholesky_solve(a, rng.normal((n,)))
            assert np.all(np.isfinite(x))


def where_sigmoid(x):
    """The select form of the logistic function, kept as the reference."""
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    out /= 1.0 + e
    return out


class TestSigmoid:
    """core.sigmoid equals the select form bit for bit."""

    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 36.7, -36.7,
               709.0, -709.0, 710.0, -710.0, 745.0, -745.0, 746.0, -746.0,
               1e-320, -1e-320, 5e-324, -5e-324, 2.2250738585072014e-308]

    def test_special_values(self):
        x = np.array(self.SPECIAL)
        with np.errstate(invalid="ignore"):
            assert sigmoid(x).tobytes() == where_sigmoid(x).tobytes()
        assert np.isnan(sigmoid(np.array([np.nan]))[0])

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 10.0, 100.0, 800.0])
    @pytest.mark.parametrize("shape", [(1,), (7,), (256, 64), (129, 3)])
    def test_random_arrays(self, scale, shape):
        x = scale * np.random.default_rng(int(scale * 1000) + len(shape)).normal(size=shape)
        assert sigmoid(x).tobytes() == where_sigmoid(x).tobytes()

    def test_does_not_modify_input(self):
        x = np.array([-3.0, 0.0, 2.0])
        sigmoid(x)
        np.testing.assert_array_equal(x, [-3.0, 0.0, 2.0])


def reachable_blas(monkeypatch):
    """Let usable_cpus() count CPUs whether or not numpy's OpenBLAS is reachable here."""
    monkeypatch.setattr(noiselab.core, "_openblas_thread_funcs", lambda: ("get", "set"))


class TestUsableCpus:
    @pytest.fixture(autouse=True)
    def blas(self, monkeypatch):
        reachable_blas(monkeypatch)

    def test_affinity_set(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert usable_cpus() == 3

    def test_cpu_count_without_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert usable_cpus() == 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1

    def test_one_in_a_worker(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(noiselab.core, "_forked", True)
        assert usable_cpus() == 1

    def test_one_without_fork(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.delattr(os, "fork", raising=False)
        assert usable_cpus() == 1

    def test_one_where_blas_is_unreachable(self, monkeypatch):
        """one_blas_thread cannot pin the thread count there, so nothing forks."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert usable_cpus() == 2
        monkeypatch.setattr(noiselab.core, "_openblas_thread_funcs", lambda: None)
        assert usable_cpus() == 1


class TestForkMap:
    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        reachable_blas(monkeypatch)

    def test_results_in_part_order(self, monkeypatch):
        pids = forked_pids(monkeypatch)

        def part(k):
            return k, os.getpid(), np.full((k + 1, 2), float(k))

        results = fork_map(part, [0, 1, 2, 3])
        assert [k for k, _, _ in results] == [0, 1, 2, 3]
        assert [pid for _, pid, _ in results] == [os.getpid()] + pids
        for k, _, rows in results:
            assert rows.tobytes() == np.full((k + 1, 2), float(k)).tobytes()
        assert_reaped(pids)

    def test_one_part_runs_here(self, monkeypatch):
        def refuse():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", refuse)
        assert fork_map(lambda part: (part, os.getpid(), usable_cpus()), ["only"]) \
            == [("only", os.getpid(), 3)]

    def test_one_cpu_in_every_part_and_restored(self):
        assert fork_map(lambda part: usable_cpus(), range(3)) == [1, 1, 1]
        assert usable_cpus() == 3

        def fail_here(part):
            if part == 0:
                raise KeyError("caller")
            return usable_cpus()

        with pytest.raises(KeyError):
            fork_map(fail_here, range(2))
        assert usable_cpus() == 3

    def test_child_error_keeps_type_and_message(self):
        def part(k):
            if k:
                raise FloatingPointError(f"part {k}")
            return k

        with pytest.raises(FloatingPointError, match="^part 1$"):
            fork_map(part, range(2))

    def test_first_failing_part_is_raised(self):
        def part(k):
            if k >= 2:
                raise KeyError(f"part {k}")
            return k

        with pytest.raises(KeyError, match="part 2"):
            fork_map(part, range(4))

    def test_callers_error_wins(self):
        def part(k):
            raise LookupError(f"part {k}")

        with pytest.raises(LookupError, match="part 0$"):
            fork_map(part, range(3))

    def test_unpicklable_error_is_named(self):
        class Local(Exception):
            pass

        def part(k):
            if k:
                raise Local("only here")
            return k

        with pytest.raises(ChildProcessError, match="^a worker process raised Local: only here$"):
            fork_map(part, range(2))

    def test_unpicklable_result_is_named(self):
        with pytest.raises(ChildProcessError,
                           match="^a worker process returned function, which does not pickle"):
            fork_map(lambda k: (lambda: k) if k else k, range(2))

    @pytest.mark.parametrize("how, died", [("kill", f"signal {signal.SIGKILL}"),
                                           ("exit", "exit status 3")])
    def test_dead_child(self, monkeypatch, how, died):
        pids = forked_pids(monkeypatch)

        def part(k):
            if k and how == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            if k:
                os._exit(3)
            return k

        with pytest.raises(ChildProcessError, match=rf"^a worker process died \({died}\)$"):
            fork_map(part, range(2))
        assert_reaped(pids)

    def test_failed_part_kills_the_later_ones(self, monkeypatch):
        pids = forked_pids(monkeypatch)

        def part(k):
            if k == 1:
                raise KeyError("part 1")
            if k == 2:
                time.sleep(60)
            return k

        t0 = time.perf_counter()
        with pytest.raises(KeyError, match="part 1"):
            fork_map(part, range(3))
        assert time.perf_counter() - t0 < 10.0
        assert_reaped(pids)

    def test_callers_error_kills_and_reaps_the_children(self, monkeypatch):
        pids = forked_pids(monkeypatch)
        killed, real_kill = [], os.kill

        def kill(pid, sig):
            killed.append((pid, sig))
            real_kill(pid, sig)

        monkeypatch.setattr(os, "kill", kill)

        def part(k):
            if k == 0:
                raise ValueError("caller")
            time.sleep(60)

        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="^caller$"):
            fork_map(part, range(3))
        assert time.perf_counter() - t0 < 10.0
        assert killed == [(pid, signal.SIGKILL) for pid in pids] and len(pids) == 2
        assert_reaped(pids)
