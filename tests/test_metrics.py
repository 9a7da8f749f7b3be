"""Metric correctness: hand values, statistical bands, registry rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from noiselab.core import Rng
from noiselab.datasets import ar1_covariance
from noiselab.metrics import (
    DEFAULT_PROJECTION_SEED,
    METRIC_NAMES,
    _quantiles,
    covariance_error,
    mmd_rbf,
    redundancy_curve,
    sliced_wasserstein,
)


def sliced_wasserstein_whole(a, b, n_proj=64):
    """sliced_wasserstein projecting and sorting every direction at once."""
    dirs = Rng(DEFAULT_PROJECTION_SEED).normal((n_proj, a.shape[1]))
    norms = np.sqrt(np.sum(dirs**2, axis=1, keepdims=True))
    norms[norms < 1e-12] = 1.0
    dirs /= norms
    m = max(a.shape[0], b.shape[0])
    probs = (np.arange(m) + 0.5) / m
    proj_a = np.sort(a @ dirs.T, axis=0)
    proj_b = np.sort(b @ dirs.T, axis=0)
    total = 0.0
    for j in range(n_proj):
        qa = _quantiles(proj_a[:, j], probs)
        qb = _quantiles(proj_b[:, j], probs)
        total += float(np.sqrt(np.mean((qa - qb) ** 2)))
    return total / n_proj


def sliced_wasserstein_chunked(a, b, n_proj=64):
    """sliced_wasserstein sorting a copy of each chunk and gathering every set's quantiles."""
    dirs = Rng(DEFAULT_PROJECTION_SEED).normal((n_proj, a.shape[1]))
    norms = np.sqrt(np.sum(dirs**2, axis=1, keepdims=True))
    norms[norms < 1e-12] = 1.0
    dirs /= norms
    m = max(a.shape[0], b.shape[0])
    probs = (np.arange(m) + 0.5) / m
    total = 0.0
    for j0 in range(0, n_proj, 8):
        chunk = dirs[j0:j0 + 8].T
        proj_a = np.sort(a @ chunk, axis=0)
        proj_b = np.sort(b @ chunk, axis=0)
        for j in range(chunk.shape[1]):
            qa = _quantiles(proj_a[:, j], probs)
            qb = _quantiles(proj_b[:, j], probs)
            total += float(np.sqrt(np.mean((qa - qb) ** 2)))
    return total / n_proj


class TestSlicedWasserstein:
    def test_identical_sets_zero(self):
        x = Rng(0).normal((50, 3))
        assert sliced_wasserstein(x, x.copy(), n_proj=16) == 0.0

    def test_permuted_sets_zero(self):
        x = Rng(1).normal((64, 4))
        assert sliced_wasserstein(x, x[::-1].copy(), n_proj=16) == pytest.approx(0.0, abs=1e-12)

    def test_point_masses_1d(self):
        """Deltas at 0 and at c are exactly |c| apart in 1-D W2."""
        a = np.zeros((10, 1))
        b = np.full((10, 1), 2.5)
        assert sliced_wasserstein(a, b, n_proj=8) == pytest.approx(2.5, abs=1e-12)

    def test_shifted_gaussians_band(self):
        """N(0,I) vs N(mu,I), ||mu|| = 1: mean |<mu, theta>| = 2/pi in 2-D."""
        rng = Rng(100)
        a = rng.normal((10_000, 2))
        b = rng.normal((10_000, 2)) + np.array([1.0, 0.0])
        val = sliced_wasserstein(a, b, n_proj=128)
        assert 0.5 < val < 0.95

    def test_symmetry(self):
        x = Rng(5).normal((40, 3))
        y = Rng(6).normal((60, 3)) + 0.5
        assert sliced_wasserstein(x, y, n_proj=32) == pytest.approx(
            sliced_wasserstein(y, x, n_proj=32), abs=1e-12
        )

    def test_distinct_sets_positive(self):
        x = Rng(7).normal((30, 2))
        y = x.copy()
        y[0, 0] += 1.0
        assert sliced_wasserstein(x, y, n_proj=8) > 1e-6

    def test_unequal_sizes_consistent_with_equal(self):
        """Quantile path agrees with sorted matching on a matched subset."""
        rng = Rng(8)
        a = rng.normal((5_000, 2))
        b = rng.normal((7_500, 2)) + 0.3
        b_trim = b[:5_000]
        v_unequal = sliced_wasserstein(a, b, n_proj=64)
        v_equal = sliced_wasserstein(a, b_trim, n_proj=64)
        assert v_unequal == pytest.approx(v_equal, abs=0.05)

    def test_deterministic_default_seed(self):
        x = Rng(9).normal((50, 3))
        y = Rng(10).normal((50, 3))
        assert sliced_wasserstein(x, y) == sliced_wasserstein(x, y)

    def test_explicit_rng_changes_projections(self):
        x = Rng(11).normal((200, 3))
        y = Rng(12).normal((200, 3)) + 0.2
        a = sliced_wasserstein(x, y, n_proj=4, rng=Rng(1))
        b = sliced_wasserstein(x, y, n_proj=4, rng=Rng(2))
        assert a != b

    def test_chunks_match_whole_matrix_bitwise(self):
        a = Rng(13).normal((16384, 2))
        b = 0.8 * Rng(14).normal((16384, 2)) + 0.1
        assert sliced_wasserstein(a, b) == sliced_wasserstein_whole(a, b)

    @settings(max_examples=40, deadline=None)
    @given(n_a=st.integers(2, 300), n_b=st.integers(2, 300), dim=st.integers(1, 64),
           n_proj=st.integers(1, 40), seed=st.integers(0, 2**32))
    def test_chunks_match_whole_matrix(self, n_a, n_b, dim, n_proj, seed):
        a = Rng(seed).normal((n_a, dim))
        b = Rng(seed + 1).normal((n_b, dim)) + 0.25
        assert sliced_wasserstein(a, b, n_proj=n_proj) == pytest.approx(
            sliced_wasserstein_whole(a, b, n_proj), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(n_a=st.integers(2, 300), n_b=st.one_of(st.none(), st.integers(2, 300)),
           dim=st.integers(1, 8), n_proj=st.integers(1, 41).filter(lambda k: k % 8),
           seed=st.integers(0, 2**32))
    def test_in_place_sort_matches_sorted_copies_bitwise(self, n_a, n_b, dim, n_proj, seed):
        """n_b None draws a set of n_a rows: no quantile gather on either side."""
        a = Rng(seed).normal((n_a, dim))
        b = Rng(seed + 1).normal((n_a if n_b is None else n_b, dim)) - 0.5
        assert sliced_wasserstein(a, b, n_proj=n_proj) == sliced_wasserstein_chunked(a, b, n_proj)

    def test_peak_memory(self):
        """One chunk's projections alive at a time, sorted in place.

        tracemalloc peaks on two (16384, 2) sets: 4.7 MB with the previous
        chunk's projections and the sorted copies, 2.5 MB without.
        """
        a = Rng(15).normal((16384, 2))
        b = Rng(16).normal((16384, 2))
        assert traced_peak(lambda: sliced_wasserstein(a, b)) < 3.5e6

    def test_validation(self):
        with pytest.raises(ValueError):
            sliced_wasserstein(np.zeros((4, 2)), np.zeros((4, 3)))
        with pytest.raises(ValueError):
            sliced_wasserstein(np.zeros((1, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            sliced_wasserstein(np.zeros((4, 2)), np.zeros((4, 2)), n_proj=0)


class TestMmdRbf:
    def test_coincident_point_masses_zero(self):
        a = np.ones((5, 2))
        assert mmd_rbf(a, np.ones((7, 2))) == pytest.approx(0.0, abs=1e-12)

    def test_separated_clusters_hand_value(self):
        """Two tight clusters far apart: within-terms 1, cross-term 0."""
        a = np.zeros((10, 2))
        b = np.full((10, 2), 50.0)
        val = mmd_rbf(a, b, bandwidth=1.0)
        assert val == pytest.approx(2.0, abs=1e-12)
        assert val > 0.5

    def test_two_point_hand_computation(self):
        """a = b = {0, 1} in 1-D, bandwidth 1.

        Within-terms each contribute k(0,1) = e^{-1/2} (diagonal excluded);
        the cross-term is (1 + e^{-1/2}). Total: e^{-1/2} - 1, negative
        because the unbiased estimator may dip below zero on finite sets.
        """
        a = np.array([[0.0], [1.0]])
        b = np.array([[0.0], [1.0]])
        want = np.exp(-0.5) - 1.0
        assert mmd_rbf(a, b, 1.0) == pytest.approx(want, abs=1e-12)

    def test_null_distribution_band(self):
        """Disjoint halves of one draw: estimate within 3 permutation stds."""
        rng = Rng(42)
        pool = rng.normal((400, 3))
        observed = mmd_rbf(pool[:200], pool[200:], bandwidth=1.0)

        perm = np.random.default_rng(0)
        null_vals = []
        for _ in range(200):
            order = perm.permutation(400)
            null_vals.append(mmd_rbf(pool[order[:200]], pool[order[200:]], bandwidth=1.0))
        null_std = float(np.std(null_vals))
        assert abs(observed) < 3.0 * null_std

    def test_unbiasedness_over_trials(self):
        """Mean over 200 same-distribution splits is near zero."""
        rng = Rng(77)
        vals = []
        for _ in range(200):
            x = rng.normal((60, 2))
            y = rng.normal((60, 2))
            vals.append(mmd_rbf(x, y, bandwidth=1.0))
        vals = np.asarray(vals)
        se = float(np.std(vals) / np.sqrt(len(vals)))
        assert abs(float(np.mean(vals))) < 3.0 * se

    def test_detects_shift(self):
        rng = Rng(13)
        x = rng.normal((300, 2))
        y = rng.normal((300, 2)) + 1.5
        assert mmd_rbf(x, y, bandwidth=1.0) > 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            mmd_rbf(np.zeros((1, 2)), np.zeros((5, 2)))
        with pytest.raises(ValueError):
            mmd_rbf(np.zeros((5, 2)), np.zeros((5, 2)), bandwidth=0.0)


class TestCovarianceError:
    def test_exact_construction_small(self):
        sigma = ar1_covariance(8, 0.6)
        rng = Rng(3)
        L = np.linalg.cholesky(sigma)
        x = rng.normal((100_000, 8)) @ L.T
        assert covariance_error(x, sigma) < 0.05

    def test_zero_samples_vs_identity(self):
        assert covariance_error(np.zeros((10, 4)), np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_permutation_invariant(self):
        x = Rng(4).normal((50, 3))
        sigma = np.eye(3)
        assert covariance_error(x, sigma) == pytest.approx(
            covariance_error(x[::-1].copy(), sigma), abs=1e-14
        )

    def test_perfect_match_is_zero(self):
        """Samples engineered so np.cov equals sigma_ref exactly."""
        x = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        sigma = np.array([[np.cov(x.T, ddof=1)]]).reshape(1, 1)
        assert covariance_error(x, sigma) == 0.0

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            covariance_error(np.zeros((4, 4)), np.eye(4))

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            covariance_error(np.zeros((10, 3)), np.eye(4))
        with pytest.raises(ValueError):
            covariance_error(np.zeros((10, 2)), np.zeros((2, 2)))


class TestRedundancyCurve:
    RHOS = (0.0, 0.25, 0.5, 0.75, 0.9)
    GAMMAS = (0.0, 0.3, 0.5, 0.7, 0.9)

    def test_shape(self):
        table = redundancy_curve(self.RHOS, self.GAMMAS, dim=8)
        assert table.shape == (len(self.GAMMAS), len(self.RHOS))

    def test_gamma_zero_row_is_one(self):
        table = redundancy_curve(self.RHOS, self.GAMMAS, dim=8)
        np.testing.assert_allclose(table[0], np.ones(len(self.RHOS)), atol=1e-12)

    def test_rho_zero_column_matches_scalar_formula(self):
        table = redundancy_curve(self.RHOS, self.GAMMAS, dim=8, scale=0.7)
        g = np.asarray(self.GAMMAS)
        a2 = g * 0.7**2
        s2 = 1.0 - g
        np.testing.assert_allclose(table[:, 0], s2 / (a2 + s2), atol=1e-12)

    def test_rows_non_increasing_in_rho(self):
        table = redundancy_curve(self.RHOS, self.GAMMAS, dim=16)
        diffs = np.diff(table, axis=1)
        assert np.all(diffs <= 1e-15)

    def test_interior_rows_strictly_decreasing(self):
        table = redundancy_curve(self.RHOS, (0.3, 0.5, 0.7, 0.9), dim=16)
        assert np.all(np.diff(table, axis=1) < 0.0)


class TestMetricReport:
    """The metric names a sweep may report."""

    def test_registry(self):
        assert set(METRIC_NAMES) == {"sliced_wasserstein", "mmd_rbf", "covariance_error"}
