"""Forward diffusion, the variance law, and input normalization."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noiselab.core import Rng
from noiselab.forward import (
    CompoundSchedule,
    DegenerateInputError,
    analytic_variance,
    diffuse,
    effective_gamma,
    normalize_input,
)
from noiselab.schedules import ScheduleSpec, gamma

LINEAR = ScheduleSpec.linear()


def compound(scale=1.0, normalize="off", schedule=LINEAR):
    return CompoundSchedule(schedule=schedule, input_scale=scale, normalize=normalize)


class TestDiffuse:
    """The single forward line sqrt(g) b x0 + sqrt(1-g) eps."""

    def test_hand_value(self):
        """gamma = 0.25 (linear t = 0.75), b = 1, x0 = 2, eps = 1."""
        x_t, g = diffuse(np.array([[2.0]]), 0.75, compound(), np.array([[1.0]]))
        assert x_t[0, 0] == pytest.approx(1.0 + np.sqrt(0.75), abs=1e-15)
        assert g[0] == 0.25

    def test_t_zero_returns_data_exactly(self):
        x0 = np.arange(6.0).reshape(2, 3)
        x_t, _ = diffuse(x0, 0.0, compound(), Rng(0).normal(x0.shape))
        np.testing.assert_array_equal(x_t, x0)

    def test_t_zero_scaled(self):
        x_t, _ = diffuse(np.array([[2.0]]), 0.0, compound(scale=0.5), Rng(0).normal((1, 1)))
        assert x_t[0, 0] == 1.0

    def test_per_example_times(self):
        x0 = np.ones((3, 2))
        x_t, _ = diffuse(x0, np.array([0.0, 0.5, 1.0]), compound(), np.zeros((3, 2)))
        np.testing.assert_allclose(x_t[:, 0], np.sqrt([1.0, 0.5, 1e-9]), rtol=1e-12)

    def test_noise_standardizes_at_t_one(self):
        """At t = 1 the output is (almost) the raw noise draw."""
        x0 = np.full((4, 8), 100.0)
        eps = Rng(3).normal(x0.shape)
        x_t, _ = diffuse(x0, 1.0, compound(), eps)
        np.testing.assert_allclose(x_t, eps, rtol=0, atol=1e-2)

    def test_deterministic_given_seed(self):
        """A function of its inputs alone, which it leaves as they were."""
        x0 = Rng(1).normal((16, 4))
        eps = Rng(9).normal(x0.shape)
        a, _ = diffuse(x0, 0.3, compound(), eps)
        b, _ = diffuse(x0, 0.3, compound(), Rng(9).normal(x0.shape))
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(x0, Rng(1).normal((16, 4)))
        np.testing.assert_array_equal(eps, Rng(9).normal(x0.shape))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"^t has shape \(2,\), expected \(3,\)$"):
            diffuse(np.ones((3, 2)), np.array([0.1, 0.2]), compound(), np.ones((3, 2)))
        with pytest.raises(ValueError, match=r"^eps shape \(2, 2\) does not match x0 \(3, 2\)$"):
            diffuse(np.ones((3, 2)), 0.5, compound(), np.ones((2, 2)))

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
    def test_batch_must_be_2d(self, shape):
        with pytest.raises(ValueError, match=rf"^diffuse expects a \(batch, dim\) x0, "
                                             rf"got shape {re.escape(str(shape))}$"):
            diffuse(np.ones(shape), 0.5, compound(), np.ones(shape))

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0)], ids=["shape0-eps", "shape1-eps"])
    def test_empty_batch_rejected(self, shape):
        with pytest.raises(ValueError, match=r"diffuse needs a nonempty batch, got x0 of shape"):
            diffuse(np.zeros(shape), 0.5, compound(), np.zeros(shape))


class TestVarianceLaw:
    """Marginal variance of x_t is (b^2 - 1) gamma + 1 for unit-variance data."""

    def test_hand_value(self):
        assert analytic_variance(0.7, 0.5) == pytest.approx(0.475, abs=1e-15)

    def test_unit_scale_is_one(self):
        g = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(analytic_variance(g, 1.0), np.ones(11), atol=1e-15)

    def test_gamma_zero_is_one(self):
        assert analytic_variance(0.0, 0.3) == 1.0

    @pytest.mark.parametrize("g", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("b", [0.1, 0.3, 0.5, 0.7, 1.0])
    def test_monte_carlo_grid(self, g, b):
        """Empirical variance over 1e5 draws matches the law within 2%."""
        n = 100_000
        rng = Rng(int(1000 * g) * 101 + int(100 * b))
        x0 = rng.normal((n, 1))
        x_t, _ = diffuse(x0, 1.0 - g, compound(scale=b), rng.normal((n, 1)))
        empirical = float(x_t.var())
        assert empirical == pytest.approx(analytic_variance(g, b), rel=0.02)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            analytic_variance(1.5, 1.0)
        with pytest.raises(ValueError):
            analytic_variance(0.5, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_gamma_rejected(self, bad):
        # "g < 0 or g > 1" is false for NaN, which then came out as the variance
        with pytest.raises(ValueError, match=r"gamma_t must lie in \[0, 1\]"):
            analytic_variance(bad, 0.5)
        with pytest.raises(ValueError, match=r"gamma_t must lie in \[0, 1\]"):
            analytic_variance(np.array([0.5, bad]), 0.5)
        with pytest.raises(ValueError, match=r"gamma_t must lie in \[0, 1\]"):
            effective_gamma(bad, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_scale_rejected(self, bad):
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            analytic_variance(0.5, bad)
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            effective_gamma(0.5, bad)

    def test_analytic_normalize_rejects_nan_gamma(self):
        x = np.array([[1.0, -2.0]])
        with pytest.raises(ValueError, match=r"gamma_t must lie in \[0, 1\]"):
            normalize_input(x, math.nan, compound(scale=0.5, normalize="analytic"))
        with pytest.raises(ValueError, match=r"gamma_t must lie in \[0, 1\]"):
            normalize_input(x, np.array([math.nan]), compound(scale=0.5, normalize="analytic"))


class TestNormalizeInput:
    """The three normalization modes."""

    def test_off_identity(self):
        x = np.array([[3.0, -3.0]])
        np.testing.assert_array_equal(normalize_input(x, 0.5, compound(normalize="off")), x)

    def test_empirical_hand_value(self):
        x = np.array([[3.0, -3.0, 3.0, -3.0]])
        got = normalize_input(x, 0.5, compound(normalize="empirical"))
        np.testing.assert_array_equal(got, [[1.0, -1.0, 1.0, -1.0]])

    def test_empirical_no_mean_subtraction(self):
        """Division only: a shifted example keeps its shifted shape."""
        x = np.array([[1.0, 3.0]])
        got = normalize_input(x, 0.5, compound(normalize="empirical"))
        np.testing.assert_array_equal(got, [[1.0, 3.0]])

    def test_empirical_degenerate(self):
        with pytest.raises(DegenerateInputError):
            normalize_input(np.ones((2, 3)), 0.5, compound(normalize="empirical"))

    def test_analytic_unit_scale_identity(self):
        x = Rng(0).normal((4, 3))
        got = normalize_input(x, 0.7, compound(scale=1.0, normalize="analytic"))
        np.testing.assert_array_equal(got, x)

    def test_analytic_hand_value(self):
        x = np.array([[1.0, 2.0]])
        got = normalize_input(x, 0.7, compound(scale=0.5, normalize="analytic"))
        np.testing.assert_allclose(got, x / np.sqrt(0.475), rtol=1e-15)

    def test_analytic_per_example_gamma(self):
        x = np.ones((2, 2))
        got = normalize_input(x, np.array([0.0, 1.0]), compound(scale=0.5, normalize="analytic"))
        np.testing.assert_allclose(got[0], [1.0, 1.0], rtol=1e-15)
        np.testing.assert_allclose(got[1], [2.0, 2.0], rtol=1e-15)

    def test_analytic_scalar_gamma_matches_per_example(self):
        x = Rng(0).normal((4, 3))
        cs = compound(scale=0.5, normalize="analytic")
        np.testing.assert_array_equal(normalize_input(x, 0.7, cs),
                                      normalize_input(x, np.full(4, 0.7), cs))

    @pytest.mark.parametrize("normalize", ["off", "empirical", "analytic"])
    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
    def test_batch_must_be_2d(self, normalize, shape):
        with pytest.raises(ValueError, match=rf"^normalize_input expects a \(batch, dim\) x_t, "
                                             rf"got shape {re.escape(str(shape))}$"):
            normalize_input(np.ones(shape), 0.5, compound(normalize=normalize))

    def test_analytic_gamma_shape_rejected(self):
        with pytest.raises(ValueError, match=r"^gamma_t has shape \(3,\), expected \(2,\)$"):
            normalize_input(np.ones((2, 2)), np.full(3, 0.5), compound(normalize="analytic"))

    def test_empirical_restores_unit_std(self):
        rng = Rng(5)
        x0 = rng.normal((64, 32))
        x_t, g = diffuse(x0, 0.4, compound(scale=0.2), rng.normal(x0.shape))
        normed = normalize_input(x_t, g, compound(scale=0.2, normalize="empirical"))
        np.testing.assert_allclose(normed.std(axis=1), np.ones(64), rtol=1e-12)


class TestScalingScheduleEquivalence:
    """Scaled-and-analytic-normalized equals unit scale at gamma_eff."""

    @pytest.mark.parametrize("b", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("g", [0.1, 0.5, 0.9])
    def test_elementwise(self, b, g):
        rng = Rng(int(10 * b) * 13 + int(10 * g))
        x0 = rng.normal((8, 5))
        eps = rng.normal((8, 5))
        t = 1.0 - g  # linear schedule: gamma(t) = 1 - t
        x_t, g_t = diffuse(x0, t, compound(scale=b), eps)
        lhs = normalize_input(x_t, g_t, compound(scale=b, normalize="analytic"))
        g_eff = effective_gamma(g, b)
        rhs = np.sqrt(g_eff) * x0 + np.sqrt(1.0 - g_eff) * eps
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_effective_gamma_values(self):
        assert effective_gamma(0.5, 1.0) == pytest.approx(0.5, abs=1e-15)
        # b = 0.5, gamma = 0.7: 0.25*0.7 / 0.475
        assert effective_gamma(0.7, 0.5) == pytest.approx(0.175 / 0.475, rel=1e-14)

    @pytest.mark.parametrize("b", [0.01, 0.1, 0.3, 0.61, 0.7, 0.9, 1.0])
    def test_effective_gamma_stays_in_range_at_one(self, b):
        # the rounded b^2 / ((b^2 - 1) + 1) exceeded 1 for about a quarter of b
        assert effective_gamma(1.0, b) == pytest.approx(1.0, rel=1e-12)
        assert effective_gamma(1.0, b) <= 1.0
        assert np.all(effective_gamma(np.array([0.0, 0.5, 1.0]), b) <= 1.0)

    def test_effective_gamma_logsnr_shift(self):
        """gamma_eff realizes exactly the 2 ln b logSNR shift."""
        g = np.linspace(0.01, 0.99, 57)
        for b in (0.1, 0.6):
            ge = effective_gamma(g, b)
            lhs = np.log(ge / (1.0 - ge))
            rhs = np.log(g / (1.0 - g)) + 2.0 * np.log(b)
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-9)


class TestCompoundValidation:
    def test_scale_range(self):
        with pytest.raises(ValueError):
            compound(scale=0.0)
        with pytest.raises(ValueError):
            compound(scale=1.5)

    def test_normalize_mode(self):
        with pytest.raises(ValueError):
            compound(normalize="l2")

    @pytest.mark.parametrize("b", [1e-9, 5e-324])
    def test_tiny_scale_rejected_under_analytic(self, b):
        # (b^2 - 1) gamma + 1 rounds to 0 at gamma = 1, and normalize_input
        # would divide by it mid-run
        assert analytic_variance(1.0, b) == 0.0
        with pytest.raises(ValueError, match=rf"^input_scale {b!r} is too small for "
                                             rf"normalize = analytic"):
            compound(scale=b, normalize="analytic")
        compound(scale=b, normalize="off")
        compound(scale=1e-8, normalize="analytic")

    def test_table_presets_representable(self):
        """The preset scale column with its linear and shifted-cosine rows."""
        for b in (1.0, 0.6, 0.5, 0.2, 0.1):
            compound(scale=b)
        compound(scale=0.2, schedule=ScheduleSpec.cosine(0.2, 1.0, 1.0))


_SPECS = st.sampled_from([ScheduleSpec.linear(), ScheduleSpec.cosine(0.0, 1.0, 1.0),
                          ScheduleSpec.cosine(0.2, 1.0, 3.0), ScheduleSpec.sigmoid(-3.0, 3.0, 0.9),
                          ScheduleSpec.sigmoid(0.0, 3.0, 0.3)])
_T = st.floats(0.0, 1.0)
# The paper's scales are 0.1-1. Below about 0.02 the analytic variance
# (b^2 - 1) gamma + 1 cancels near gamma = 1 and loses more than 1e-12.
_B = st.floats(0.05, 1.0)


class TestForwardProperties:
    """The variance law and finding 3 over random schedules, times and scales."""

    @settings(max_examples=100, deadline=None)
    @given(spec=_SPECS, t=_T, b=_B, signs=st.lists(st.sampled_from([-1.0, 1.0]),
                                                    min_size=4, max_size=4))
    def test_second_moment_is_the_variance_law(self, spec, t, b, signs):
        # unit-variance x0 and eps that are exactly uncorrelated: the mean
        # square of x_t has no cross term, so it is the law up to rounding
        sign = np.array(signs)[:, None]
        x0 = sign * np.array([[1.0], [1.0], [-1.0], [-1.0]])
        eps = sign * np.array([[1.0], [-1.0], [1.0], [-1.0]])
        x_t, _ = diffuse(x0, t, compound(scale=b, schedule=spec), eps)
        g = gamma(spec, t)
        assert float(np.mean(x_t**2)) == pytest.approx(analytic_variance(g, b),
                                                      rel=1e-12, abs=0.0)
        assert analytic_variance(g, b) == pytest.approx(b * b * g + (1.0 - g), rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(spec=_SPECS, t=_T, b=_B, seed=st.integers(0, 2**32 - 1))
    def test_finding_3_scaling_is_a_schedule_change(self, spec, t, b, seed):
        """normalize = analytic at scale b is the unit-scale process at effective_gamma."""
        rng = Rng(seed)
        x0, eps = rng.normal((6, 3)), rng.normal((6, 3))
        x_t, g_t = diffuse(x0, t, compound(scale=b, schedule=spec), eps)
        # the gamma the scaled process ran at: the scalar gamma(spec, t) can
        # differ from diffuse's array form in the last ulp
        g = float(g_t[0])
        # sqrt(1 - gamma_eff) turns the last ulp of gamma_eff into more
        # than 1e-12 once 1 - gamma_eff is below about 1e-6
        assume(g <= 1.0 - 1e-6)
        lhs = normalize_input(x_t, g_t, compound(scale=b, normalize="analytic", schedule=spec))
        g_eff = effective_gamma(g, b)
        unit, _ = diffuse(x0, 0.0, compound(), eps)  # x_t = x0 at t = 0
        rhs = math.sqrt(g_eff) * unit + math.sqrt(1.0 - g_eff) * eps
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)
