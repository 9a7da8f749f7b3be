"""Schedule shapes, logSNR algebra, and the time grid."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noiselab.schedules import (
    CLIP_MIN,
    REFERENCE_SPECS,
    ScheduleSpec,
    format_schedule,
    gamma,
    log_snr,
    parse_schedule,
    time_grid,
)

SCALE_GRID = [round(0.1 * k, 1) for k in range(1, 11)]


class TestGammaValues:
    """Point values and exact endpoint normalization."""

    def test_linear(self):
        assert gamma(ScheduleSpec.linear(), 0.3) == pytest.approx(0.7, abs=1e-15)

    def test_cosine_midpoint(self):
        assert gamma(ScheduleSpec.cosine(0, 1, 1), 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_sigmoid_midpoint(self):
        assert gamma(ScheduleSpec.sigmoid(-3, 3, 1), 0.5) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=format_schedule)
    def test_endpoints_exact(self, spec):
        assert gamma(spec, 0.0) == 1.0
        assert gamma(spec, 1.0) == CLIP_MIN

    def test_cosine_identity(self):
        """Cosine(0, 1, 1) is cos^2(pi t / 2) wherever the clip is inactive."""
        t = np.linspace(0.0, 0.999, 1000)
        got = gamma(ScheduleSpec.cosine(0, 1, 1), t)
        want = np.cos(np.pi * t / 2.0) ** 2
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=format_schedule)
    def test_monotone_nonincreasing(self, spec):
        t = np.linspace(0.0, 1.0, 1001)
        g = gamma(spec, t)
        diffs = np.diff(g)
        assert np.all(diffs <= 0.0)
        interior = (g[:-1] < 1.0) & (g[1:] > CLIP_MIN)
        assert np.all(diffs[interior] < 0.0)

    @pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=format_schedule)
    def test_range(self, spec):
        g = gamma(spec, np.linspace(0.0, 1.0, 257))
        assert np.all(g >= CLIP_MIN) and np.all(g <= 1.0)

    def test_vector_matches_scalar(self):
        spec = ScheduleSpec.sigmoid(0, 3, 0.7)
        t = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        vec = gamma(spec, t)
        np.testing.assert_array_equal(vec, [gamma(spec, ti) for ti in t])

    @pytest.mark.parametrize("t", [-0.1, 1.1, np.nan])
    def test_t_out_of_range(self, t):
        with pytest.raises(ValueError):
            gamma(ScheduleSpec.linear(), t)

    def test_vector_t_out_of_range(self):
        with pytest.raises(ValueError):
            gamma(ScheduleSpec.linear(), np.array([0.5, 1.2]))


class TestSpecValidation:
    """Constructor rejects malformed hyperparameters."""

    def test_cosine_window(self):
        with pytest.raises(ValueError):
            ScheduleSpec.cosine(0.5, 0.2, 1.0)
        with pytest.raises(ValueError):
            ScheduleSpec.cosine(-0.1, 1.0, 1.0)

    def test_sigmoid_window(self):
        with pytest.raises(ValueError):
            ScheduleSpec.sigmoid(3.0, -3.0, 1.0)

    def test_tau_positive(self):
        with pytest.raises(ValueError):
            ScheduleSpec.cosine(0.0, 1.0, 0.0)

    @pytest.mark.parametrize("kind", ["cosine", "sigmoid"])
    @pytest.mark.parametrize("field", ["start", "end", "tau"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, kind, field, value):
        # nan passes every comparison-based check, and gamma was then nan
        shape = dict(start=0.0, end=1.0, tau=1.0)
        shape[field] = value
        with pytest.raises(ValueError, match="finite"):
            ScheduleSpec(kind, **shape)

    @pytest.mark.parametrize("kind, start, end, tau", [
        ("sigmoid", -4.0, -3.0, 2.0**-8),  # both ends underflow to 0
        ("sigmoid", 5.0, 10.0, 0.01),  # both ends round to 1
        ("cosine", 0.0, 1e-9, 1.0),  # both ends round to 1
    ])
    def test_flat_curve_rejected(self, kind, start, end, tau):
        # gamma divides by the curve's move across the window: 0/0 = nan
        with pytest.raises(ValueError, match="flat"):
            ScheduleSpec(kind, start, end, tau)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ScheduleSpec("quadratic")

    def test_linear_takes_no_params(self):
        with pytest.raises(ValueError):
            ScheduleSpec("linear", start=0.0, end=1.0, tau=1.0)


class TestLogSnr:
    """logSNR values and the exact input-scale shift."""

    def test_balanced_point_is_zero(self):
        assert log_snr(ScheduleSpec.linear(), 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_linear_point(self):
        got = log_snr(ScheduleSpec.linear(), 0.1)
        assert got == pytest.approx(math.log(9.0), rel=1e-12)

    def test_scale_shift_point(self):
        got = log_snr(ScheduleSpec.linear(), 0.5, scale=0.5)
        assert got == pytest.approx(2.0 * math.log(0.5), rel=1e-12)

    def test_gamma_one_rejected(self):
        with pytest.raises(ValueError):
            log_snr(ScheduleSpec.linear(), 0.0)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            log_snr(ScheduleSpec.linear(), 0.5, scale=0.0)

    @pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=format_schedule)
    @pytest.mark.parametrize("scale", SCALE_GRID)
    def test_shift_identity(self, spec, scale):
        """logSNR at scale b minus logSNR at scale 1 is 2 ln b everywhere."""
        t = np.linspace(0.001, 0.999, 211)
        shift = log_snr(spec, t, scale) - log_snr(spec, t, 1.0)
        np.testing.assert_allclose(shift, 2.0 * math.log(scale), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=format_schedule)
    def test_monotone_decreasing_in_t(self, spec):
        """Strictly decreasing until the clip floor flattens the tail."""
        t = np.linspace(0.01, 0.99, 99)
        g = gamma(spec, t)
        vals = log_snr(spec, t)
        unclipped = g[1:] > CLIP_MIN
        assert np.all(np.diff(vals) <= 0.0)
        assert np.all(np.diff(vals)[unclipped] < 0.0)


class TestTimeGrid:
    """Reverse-time pair layout."""

    def test_single_step(self):
        assert time_grid(1) == ((1.0, 0.0),)

    def test_four_steps(self):
        pairs = time_grid(4)
        np.testing.assert_allclose(
            pairs, [(1.0, 0.75), (0.75, 0.5), (0.5, 0.25), (0.25, 0.0)], atol=1e-15
        )

    def test_thousand_steps(self):
        pairs = time_grid(1000)
        assert len(pairs) == 1000
        assert pairs[0][0] == 1.0
        assert pairs[-1][1] == 0.0
        assert pairs[-1][0] == pytest.approx(0.001, abs=1e-12)

    def test_contiguous_and_decreasing(self):
        pairs = time_grid(37)
        for (now, nxt), (now2, _) in zip(pairs, pairs[1:]):
            assert nxt == now2
            assert nxt < now

    @pytest.mark.parametrize("steps", [0, -3])
    def test_bad_steps(self, steps):
        with pytest.raises(ValueError):
            time_grid(steps)


class TestStringForms:
    """CLI spec strings parse and round-trip."""

    def test_parse_linear(self):
        assert parse_schedule("linear") == ScheduleSpec.linear()

    def test_parse_cosine(self):
        assert parse_schedule("cosine:0.2,1,1") == ScheduleSpec.cosine(0.2, 1.0, 1.0)

    def test_parse_sigmoid(self):
        assert parse_schedule("sigmoid:-3,3,0.9") == ScheduleSpec.sigmoid(-3.0, 3.0, 0.9)

    @pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=format_schedule)
    def test_round_trip(self, spec):
        assert parse_schedule(format_schedule(spec)) == spec

    @pytest.mark.parametrize(
        "text",
        ["", "linear:1", "cosine", "cosine:1", "cosine:0,1", "cosine:a,b,c",
         "quadratic:0,1,1", "sigmoid:3,-3,1"],
    )
    def test_bad_strings(self, text):
        with pytest.raises(ValueError):
            parse_schedule(text)


@st.composite
def valid_specs(draw, kinds=("linear", "cosine", "sigmoid")):
    """Any spec the constructor accepts, shapes well outside the reference set."""
    kind = draw(st.sampled_from(kinds))
    if kind == "linear":
        return ScheduleSpec.linear()
    lo, hi = (0.0, 1.0) if kind == "cosine" else (-50.0, 50.0)
    start, end = (draw(st.floats(lo, hi, allow_nan=False)) for _ in range(2))
    tau = draw(st.floats(1e-3, 100.0))
    try:
        return ScheduleSpec(kind, start, end, tau)
    except ValueError:
        assume(False)


class TestScheduleProperties:
    """Invariants over random valid specs, not only REFERENCE_SPECS."""

    @settings(max_examples=100, deadline=None)
    @given(spec=valid_specs(), ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    def test_exact_endpoints_and_non_increasing(self, spec, ts):
        assert gamma(spec, 0.0) == 1.0
        assert gamma(spec, 1.0) == CLIP_MIN
        grid = np.sort(np.concatenate([np.linspace(0.0, 1.0, 257), ts]))
        g = gamma(spec, grid)
        assert np.all(np.diff(g) <= 0.0)
        assert np.all((g >= CLIP_MIN) & (g <= 1.0))

    @settings(max_examples=100, deadline=None)
    @given(spec=valid_specs())
    def test_format_then_parse_is_identity(self, spec):
        assert parse_schedule(format_schedule(spec)) == spec


def assert_one_gamma_per_t(spec, ts):
    """Scalar and array t give the same bits, and both forms hit the exact ends."""
    np.testing.assert_array_equal([gamma(spec, float(t)) for t in ts], gamma(spec, ts))
    for t, want in ((0.0, 1.0), (1.0, CLIP_MIN)):
        assert gamma(spec, t) == want
        assert gamma(spec, np.array([t]))[0] == want


class TestOneGammaPerT:
    """One t means one gamma, whether it comes alone (the sampler's grid once
    did) or in an array (training's batches)."""

    @pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=format_schedule)
    def test_reference_specs(self, spec):
        assert_one_gamma_per_t(spec, np.random.default_rng(0).random(2000))

    @settings(max_examples=100, deadline=None)
    @given(spec=valid_specs(kinds=("cosine", "sigmoid")),
           ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
    def test_cosine_and_sigmoid_specs(self, spec, ts):
        assert_one_gamma_per_t(spec, np.array(ts))
