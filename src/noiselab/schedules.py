"""Signal-retention schedules gamma(t) on continuous time t in [0, 1].

A schedule maps diffusion time to the retained signal power gamma, with
gamma(0) = 1 (clean data) and gamma(1) = CLIP_MIN (pure noise). Three
families are provided, each renormalized so the endpoints are exact:

* linear:   gamma = 1 - t
* cosine:   gamma = cos((t (end-start) + start) pi/2)^(2 tau), rescaled to
            span [gamma(0)=1, gamma(1)=0] over the (start, end) window
* sigmoid:  gamma = sigmoid((t (end-start) + start)/tau), rescaled the same

The logSNR of a scaled forward process x_t = sqrt(gamma) b x0 +
sqrt(1-gamma) eps is ln(b^2 gamma / (1 - gamma)); rescaling the input by b
shifts every schedule's logSNR curve by exactly 2 ln b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from noiselab.core import sigmoid

__all__ = [
    "CLIP_MIN",
    "REFERENCE_SPECS",
    "ScheduleSpec",
    "format_schedule",
    "gamma",
    "log_snr",
    "parse_schedule",
    "time_grid",
]

_KINDS = ("linear", "cosine", "sigmoid")

CLIP_MIN = 1e-9  # the floor gamma clips to: gamma(1) for every schedule


@dataclass(frozen=True)
class ScheduleSpec:
    """One schedule family plus its shape hyperparameters.

    ``start``/``end``/``tau`` are unused by the linear family. Cosine
    requires 0 <= start < end <= 1; sigmoid requires start < end; both
    require finite values, tau > 0, and a curve that moves across the
    window in float64, since gamma divides by that move.
    """

    kind: str
    start: float | None = None
    end: float | None = None
    tau: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "linear":
            if not (self.start is None and self.end is None and self.tau is None):
                raise ValueError("linear schedule takes no shape parameters")
            return
        if self.start is None or self.end is None or self.tau is None:
            raise ValueError(f"{self.kind} schedule needs start, end, tau")
        if not all(math.isfinite(v) for v in (self.start, self.end, self.tau)):
            raise ValueError(
                f"start, end and tau must be finite, got ({self.start}, {self.end}, {self.tau})"
            )
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.kind == "cosine":
            if not (0.0 <= self.start < self.end <= 1.0):
                raise ValueError(
                    f"cosine needs 0 <= start < end <= 1, got ({self.start}, {self.end})"
                )
        elif self.start >= self.end:
            raise ValueError(f"sigmoid needs start < end, got ({self.start}, {self.end})")
        v_start, v_end = _curve_ends(self)
        if v_start == v_end:
            raise ValueError(
                f"{self.kind} curve is flat in float64 over ({self.start}, {self.end}) "
                f"with tau {self.tau}: both ends are {v_start!r}"
            )

    @classmethod
    def linear(cls) -> "ScheduleSpec":
        return cls("linear")

    @classmethod
    def cosine(cls, start: float = 0.0, end: float = 1.0, tau: float = 1.0) -> "ScheduleSpec":
        return cls("cosine", float(start), float(end), float(tau))

    @classmethod
    def sigmoid(cls, start: float = -3.0, end: float = 3.0, tau: float = 1.0) -> "ScheduleSpec":
        return cls("sigmoid", float(start), float(end), float(tau))


def _curve(spec: ScheduleSpec, tt: np.ndarray) -> np.ndarray:
    """The unnormalized cosine or sigmoid curve at the times of a float64 array tt."""
    s, e, tau = spec.start, spec.end, spec.tau
    if spec.kind == "cosine":
        return np.cos((tt * (e - s) + s) * (math.pi / 2.0)) ** (2.0 * tau)
    return sigmoid((tt * (e - s) + s) / tau)


def _curve_ends(spec: ScheduleSpec) -> tuple[float, float]:
    """The unnormalized curve at t = 0 and at t = 1, by gamma's own expression."""
    v_start, v_end = _curve(spec, np.array([0.0, 1.0])).tolist()
    return v_start, v_end


def gamma(spec: ScheduleSpec, t) -> float | np.ndarray:
    """Evaluate gamma(t) for scalar or array ``t`` in [0, 1].

    Returns a float for scalar input, else an array of t's shape. A
    scalar goes through the same array expression as an array, so one t
    gives one value either way (numpy's 0-d cos rounds apart from its
    array loop). Values are clipped to [CLIP_MIN, 1]; since the curve's
    ends come from the same expression, gamma(0) == 1.0 and
    gamma(1) == CLIP_MIN are exact.
    """
    tt = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if not ((tt >= 0.0) & (tt <= 1.0)).all():  # also false for NaN
        if not np.isfinite(tt).all():
            raise ValueError("t must be finite")
        raise ValueError("t must lie in [0, 1]")
    if spec.kind == "linear":
        out = 1.0 - tt
    else:
        v_start, v_end = _curve_ends(spec)
        out = (v_end - _curve(spec, tt)) / (v_end - v_start)
    out = np.minimum(np.maximum(out, CLIP_MIN), 1.0)  # np.clip, without its wrapper
    return float(out[0]) if np.ndim(t) == 0 else out


def log_snr(spec: ScheduleSpec, t, scale: float = 1.0) -> float | np.ndarray:
    """logSNR = ln(scale^2 gamma / (1 - gamma)) at time t.

    Computed as 2 ln(scale) + ln(gamma) - ln(1 - gamma), so the shift
    between two input scales is exactly 2 ln(b1/b2) in floating point.
    Raises where gamma(t) == 1 (logSNR is infinite there).
    """
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    g = gamma(spec, t)
    garr = np.asarray(g)
    if np.any(garr >= 1.0):
        raise ValueError("logSNR undefined where gamma(t) == 1 (t too close to 0)")
    out = 2.0 * math.log(scale) + np.log(garr) - np.log1p(-garr)
    return float(out) if np.ndim(t) == 0 else out


def time_grid(steps: int) -> tuple[tuple[float, float], ...]:
    """Reverse-process time pairs (t_now, t_next), from t=1 down to t=0.

    The grid is uniform: t_now = 1 - k/steps, t_next = max(t_now - 1/steps, 0).
    """
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool):
        raise TypeError("steps must be an int")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return tuple((1.0 - k / steps, max(1.0 - (k + 1) / steps, 0.0)) for k in range(steps))


def _fmt_num(x: float) -> str:
    return repr(int(x)) if float(x).is_integer() else repr(float(x))


def format_schedule(spec: ScheduleSpec) -> str:
    """Render a spec in the CLI string form parse_schedule accepts."""
    if spec.kind == "linear":
        return "linear"
    return f"{spec.kind}:{_fmt_num(spec.start)},{_fmt_num(spec.end)},{_fmt_num(spec.tau)}"


def parse_schedule(text: str) -> ScheduleSpec:
    """Parse 'linear', 'cosine:start,end,tau' or 'sigmoid:start,end,tau'."""
    body = text.strip()
    if body == "linear":
        return ScheduleSpec.linear()
    if ":" not in body:
        raise ValueError(f"bad schedule {text!r}: expected 'linear' or 'kind:start,end,tau'")
    kind, _, args = body.partition(":")
    kind = kind.strip()
    if kind not in ("cosine", "sigmoid"):
        raise ValueError(f"bad schedule kind {kind!r} in {text!r}")
    parts = [p.strip() for p in args.split(",")]
    if len(parts) != 3:
        raise ValueError(f"bad schedule {text!r}: {kind} needs start,end,tau")
    try:
        start, end, tau = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"bad schedule {text!r}: non-numeric parameter") from None
    return ScheduleSpec(kind, start, end, tau)


# Schedule settings exercised across the experiment tables and the
# correctness suite: the linear ramp plus the cosine and sigmoid shapes.
REFERENCE_SPECS: tuple[ScheduleSpec, ...] = (
    ScheduleSpec.linear(),
    ScheduleSpec.cosine(0.0, 1.0, 1.0),
    ScheduleSpec.cosine(0.2, 1.0, 1.0),
    ScheduleSpec.cosine(0.2, 1.0, 2.0),
    ScheduleSpec.cosine(0.2, 1.0, 3.0),
    ScheduleSpec.sigmoid(-3.0, 3.0, 0.9),
    ScheduleSpec.sigmoid(-3.0, 3.0, 1.1),
    ScheduleSpec.sigmoid(0.0, 3.0, 0.3),
    ScheduleSpec.sigmoid(0.0, 3.0, 0.5),
    ScheduleSpec.sigmoid(0.0, 3.0, 0.7),
    ScheduleSpec.sigmoid(0.0, 3.0, 0.9),
    ScheduleSpec.sigmoid(0.0, 3.0, 1.1),
)
