"""Closed-form curve areas and target revision for interrupted chases.

The engine integrates a fitted zero-intercept polynomial in closed form:

    area_full        = integral of f over [0, N]
                     = N**2 * (N*(3*a*N + 4*b) + 6*c) / 12
    area_interrupted = integral over [0, n] plus [m, N]
                     = (3*a*(n**4 + N**4 - m**4)
                        + 4*b*(n**3 + N**3 - m**3)
                        + 6*c*(n**2 + N**2 - m**2)) / 12

The ratio of the two areas rescales the runs still required by the chasing
side.  All arithmetic is plain Python, so exact types (``fractions.Fraction``)
pass through unchanged; that property is used by the identity tests.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DegenerateCurveError, InvalidScenarioError
from .fits import PolyFit, Record

__all__ = [
    "InterruptionScenario",
    "RevisedTarget",
    "area_full",
    "area_interrupted",
    "resource_ratio",
    "revise_target",
    "scenario_from_json",
    "revision_to_json",
]


class InterruptionScenario(Record):
    """State of an interrupted chase.

    ``n`` is the number of balls already bowled at the stoppage, ``m`` the
    absolute ball index at the restart and ``N`` the scheduled balls, so the
    balls in [n, m) are lost.  Further stoppages may be appended through
    ``more_intervals`` as (start, restart) pairs; intervals must be ordered
    and non-overlapping.
    """

    __slots__ = (
        "n", "m", "N", "target_score", "current_score", "wickets_at_stoppage", "more_intervals"
    )

    def __init__(
        self, n: int, m: int, N: int, target_score: int, current_score: int,
        wickets_at_stoppage: int = 0, more_intervals: tuple[tuple[int, int], ...] = (),
    ):
        if N <= 0:
            raise InvalidScenarioError("N: scheduled balls must be positive")
        if target_score <= 0:
            raise InvalidScenarioError("target_score: must be positive")
        if current_score < 0:
            raise InvalidScenarioError("current_score: must be non-negative")
        if current_score >= target_score:
            raise InvalidScenarioError(
                "current_score: chase already complete (current_score >= target_score)"
            )
        if not 0 <= wickets_at_stoppage <= 10:
            raise InvalidScenarioError("wickets_at_stoppage: must be in [0, 10]")
        more_intervals = tuple(tuple(p) for p in more_intervals)
        last = 0
        for i, (start, restart) in enumerate(((n, m),) + more_intervals):
            label = "n/m" if i == 0 else f"more_intervals[{i - 1}]"
            if not last <= start <= restart <= N:
                raise InvalidScenarioError(
                    f"{label}: intervals must satisfy 0 <= n <= m <= N in order"
                )
            last = restart
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "target_score", target_score)
        object.__setattr__(self, "current_score", current_score)
        object.__setattr__(self, "wickets_at_stoppage", wickets_at_stoppage)
        object.__setattr__(self, "more_intervals", more_intervals)

    @property
    def intervals(self) -> tuple[tuple[int, int], ...]:
        return ((self.n, self.m),) + self.more_intervals


# a plain value, so a tuple's behaviour does no harm
RevisedTarget = namedtuple("RevisedTarget", ("ratio", "runs_remaining", "revised_total"))


def area_full(fit: PolyFit, N: int):
    """Area under the fitted curve over the whole innings [0, N]."""
    if N <= 0:
        raise InvalidScenarioError("N: scheduled balls must be positive")
    a, b, c = fit.a, fit.b, fit.c
    return N * N * (N * (3 * a * N + 4 * b) + 6 * c) / 12


def area_interrupted(fit: PolyFit, n: int, m: int, N: int):
    """Area under the curve over the played balls [0, n] and [m, N]."""
    if not 0 <= n <= m <= N:
        raise InvalidScenarioError("n/m/N: must satisfy 0 <= n <= m <= N")
    if N <= 0:
        raise InvalidScenarioError("N: scheduled balls must be positive")
    a, b, c = fit.a, fit.b, fit.c
    return (
        3 * a * (n**4 + N**4 - m**4)
        + 4 * b * (n**3 + N**3 - m**3)
        + 6 * c * (n**2 + N**2 - m**2)
    ) / 12


def _usable(label: str, value, positive: bool = False):
    # the one finiteness rule of a revision; plain comparisons keep Fractions exact
    if not (-math.inf < value < math.inf and (value > 0 or not positive)):
        raise DegenerateCurveError(f"{label} is {value!r}; fit unusable for target revision")
    return value


def resource_ratio(fit: PolyFit, scenario: InterruptionScenario) -> float:
    """Playable-area share of the full-innings area, in (0, 1] for sane fits.

    Each lost interval contributes its own interrupted-to-full area ratio
    and the contributions multiply.  An empty interval (m = n) loses no
    area, so it contributes exactly 1 and is skipped outright; this keeps
    the no-interruption ratio exactly 1.0 in floating point.  A full area not
    finite and positive, or a ratio not finite, is a :class:`DegenerateCurveError`.
    """
    full = _usable("full-game area", area_full(fit, scenario.N), positive=True)
    ratio = None
    for start, restart in scenario.intervals:
        if restart == start:
            continue
        factor = area_interrupted(fit, start, restart, scenario.N) / full
        ratio = factor if ratio is None else ratio * factor
    return 1.0 if ratio is None else _usable("area ratio", ratio)


def revise_target(fit: PolyFit, scenario: InterruptionScenario) -> RevisedTarget:
    """Rescale the runs still required by the resource ratio.

    ``runs_remaining = ratio * (target_score - current_score)`` and the
    revised total is the floor of current score plus that.
    """
    ratio = resource_ratio(fit, scenario)
    runs_remaining = _usable(
        "runs_remaining", ratio * (scenario.target_score - scenario.current_score)
    )
    revised_total = math.floor(scenario.current_score + runs_remaining)
    return RevisedTarget(
        ratio=ratio, runs_remaining=runs_remaining, revised_total=revised_total
    )


# ---------------------------------------------------------------------------
# JSON interface


_SCENARIO_FIELDS = ("n", "m", "N", "target_score", "current_score")


def _as_int(value, label: str) -> int:
    # the one integer rule of a scenario: every integer up to 2**53 is exact as
    # a float, and N**4 then stays far inside the float range of the area sums
    if type(value) is float and value.is_integer():  # never inf or nan
        value = int(value)
    if type(value) is not int or not -2**53 <= value <= 2**53:  # bool is not int
        raise InvalidScenarioError(f"{label}: expected an integer, |n| <= 2**53, got {value!r}")
    return value


def scenario_from_json(doc: dict) -> InterruptionScenario:
    """Build a scenario from the documented JSON object.

    Recognised keys: ``n, m, N, target_score, current_score, wickets`` plus
    an optional ``more_intervals`` list of [start, restart] pairs for
    multiply-interrupted games, every integer checked by one rule.  ``format``
    and ``innings`` keys are fit selection hints for the caller, ignored here.
    """
    if not isinstance(doc, dict):
        raise InvalidScenarioError("scenario document must be a JSON object")
    try:
        values = {key: _as_int(doc[key], key) for key in _SCENARIO_FIELDS}
    except KeyError as e:
        raise InvalidScenarioError(f"{e.args[0]}: missing required field") from None
    wickets = _as_int(doc.get("wickets", 0), "wickets")
    try:
        more_intervals = tuple(
            (_as_int(a, "more_intervals"), _as_int(b, "more_intervals"))
            for a, b in doc.get("more_intervals", ())
        )
    except (TypeError, ValueError) as e:
        raise InvalidScenarioError(f"more_intervals: expected [start, restart] pairs ({e})")
    return InterruptionScenario(
        **values, wickets_at_stoppage=wickets, more_intervals=more_intervals
    )


def revision_to_json(revision: RevisedTarget) -> dict:
    """JSON-ready revision, including the to-win score (revised total + 1)."""
    return {
        "ratio": revision.ratio,
        "runs_remaining": revision.runs_remaining,
        "revised_total": revision.revised_total,
        "to_win": revision.revised_total + 1,
    }
