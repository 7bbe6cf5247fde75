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
    "InterruptionScenario", "RevisedTarget", "area_full", "area_interrupted",
    "resource_ratio", "revise_target", "scenario_from_json", "revision_to_json",
]

# each field set on its own: Record._set_fields would add about 0.5 us to a revision
_set = object.__setattr__
_ORDER = "{}: intervals must satisfy 0 <= n <= m <= N in order"
_INF = math.inf


class InterruptionScenario(Record):
    """State of an interrupted chase.

    ``n`` is the number of balls already bowled at the stoppage, ``m`` the
    absolute ball index at the restart and ``N`` the scheduled balls, so the
    balls in [n, m) are lost.  Further stoppages may be appended through
    ``more_intervals`` as (start, restart) pairs; intervals must be ordered
    and non-overlapping.
    """

    __slots__ = ("n", "m", "N", "target_score", "current_score", "wickets_at_stoppage",
                 "more_intervals")

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
        if type(more_intervals) is not tuple or more_intervals:  # () needs no work
            more_intervals = tuple(map(tuple, more_intervals))
        if not 0 <= n <= m <= N:
            raise InvalidScenarioError(_ORDER.format("n/m"))
        last = m
        for i, (start, restart) in enumerate(more_intervals):
            if not last <= start <= restart <= N:
                raise InvalidScenarioError(_ORDER.format(f"more_intervals[{i}]"))
            last = restart
        _set(self, "n", n)
        _set(self, "m", m)
        _set(self, "N", N)
        _set(self, "target_score", target_score)
        _set(self, "current_score", current_score)
        _set(self, "wickets_at_stoppage", wickets_at_stoppage)
        _set(self, "more_intervals", more_intervals)

    @property
    def intervals(self) -> tuple[tuple[int, int], ...]:
        return ((self.n, self.m),) + self.more_intervals


# a plain value, so a tuple's behaviour does no harm
RevisedTarget = namedtuple("RevisedTarget", ("ratio", "runs_remaining", "revised_total"))


# the one home of each closed form, whose caller has checked its bounds
def _full(a, b, c, N):
    return N * N * (N * (3 * a * N + 4 * b) + 6 * c) / 12


def _interrupted(a, b, c, n, m, N):
    return (3 * a * (n**4 + N**4 - m**4) + 4 * b * (n**3 + N**3 - m**3)
            + 6 * c * (n**2 + N**2 - m**2)) / 12


def area_full(fit: PolyFit, N: int):
    """Area under the fitted curve over the whole innings [0, N]."""
    if N <= 0:
        raise InvalidScenarioError("N: scheduled balls must be positive")
    return _full(fit.a, fit.b, fit.c, N)


def area_interrupted(fit: PolyFit, n: int, m: int, N: int):
    """Area under the curve over the played balls [0, n] and [m, N]."""
    if not 0 <= n <= m <= N:
        raise InvalidScenarioError("n/m/N: must satisfy 0 <= n <= m <= N")
    if N <= 0:
        raise InvalidScenarioError("N: scheduled balls must be positive")
    return _interrupted(fit.a, fit.b, fit.c, n, m, N)


def _unusable(label: str, value) -> DegenerateCurveError:
    return DegenerateCurveError(f"{label} is {value!r}; fit unusable for target revision")


def resource_ratio(fit: PolyFit, scenario: InterruptionScenario) -> float:
    """Playable-area share of the full-innings area, in (0, 1] for sane fits.

    Each lost interval contributes its own interrupted-to-full area ratio
    and the contributions multiply.  An empty interval (m = n) loses no
    area, so it contributes exactly 1 and is skipped outright; this keeps
    the no-interruption ratio exactly 1.0 in floating point.  A full area not
    finite and positive, or a ratio not finite, is a :class:`DegenerateCurveError`.
    The scenario's constructor has checked its intervals; plain comparisons
    keep Fractions exact.
    """
    a, b, c, N = fit.a, fit.b, fit.c, scenario.N
    full = _full(a, b, c, N)
    if not 0 < full < _INF:
        raise _unusable("full-game area", full)
    n, m = scenario.n, scenario.m
    ratio = None if m == n else _interrupted(a, b, c, n, m, N) / full
    for start, restart in scenario.more_intervals:
        if restart != start:
            factor = _interrupted(a, b, c, start, restart, N) / full
            ratio = factor if ratio is None else ratio * factor
    if ratio is not None and not -_INF < ratio < _INF:
        raise _unusable("area ratio", ratio)
    return 1.0 if ratio is None else ratio


def revise_target(fit: PolyFit, scenario: InterruptionScenario) -> RevisedTarget:
    """Rescale the runs still required by the resource ratio.

    ``runs_remaining = ratio * (target_score - current_score)`` and the
    revised total is the floor of current score plus that.
    """
    ratio, current = resource_ratio(fit, scenario), scenario.current_score
    runs_remaining = ratio * (scenario.target_score - current)
    if not -_INF < runs_remaining < _INF:
        raise _unusable("runs_remaining", runs_remaining)
    return RevisedTarget(ratio, runs_remaining, math.floor(current + runs_remaining))


# ---------------------------------------------------------------------------
# JSON interface


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
        n = _as_int(doc["n"], "n")
        m = _as_int(doc["m"], "m")
        N = _as_int(doc["N"], "N")
        target_score = _as_int(doc["target_score"], "target_score")
        current_score = _as_int(doc["current_score"], "current_score")
    except KeyError as e:
        raise InvalidScenarioError(f"{e.args[0]}: missing required field") from None
    wickets = _as_int(doc.get("wickets", 0), "wickets")
    more_intervals = ()
    if "more_intervals" in doc:
        try:
            more_intervals = tuple(
                (_as_int(a, "more_intervals"), _as_int(b, "more_intervals"))
                for a, b in doc["more_intervals"]
            )
        except (TypeError, ValueError) as e:
            raise InvalidScenarioError(f"more_intervals: expected [start, restart] pairs ({e})")
    return InterruptionScenario(n, m, N, target_score, current_score, wickets, more_intervals)


def revision_to_json(revision: RevisedTarget) -> dict:
    """JSON-ready revision, including the to-win score (revised total + 1)."""
    total = revision.revised_total
    return {"ratio": revision.ratio, "runs_remaining": revision.runs_remaining,
            "revised_total": total, "to_win": total + 1}
