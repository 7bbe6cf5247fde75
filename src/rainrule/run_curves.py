"""Wicket-conditioned average scoring curves and constrained polynomial fits.

For a fixed format, innings and wicket count ``w``, the curve holds the mean
cumulative score at each legal ball over all innings that had exactly ``w``
wickets down at that ball.  The fitted model is

    f(x) = a*x**3 + b*x**2 + c*x        (degree 3)
    f(x) =          b*x**2 + c*x        (degree 2, T20-style innings)

with the constant term identically zero: a side starts on nought, so the
curve is pinned to the origin by construction.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .ball_log import MatchFormat, MatchRecord, qualifying_trajectories
from .errors import EmptyCurveError, ParseError, SingularFitError

__all__ = [
    "WicketCurve",
    "PolyFit",
    "cell_means",
    "wicket_curve",
    "wicket_curves",
    "state_curve",
    "fit_poly",
    "poly_eval",
    "curve_csv",
    "fit_summary",
    "family_summary",
    "fit_from_json",
]

DEFAULT_MIN_SUPPORT = 10
DEFAULT_DEGREE = 3


@dataclass(frozen=True)
class WicketCurve:
    """Mean cumulative score per ball, conditioned on exactly ``wickets`` down."""

    wickets: int
    balls: np.ndarray
    means: np.ndarray
    support: np.ndarray
    format: MatchFormat
    innings_index: int

    def __post_init__(self):
        if not 0 <= self.wickets <= 10:
            raise ValueError("wickets must be in [0, 10]")
        order = np.argsort(self.balls, kind="stable")
        balls = np.asarray(self.balls, dtype=np.int64)[order]
        if np.any(np.diff(balls) == 0):
            raise ValueError("duplicate ball values in curve")
        object.__setattr__(self, "balls", balls)
        object.__setattr__(self, "means", np.asarray(self.means, dtype=float)[order])
        object.__setattr__(self, "support", np.asarray(self.support, dtype=np.int64)[order])
        for arr in (self.balls, self.means, self.support):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.balls)


@dataclass(frozen=True)
class PolyFit:
    """Zero-intercept polynomial coefficients in raw ball units."""

    a: float
    b: float
    c: float
    degree: int
    rss: float = 0.0

    def __post_init__(self):
        if self.degree not in (2, 3):
            raise ValueError(f"degree must be 2 or 3, got {self.degree!r}")
        if self.degree == 2 and self.a != 0.0:
            raise ValueError("degree-2 fit requires a = 0")


def poly_eval(fit: PolyFit, x):
    """Evaluate the fitted polynomial; exactly zero at x = 0."""
    return ((fit.a * x + fit.b) * x + fit.c) * x


def _support_floor(min_support: int) -> int:
    return max(int(min_support), 1)  # a retained mean needs one innings behind it


def cell_means(
    cells: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    shape: tuple[int, int],
    min_support: int,
) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Mean value of each (row, column) cell of a grid of ``shape``.

    ``cells`` holds integer (rows, columns, values) arrays, one triple per
    innings.  Cells counted fewer than ``min_support`` times are dropped, and
    each row that keeps a cell maps to its ascending (columns, means, counts).
    """
    # the empty seed keeps concatenate valid when no triple is given
    rows, cols, values = (
        np.concatenate([np.zeros(0, dtype=np.int64)] + [t[k] for t in cells]) for k in range(3)
    )
    flat, size = rows * shape[1] + cols, shape[0] * shape[1]
    # values are integers, so the float64 sums are exact in any order
    sums = np.bincount(flat, weights=values, minlength=size).reshape(shape)
    counts = np.bincount(flat, minlength=size).reshape(shape)
    floor = _support_floor(min_support)
    means = {}
    for row in range(shape[0]):
        kept = np.flatnonzero(counts[row] >= floor)
        if kept.size:
            means[row] = (kept, sums[row, kept] / counts[row, kept], counts[row, kept])
    return means


def wicket_curves(
    corpus: Iterable[MatchRecord],
    format: MatchFormat,
    innings_index: int,
    min_support: int = DEFAULT_MIN_SUPPORT,
) -> dict[int, WicketCurve]:
    """Curves for every wicket state w = 0..10 from one pass over the corpus.

    Each qualifying innings adds its cumulative score at every ball to the
    (wickets down, ball) cell it occupies.  Balls supported by fewer than
    ``min_support`` innings are omitted, and a state with no retained ball
    is absent from the result.
    """
    trajectories = qualifying_trajectories(corpus, format, innings_index)
    cells = [(t.wickets, t.ball, t.runs) for t in trajectories]
    grid = cell_means(cells, (11, format.scheduled_balls + 1), min_support)
    return {
        w: WicketCurve(w, balls, means, support, format, innings_index)
        for w, (balls, means, support) in grid.items()
    }


def state_curve(curves: dict[int, WicketCurve], w: int, min_support: int) -> WicketCurve:
    """The ``w`` entry of a :func:`wicket_curves` result, or :class:`EmptyCurveError`."""
    if w not in curves:
        raise EmptyCurveError(
            f"no ball has {_support_floor(min_support)}+ innings "
            f"with exactly {w} wickets down"
        )
    return curves[w]


def wicket_curve(
    corpus: Iterable[MatchRecord],
    format: MatchFormat,
    innings_index: int,
    w: int,
    min_support: int = DEFAULT_MIN_SUPPORT,
) -> WicketCurve:
    """Average cumulative score at each ball with exactly ``w`` wickets down.

    Balls supported by fewer than ``min_support`` innings are omitted; a
    curve with no retained ball raises :class:`EmptyCurveError`.
    """
    if not 0 <= w <= 10:
        raise ValueError("w must be in [0, 10]")
    return state_curve(wicket_curves(corpus, format, innings_index, min_support), w, min_support)


def fit_poly(curve: WicketCurve, degree: int = DEFAULT_DEGREE) -> PolyFit:
    """Weighted least squares over the zero-intercept monomial basis.

    Solved by normal equations; the ball axis is rescaled to [0, 1]
    internally for conditioning and the coefficients are reported back in
    raw ball units.  Weights are the per-ball supporting innings counts, and
    :class:`PolyFit` rejects a degree other than 2 or 3.
    """
    x = curve.balls.astype(float)
    y = curve.means
    if np.unique(x).size < degree + 1:
        raise SingularFitError(
            f"need at least {degree + 1} distinct ball values for a degree-{degree} fit, "
            f"have {np.unique(x).size}"
        )

    weights = curve.support.astype(float)
    scale = float(curve.format.scheduled_balls)
    s = x / scale
    powers = (3, 2, 1) if degree == 3 else (2, 1)
    design = np.column_stack([s**p for p in powers])

    gram = design.T @ (design * weights[:, None])
    rhs = design.T @ (weights * y)
    try:
        scaled_coeffs = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as e:
        raise SingularFitError(f"normal equations are singular: {e}") from e
    if not np.all(np.isfinite(scaled_coeffs)):
        raise SingularFitError("non-finite coefficients from normal equations")

    coeffs = {p: float(v) / scale**p for p, v in zip(powers, scaled_coeffs)}
    fit = PolyFit(
        a=coeffs.get(3, 0.0), b=coeffs[2], c=coeffs[1], degree=degree, rss=0.0
    )
    residual = y - poly_eval(fit, x)
    rss = float(np.sum(weights * residual * residual))
    return PolyFit(a=fit.a, b=fit.b, c=fit.c, degree=degree, rss=rss)


# ---------------------------------------------------------------------------
# exports and the fits document


def curve_csv(curve: WicketCurve, fit: PolyFit) -> str:
    """CSV of ``ball,mean_score,n_contributing,fitted_value`` rows."""
    fitted = poly_eval(fit, curve.balls.astype(float))
    lines = ["ball,mean_score,n_contributing,fitted_value"]
    for ball, mean, n, value in zip(curve.balls, curve.means, curve.support, fitted):
        lines.append(f"{int(ball)},{float(mean)!r},{int(n)},{float(value)!r}")
    return "\n".join(lines) + "\n"


def fit_summary(curve: WicketCurve, fit: PolyFit) -> dict:
    """JSON-ready fit summary."""
    return {
        "format": curve.format.value,
        "innings": curve.innings_index,
        "wickets": curve.wickets,
        "degree": fit.degree,
        "a": fit.a,
        "b": fit.b,
        "c": fit.c,
        "rss": fit.rss,
    }


def family_summary(fitted: Sequence[tuple[WicketCurve, PolyFit]]) -> dict:
    """JSON-ready fits of one format, innings and degree, keyed by wickets down."""
    curve, fit = fitted[0]
    fits = {str(c.wickets): fit_summary(c, f) for c, f in fitted}
    return {"format": curve.format.value, "innings": curve.innings_index,
            "degree": fit.degree, "fits": fits}


def _finite(key: str, value) -> float:
    # float() keeps a revision's arithmetic as it was; nan fails the bound
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not -sys.float_info.max <= value <= sys.float_info.max):
        raise ValueError(f"{key}: expected a finite number, got {value!r}")
    return float(value)


def fit_from_json(doc, wickets: int, source: str) -> PolyFit:
    """The fit for ``wickets`` down from a decoded fits document, one fit or a
    :func:`family_summary` family: a :class:`ParseError` naming ``source`` and
    the entry if malformed, an :class:`EmptyCurveError` if the state is missing."""
    entry, key = source, str(wickets)
    try:
        if isinstance(doc, dict) and "fits" in doc:
            entry, family = f"{source}[fits]", doc["fits"]
            if key not in family.keys():  # AttributeError unless an object
                raise EmptyCurveError(
                    f"{source} has no fitted curve for wickets={wickets} "
                    f"(available: {', '.join(sorted(family))})"
                )
            entry, doc = f"{source}[fits][{key}]", family[key]
        return PolyFit(
            _finite("a", doc.get("a", 0.0)), _finite("b", doc["b"]), _finite("c", doc["c"]),
            degree=doc.get("degree", DEFAULT_DEGREE),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        detail = f"missing key {e}" if isinstance(e, KeyError) else str(e)
        raise ParseError(f"bad polynomial fit: {detail}", position=entry) from e
