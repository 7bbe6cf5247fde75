"""Wicket-conditioned average scoring curves and constrained polynomial fits.

For a fixed format, innings and wicket count ``w``, the curve holds the mean
cumulative score at each legal ball over all innings that had exactly ``w``
wickets down at that ball.  The fitted model is

    f(x) = a*x**3 + b*x**2 + c*x        (degree 3)
    f(x) =          b*x**2 + c*x        (degree 2, T20-style innings)

with the constant term identically zero: a side starts on nought, so the
curve is pinned to the origin by construction.  :class:`PolyFit` and the
fits document's reader and writer live in :mod:`rainrule.fits`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .ball_log import MatchFormat, MatchRecord, freeze_columns, qualifying_trajectories, value_eq
from .errors import EmptyCurveError, SingularFitError
from .fits import (
    DEFAULT_DEGREE,
    DEFAULT_MIN_SUPPORT,
    PolyFit,
    Record,
    family_summary,
    fit_from_json,
    fit_summary,
    poly_eval,
)

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

class WicketCurve(Record):
    """Mean cumulative score per ball, conditioned on exactly ``wickets`` down."""

    __slots__ = ("wickets", "balls", "means", "support", "format", "innings_index")

    def __init__(self, wickets: int, balls: np.ndarray, means: np.ndarray, support: np.ndarray,
                 format: MatchFormat, innings_index: int):
        self._set_fields(wickets, balls, means, support, format, innings_index)
        if not 0 <= self.wickets <= 10:
            raise ValueError("wickets must be in [0, 10]")
        if self.innings_index not in (1, 2):
            raise ValueError("innings_index must be 1 or 2")
        freeze_columns(self, balls=np.int64, means=float, support=np.int64)
        if not np.all((self.balls >= 1) & (self.balls <= self.format.scheduled_balls)):
            raise ValueError(f"every ball must be in 1..{self.format.scheduled_balls}")
        if np.any(np.diff(self.balls) <= 0):
            raise ValueError("duplicate or unordered ball values in curve")
        if not np.all(self.support >= 1):
            raise ValueError("every support must be at least 1")
        if not np.all(np.isfinite(self.means)):
            raise ValueError("every mean must be finite")

    __eq__ = value_eq

    def __len__(self) -> int:
        return len(self.balls)


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
    if len(curve) < degree + 1:  # a WicketCurve's balls are distinct
        raise SingularFitError(
            f"need at least {degree + 1} distinct ball values for a degree-{degree} fit, "
            f"have {len(curve)}"
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
# exports


def curve_csv(curve: WicketCurve, fit: PolyFit) -> str:
    """CSV of ``ball,mean_score,n_contributing,fitted_value`` rows."""
    fitted = poly_eval(fit, curve.balls.astype(float))
    lines = ["ball,mean_score,n_contributing,fitted_value"]
    for ball, mean, n, value in zip(curve.balls, curve.means, curve.support, fitted):
        lines.append(f"{int(ball)},{float(mean)!r},{int(n)},{float(value)!r}")
    return "\n".join(lines) + "\n"
