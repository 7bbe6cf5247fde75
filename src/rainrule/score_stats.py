"""Innings-total histograms and the three-parameter normal curve fit.

The curve fitted to a totals histogram is

    f(x) = amplitude / (sqrt(2*pi) * sigma) * exp(-(x - xi)**2 / (2 * sigma**2))

with all three parameters free; ``amplitude`` is fitted in count units, not
forced to the sample-mass normalisation.  The fit minimises the sum of
squared count residuals at bin centers.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .ball_log import MatchFormat, MatchRecord, freeze_columns, innings_trajectories, value_eq
from .errors import DataError, DegenerateFitError, EmptySelectionError, InsufficientDataError
from .leastsq import damped_gauss_newton

__all__ = [
    "Histogram",
    "NormalFit",
    "totals",
    "build_histogram",
    "fit_normal",
    "normal_curve",
    "histogram_csv",
    "fit_summary",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SIGMA_FLOOR = 1e-9
_MAX_BINS = 100_000  # far more than any totals histogram needs


@dataclass(frozen=True, eq=False)
class Histogram:
    """Uniform-width histogram with left-closed right-open bins."""

    bin_width: float
    bin_lower_edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        freeze_columns(self, bin_lower_edges=None, counts=None)

    __eq__ = value_eq

    @property
    def centers(self) -> np.ndarray:
        return self.bin_lower_edges + 0.5 * self.bin_width

    @property
    def n_samples(self) -> int:
        """The sum of the counts, rounded, as counts need not be whole."""
        return int(round(self.counts.sum()))


@dataclass(frozen=True)
class NormalFit:
    xi: float
    sigma: float
    amplitude: float
    rss: float


def totals(
    corpus: Iterable[MatchRecord], format: MatchFormat, innings_index: int
) -> list[int]:
    """Total runs of every innings :func:`innings_trajectories` yields, in corpus order.

    Innings from shortened matches count, as their totals are real; abandoned
    and over-length innings are left out, as they are from the curves.
    """
    out = [t.total for t in innings_trajectories(corpus, format, innings_index)]
    if not out:
        raise EmptySelectionError(
            f"no innings {innings_index} for format {format.value}"
        )
    return out


def build_histogram(values: Sequence[int], bin_width: float) -> Histogram:
    """Bin integer values into uniform left-closed bins.

    The lowest edge is ``floor(min/bin_width) * bin_width`` and the counts sum
    to the sample count.  A width needing over 100,000 bins from the lowest
    edge to the largest value raises :class:`DataError`, and so does one too
    narrow for float edges to tell the values apart: values 2**52 or more
    widths from 0.
    """
    vals = np.asarray(list(values), dtype=np.int64)
    if vals.size == 0:
        raise EmptySelectionError("cannot build a histogram from no values")
    if not 0 < bin_width < math.inf:
        raise ValueError("bin_width must be positive and finite")
    # the bins of the smallest and the largest value, as exact fractions of the
    # width in Python ints, so nothing wraps or rounds
    low, high = int(vals.min()), int(vals.max())
    num, den = float(bin_width).as_integer_ratio()
    first, last = low * den // num, high * den // num
    if last - first >= _MAX_BINS:
        raise DataError(
            f"bin width {bin_width!r}: over {_MAX_BINS:,} bins from {low} to {high}"
        )
    if max(-first, last) >= 2**52:  # keeps the edge guard below finite
        raise DataError(f"bin width {bin_width!r}: too narrow for values from {low} to {high}")

    lowest = math.floor(vals.min() / bin_width) * bin_width
    while lowest > vals.min():  # guard against upward rounding of the product
        lowest -= bin_width
    n_bins = int(math.floor((vals.max() - lowest) / bin_width)) + 1
    edges = lowest + np.arange(n_bins + 1, dtype=float) * bin_width

    idx = np.searchsorted(edges, vals, side="right") - 1
    idx = np.clip(idx, 0, n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    return Histogram(
        bin_width=float(bin_width),
        bin_lower_edges=edges[:-1],
        counts=counts.astype(np.int64),
    )


def normal_curve(
    x: np.ndarray | float, xi: float, sigma: float, amplitude: float
) -> np.ndarray | float:
    """Evaluate the three-parameter normal curve."""
    z = (np.asarray(x, dtype=float) - xi) / sigma
    return amplitude / (_SQRT_2PI * sigma) * np.exp(-0.5 * z * z)


def fit_normal(hist: Histogram) -> NormalFit:
    """Least-squares (xi, sigma, amplitude) for a totals histogram.

    Initialised from the binned mean / standard deviation and
    ``amplitude0 = n_samples * bin_width``; converged when the relative RSS
    change drops below 1e-10.  A starting sigma at or below 1e-9, or a run
    that has not converged within 500 iterations, raises :class:`DegenerateFitError`.
    """
    nonempty = int(np.count_nonzero(hist.counts))
    if nonempty < 4:
        raise InsufficientDataError(
            f"need at least 4 nonempty bins to fit 3 parameters, have {nonempty}"
        )
    centers = hist.centers
    counts = hist.counts.astype(float)
    mass = counts.sum()
    xi0 = float((counts * centers).sum() / mass)
    sigma0 = float(np.sqrt((counts * (centers - xi0) ** 2).sum() / mass))
    amp0 = float(hist.n_samples * hist.bin_width)
    if sigma0 <= _SIGMA_FLOOR:
        raise DegenerateFitError(f"sigma collapsed below {_SIGMA_FLOOR:g}")

    def residuals(p: np.ndarray) -> np.ndarray:
        return normal_curve(centers, p[0], p[1], p[2]) - counts

    def jacobian(p: np.ndarray) -> np.ndarray:
        xi, sigma, amp = p
        f = normal_curve(centers, xi, sigma, amp)
        z = (centers - xi) / sigma
        return np.column_stack((f * z / sigma, f * (z * z - 1.0) / sigma, f / amp))

    def acceptable(p: np.ndarray) -> bool:
        return p[1] > _SIGMA_FLOOR and p[2] > 0.0

    outcome = damped_gauss_newton(
        residuals, jacobian, np.array([xi0, sigma0, amp0]), accept=acceptable
    )
    xi, sigma, amplitude = (float(v) for v in outcome.params)
    if not outcome.converged:
        raise DegenerateFitError(f"no convergence in {outcome.iterations} iterations")
    if not acceptable(outcome.params):
        raise DegenerateFitError(f"degenerate fit: sigma={sigma:g} amplitude={amplitude:g}")
    return NormalFit(xi=xi, sigma=sigma, amplitude=amplitude, rss=outcome.rss)


# ---------------------------------------------------------------------------
# exports


def histogram_csv(hist: Histogram, fit: NormalFit) -> str:
    """CSV of ``bin_center,count,fitted_value`` rows."""
    fitted = normal_curve(hist.centers, fit.xi, fit.sigma, fit.amplitude)
    lines = ["bin_center,count,fitted_value"]
    for center, count, value in zip(hist.centers, hist.counts, fitted):
        lines.append(f"{float(center)!r},{int(count)},{float(value)!r}")
    return "\n".join(lines) + "\n"


def fit_summary(fit: NormalFit, hist: Histogram) -> dict:
    """JSON-ready fit summary."""
    return {
        "xi": fit.xi,
        "sigma": fit.sigma,
        "amplitude": fit.amplitude,
        "rss": fit.rss,
        "n_samples": hist.n_samples,
        "bin_width": hist.bin_width,
    }
