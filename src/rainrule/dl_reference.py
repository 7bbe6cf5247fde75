"""Exponential remaining-resource model, the comparison baseline.

The model is Z(u) = z0 * (1 - exp(-decay * u)) where u is whole overs
remaining and z0 the asymptotic average of runs still to come with w
wickets down.  One curve is fitted per wicket state w = 0..9 from the
corpus, and a resource percentage table is derived from the family.

This module is a baseline for side-by-side comparison only; it does not
revise targets end-to-end.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .ball_log import MatchFormat, MatchRecord, qualifying_trajectories, value_eq
from .errors import (
    DegenerateCurveError, DegenerateFitError, IncompleteFamilyError, InsufficientDataError,
    ParseError,
)
from .leastsq import damped_gauss_newton
from .run_curves import DEFAULT_MIN_SUPPORT, cell_means

__all__ = [
    "DLCurve",
    "DLFamily",
    "ResourceTable",
    "remaining_run_means",
    "fit_dl_curve",
    "fit_dl_family",
    "resource_table",
    "resource_table_csv",
    "load_resource_table",
]

_Z0_FLOOR = 1e-9
_DECAY_FLOOR = 1e-12
_MIN_POINTS = 3  # supported cells a wicket state needs before its curve is fitted


@dataclass(frozen=True)
class DLCurve:
    """Fitted exponential resource curve for one wicket state."""

    w: int
    z0: float
    decay: float
    rss: float = 0.0

    def __post_init__(self):
        if not 0 <= self.w <= 10:
            raise ValueError(f"w must be in [0, 10], got {self.w}")
        if not 0 < self.z0 < np.inf:
            raise ValueError(f"z0 must be finite and positive, got {self.z0}")
        if not 0 < self.decay < np.inf:
            raise ValueError(f"decay must be finite and positive, got {self.decay}")

    def value(self, u):
        """Mean runs still to come from u overs remaining."""
        with np.errstate(over="ignore"):  # decay * u past float range gives the limit, z0
            return self.z0 * (1.0 - np.exp(-self.decay * np.asarray(u, dtype=float)))


@dataclass(frozen=True)
class DLFamily(Sequence):
    """Per-wicket curve family with fit diagnostics.

    ``adjusted`` is set when the isotonic pass changed any z0; ``omitted``
    lists the wicket states 0..9 that have no curve.
    """

    format: MatchFormat
    curves: tuple[DLCurve, ...]
    adjusted: bool = False

    def __post_init__(self):
        object.__setattr__(self, "curves", tuple(self.curves))
        ws = [c.w for c in self.curves]
        if sorted(set(ws)) != ws:
            raise ValueError("curves must be sorted by w without duplicates")

    @property
    def omitted(self) -> tuple[int, ...]:
        fitted = {c.w for c in self.curves}
        return tuple(w for w in range(10) if w not in fitted)

    def __len__(self):
        return len(self.curves)

    def __getitem__(self, index):
        return self.curves[index]


def remaining_run_means(
    corpus: Sequence[MatchRecord],
    format: MatchFormat,
    *,
    min_support: int = DEFAULT_MIN_SUPPORT,
) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Average remaining runs by (wickets down, overs remaining).

    Walks every first innings :func:`qualifying_trajectories` yields (full
    length or all out) and, at each whole-over mark with u >= 1 overs
    remaining, records the runs scored from that point to the end of the
    innings under the wicket count at the mark.  Returns, in ascending w, per
    wicket state 0..9 that has at least one supported cell, ascending arrays
    (u, mean, count) keeping only cells with count >= min_support.
    """
    max_overs = format.scheduled_overs
    cells = []
    for traj in qualifying_trajectories(corpus, format, 1):
        marks = np.arange(0, min(traj.completed_balls, format.scheduled_balls - 6) + 1, 6)
        # entry m is the state after m legal balls, the zero state first
        runs_at = np.concatenate(([0], traj.runs))[marks]
        wkts_at = np.concatenate(([0], traj.wickets))[marks]
        keep = wkts_at <= 9
        cells.append((wkts_at[keep], max_overs - marks[keep] // 6, traj.total - runs_at[keep]))
    grid = cell_means(cells, (10, max_overs + 1), min_support)
    return {w: (u.astype(float), means, counts) for w, (u, means, counts) in grid.items()}


def fit_dl_curve(u, means, w: int) -> DLCurve:
    """Least-squares fit of Z(u) = z0 * (1 - exp(-decay * u)) to mean points.

    ``u`` and ``means`` are 1-D and of one length, each ``u`` finite and above 0
    and each mean finite, or ``ValueError`` names the rule they break."""
    u = np.asarray(u, dtype=float)
    y = np.asarray(means, dtype=float)
    if u.ndim != 1 or u.shape != y.shape:
        raise ValueError("u and means must be 1-D arrays of the same length")
    if not np.all((u > 0) & (u < np.inf)):
        raise ValueError("every u must be finite and above 0")
    if not np.all(np.isfinite(y)):
        raise ValueError("every mean must be finite")
    distinct = len(set(u.tolist()))
    if distinct < 2:
        raise InsufficientDataError(
            f"need at least 2 distinct overs-remaining points, have {distinct}"
        )
    if not y.max() > 0:
        raise DegenerateFitError("all mean remaining runs are non-positive")

    def residuals(p):
        z0, decay = p
        return z0 * (1.0 - np.exp(-decay * u)) - y

    def jacobian(p):
        z0, decay = p
        damp = np.exp(-decay * u)
        return np.column_stack((1.0 - damp, z0 * u * damp))

    def positive(p):
        return p[0] > _Z0_FLOOR and p[1] > _DECAY_FLOOR

    p0 = np.array([1.2 * y.max(), 2.0 / u.max()])
    outcome = damped_gauss_newton(residuals, jacobian, p0, accept=positive)
    z0, decay = outcome.params.tolist()
    if not positive(outcome.params):
        raise DegenerateFitError(
            f"exponential fit collapsed (z0={z0!r}, decay={decay!r})"
        )
    return DLCurve(w=w, z0=z0, decay=decay, rss=float(outcome.rss))


def _pool_nonincreasing(values: list[float]) -> list[float]:
    # pool-adjacent-violators for a non-increasing sequence, equal weights
    blocks: list[list[float]] = []  # [mean, weight]
    for v in values:
        blocks.append([v, 1.0])
        while len(blocks) > 1 and blocks[-2][0] < blocks[-1][0]:
            hi, lo = blocks.pop(), blocks.pop()
            weight = hi[1] + lo[1]
            blocks.append([(hi[0] * hi[1] + lo[0] * lo[1]) / weight, weight])
    out: list[float] = []
    for mean, weight in blocks:
        out.extend([mean] * int(round(weight)))
    return out


def fit_dl_family(
    corpus: Sequence[MatchRecord],
    format: MatchFormat,
    *,
    min_support: int = DEFAULT_MIN_SUPPORT,
) -> DLFamily:
    """Fit the w = 0..9 curve family from first-innings remaining runs.

    Wicket states with fewer than three supported cells get no curve, so
    the family's ``omitted`` tuple lists them.  Fitted z0 values are
    forced non-increasing in w by pooling adjacent violators; the family's
    ``adjusted`` flag records whether that changed anything, and a curve
    whose z0 changed carries the RSS of its pooled parameters.
    """
    points = remaining_run_means(corpus, format, min_support=min_support)
    fitted = [
        fit_dl_curve(u, means, w)
        for w, (u, means, _) in points.items()
        if u.size >= _MIN_POINTS
    ]
    if not fitted:
        raise InsufficientDataError(
            f"no wicket state has enough support to fit a {format.name} family"
        )
    pooled = _pool_nonincreasing([c.z0 for c in fitted])
    adjusted = any(new != old.z0 for new, old in zip(pooled, fitted))
    for i, (new, c) in enumerate(zip(pooled, fitted)):
        if new != c.z0:
            u, means, _ = points[c.w]
            c = replace(c, z0=new)
            fitted[i] = replace(c, rss=float(np.sum((c.value(u) - means) ** 2)))
    return DLFamily(format=format, curves=tuple(fitted), adjusted=adjusted)


@dataclass(frozen=True, eq=False)
class ResourceTable:
    """Resource percentages indexed by overs remaining and wickets lost."""

    grid: np.ndarray = field(repr=False)  # [u, w]: u overs remaining, w wickets lost

    def __post_init__(self):
        grid = np.array(self.grid, dtype=float)
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        if grid.ndim != 2 or grid.shape[0] < 1 or grid.shape[1] != 11:
            raise ValueError(f"grid shape {grid.shape} is not (max_overs + 1, 11)")
        if not np.all((grid >= 0) & (grid <= 100)):
            raise ValueError("every cell must be a percentage in [0, 100]")

    __eq__ = value_eq

    @property
    def max_overs(self) -> int:
        """The last row's u, as the rows are u = 0..max_overs."""
        return self.grid.shape[0] - 1

    def percentage(self, overs_remaining: int, wickets_lost: int) -> float:
        if not 0 <= overs_remaining <= self.max_overs:
            raise ValueError(f"overs_remaining out of range: {overs_remaining}")
        if not 0 <= wickets_lost <= 10:
            raise ValueError(f"wickets_lost out of range: {wickets_lost}")
        return float(self.grid[overs_remaining, wickets_lost])


def resource_table(family: Sequence[DLCurve], max_overs: int) -> ResourceTable:
    """Percentage of full resources for every (overs remaining, wickets) cell.

    percentage(u, w) = 100 * Z(u, w) / Z(max_overs, 0).  Wicket states
    without a curve borrow the nearest fitted state below them, and every
    cell is clamped to the cell one wicket earlier so the table is
    non-increasing in w even when fitted decay rates cross.  A w=0 curve whose full
    resources Z(max_overs, 0) are not positive raises :class:`DegenerateCurveError`.
    """
    if max_overs <= 0:
        raise ValueError(f"max_overs must be positive, got {max_overs}")
    by_w = {curve.w: curve for curve in family}
    if 0 not in by_w:
        raise IncompleteFamilyError("resource table requires the w=0 curve")
    scale = float(by_w[0].value(max_overs))
    if not 0 < scale < np.inf:
        raise DegenerateCurveError(f"full resources Z({max_overs}, 0) = {scale!r} are not positive")
    overs = np.arange(max_overs + 1, dtype=float)
    grid = np.zeros((max_overs + 1, 11))
    curve = by_w[0]
    for w in range(10):
        curve = by_w.get(w, curve)
        # divide first: value(max_overs)/scale is exactly 1, so the w=0
        # full-allocation corner lands on 100.0 with no round-off
        raw = 100.0 * (curve.value(overs) / scale)
        grid[:, w] = raw if w == 0 else np.minimum(grid[:, w - 1], raw)
    return ResourceTable(grid)


_TABLE_HEADER = "overs_remaining," + ",".join(str(w) for w in range(11))


def resource_table_csv(table: ResourceTable) -> str:
    """Render the table as CSV, rows u = max_overs..0, columns w = 0..10."""
    lines = [_TABLE_HEADER]
    for u in range(table.max_overs, -1, -1):
        cells = ",".join(f"{table.percentage(u, w):.1f}" for w in range(11))
        lines.append(f"{u},{cells}")
    return "\n".join(lines) + "\n"


def load_resource_table(path: str | Path) -> ResourceTable:
    """Read a table written by :func:`resource_table_csv`; rows must cover u = 0..max.

    A malformed file, a repeated row, or a cell outside [0, 100] (``inf`` and
    ``nan`` too), raises :class:`ParseError` positioned at ``path:line``.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}")
    if not lines or lines[0].strip() != _TABLE_HEADER:
        raise ParseError("resource table header mismatch", position=f"{path}:1")
    rows: dict[int, list[float]] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 12:
            raise ParseError("expected 12 fields", position=f"{path}:{line_no}")
        try:
            cells = [float(v) for v in parts[1:]]
            if not all(0.0 <= cell <= 100.0 for cell in cells):  # also refuses nan
                raise ValueError("cells must be percentages in [0, 100]")
            u = int(parts[0])
        except ValueError as e:
            raise ParseError(f"bad cell: {e}", position=f"{path}:{line_no}")
        if u in rows:
            raise ParseError(f"repeated row u = {u}", position=f"{path}:{line_no}")
        rows[u] = cells
    # a length check, not a range of the labels: one huge label stays cheap
    if not rows or min(rows) != 0 or len(rows) != max(rows) + 1:
        raise ParseError(f"resource table rows must cover u = 0..max ({path})")
    return ResourceTable(np.array([rows[u] for u in range(len(rows))]))
