"""Match records, per-innings cumulative trajectories and corpus loading.

:func:`parse_match` and :func:`load_corpus` read Cricsheet JSON with
:mod:`rainrule.cricsheet` and the CSV ball log with :mod:`rainrule.csv_log`,
each imported on first use.  Trajectories count **legal deliveries only**
on the ball axis, from 1, so a full ODI innings spans 1..300.  The point at
each legal ball sums the runs and wickets of every delivery bowled up to
and including it, so those of a wide or no-ball count at the next legal
ball; the last legal ball also carries the deliveries bowled after it, and
an innings with no legal ball is one point at ball 1.

An innings is one :class:`InningsRecord` of columns (over, ball_in_over,
batter_runs, extras_runs, an extras-kind code, wicket), one row per delivery,
with read-only :class:`Delivery` row views on demand.  It checks each
delivery rule once over its columns; each reader maps the first failing row
(:class:`RowError`) back to its own position, a JSON path or a CSV line, as
one :class:`ParseError`, so one bad file is one diagnostic in :func:`load_corpus`.

:func:`load_corpus` keeps what it read of each ``.json`` file in the record
cache of :mod:`rainrule.record_cache`, so an unchanged file is decoded once.
"""

from __future__ import annotations

import re
import warnings
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, fields
from datetime import date
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ParseError, UnsupportedFormatError

__all__ = [
    "MatchFormat", "ExtrasKind", "Delivery", "InningsRecord", "MatchRecord", "InningsTrajectory",
    "Diagnostic", "Corpus", "ParseWarning", "parse_match", "load_corpus", "trajectory",
    "innings_trajectories", "qualifying_trajectories",
]


class MatchFormat(Enum):
    """Limited-overs format; fixes the scheduled number of legal balls."""

    ODI = "odi"
    T20I = "t20i"
    IPL = "ipl"

    @property
    def scheduled_balls(self) -> int:
        return 300 if self is MatchFormat.ODI else 120

    @property
    def scheduled_overs(self) -> int:
        return self.scheduled_balls // 6

    @classmethod
    def from_string(cls, name: str) -> "MatchFormat":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise UnsupportedFormatError(f"unknown match format: {name!r}") from None


class ExtrasKind(Enum):
    NONE = "none"
    WIDE = "wide"
    NO_BALL = "no_ball"
    BYE = "bye"
    LEG_BYE = "leg_bye"
    PENALTY = "penalty"

    def __init__(self, value: str):
        # this kind's value in the ``kind`` column of an InningsRecord: its position
        self.code = len(type(self).__members__)


_KINDS = tuple(ExtrasKind)
# whether a delivery of each kind, by code, is legal: wides and no-balls are not
LEGAL_BY_CODE = np.array([kind not in (ExtrasKind.WIDE, ExtrasKind.NO_BALL) for kind in _KINDS])

# far above any real delivery: it keeps every innings sum exact in int64 and
# float64, and a totals histogram in proportion to the input
_MAX_DELIVERY_RUNS = 100

_I64 = np.iinfo(np.int64)
# the least and the most each of over, ball_in_over, batter_runs, extras_runs and
# kind may hold, and the least extras_runs by kind: the delivery rules as bounds
_LEAST = np.array([[0], [1], [0], [0], [0]])
_MOST = np.array([[_I64.max - 1], [_I64.max - 1], [_MAX_DELIVERY_RUNS], [_MAX_DELIVERY_RUNS],
                  [len(_KINDS) - 1]])
_LEAST_EXTRAS = (~LEGAL_BY_CODE).astype(np.int64)
_COLUMNS = ("over", "ball_in_over", "batter_runs", "extras_runs", "kind", "wicket")
_COLUMN_DTYPES = {name: bool if name == "wicket" else np.int64 for name in _COLUMNS}


class Delivery(NamedTuple):
    """One row of an :class:`InningsRecord`, as :attr:`InningsRecord.deliveries` shows it."""

    over: int
    ball_in_over: int
    batter_runs: int
    extras_runs: int
    extras_kind: ExtrasKind
    wicket: bool
    legal: bool

    @property
    def total_runs(self) -> int:
        return self.batter_runs + self.extras_runs


class RowError(ValueError):
    """A record rule failing at ``row`` (a delivery, or a resource-table row), which
    a reader maps to its own position."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _first_bad_row(low: np.ndarray, high: np.ndarray, scarce: np.ndarray) -> RowError:
    """The first row outside a bound, with the first rule it breaks: ``low`` and ``high``
    mark the rows of each bounded column below :data:`_LEAST` and above :data:`_MOST`,
    and ``scarce`` the rows whose extras fall below :data:`_LEAST_EXTRAS`."""
    rules = (
        (low[:2], "over must be >= 0 and ball_in_over >= 1"),
        (high[:2], "over or ball_in_over past int64"),
        (low[2:4], "negative runs"),
        (high[2:4], f"more than {_MAX_DELIVERY_RUNS} runs from one delivery"),
        (low[4:] | high[4:], "unknown extras kind code"),
        (scarce[None], "wide/no-ball must credit at least one extra run"),
    )
    row = int(((low | high).any(axis=0) | scarce).argmax())
    return RowError(row, next(message for masks, message in rules if masks[:, row].any()))


def freeze_columns(record, **dtypes) -> None:
    """Set each named array field of a record to a read-only array of its dtype (``None``
    keeps the given one): the given array when nothing can write it (it and the array
    that owns its memory are read-only), else a copy, a value past int64 pinned to the
    nearer end, where a delivery rule rejects it; so a caller's writable arrays stay the
    caller's.  Columns that are not 1-D, or differ in length, raise ``ValueError``."""
    for name, dtype in dtypes.items():
        column = values = getattr(record, name)
        owner = values.base if type(values) is np.ndarray else None
        if not (type(values) is np.ndarray and not values.flags.writeable
                and (owner is None or type(owner) is np.ndarray and not owner.flags.writeable)
                and (dtype is None or values.dtype == dtype)):
            try:
                column = np.array(values, dtype=dtype)
            except OverflowError:
                column = np.array([min(max(v, _I64.min), _I64.max) for v in values], dtype=dtype)
            column.setflags(write=False)
            object.__setattr__(record, name, column)
        if column.ndim != 1:
            raise ValueError("columns must be 1-D")
    if len({getattr(record, name).size for name in dtypes}) != 1:
        raise ValueError("columns differ in length")


def value_eq(self, other) -> bool:
    """``==`` of the records that hold arrays: the same class, and every field equal
    by ``np.array_equal``.  Each sets it as ``__eq__``, so none of them is hashable."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True, eq=False)
class InningsRecord:
    """One innings as columns, one row per delivery, legal or not.

    ``ball_in_over`` is the delivery's sequence number within its over,
    counting illegal deliveries, so ordering by (over, ball_in_over) is the
    bowling order.  ``kind`` holds :attr:`ExtrasKind.code` values, and ``legal``
    is derived from it by :data:`LEGAL_BY_CODE`.
    ``wicket`` is boolean, the other columns int64.
    """

    innings_index: int
    batting_team: str
    over: np.ndarray
    ball_in_over: np.ndarray
    batter_runs: np.ndarray
    extras_runs: np.ndarray
    kind: np.ndarray
    wicket: np.ndarray

    def __post_init__(self):
        if self.innings_index not in (1, 2):
            raise ValueError("innings_index must be 1 or 2")
        freeze_columns(self, **_COLUMN_DTYPES)
        # every row rule at once as bounds, which also name the first failure
        bounded = np.array(
            [self.over, self.ball_in_over, self.batter_runs, self.extras_runs, self.kind]
        )
        low, high = bounded < _LEAST, bounded > _MOST
        scarce = self.extras_runs < _LEAST_EXTRAS.take(self.kind, mode="clip")
        if (low | high).any() or scarce.any():
            raise _first_bad_row(low, high, scarce)
        step = bounded[:2, 1:] - bounded[:2, :-1]  # within bounds, so it cannot wrap
        if (np.where(step[0], step[0], step[1]) < 0).any():
            raise ValueError("deliveries not ordered by (over, ball_in_over)")
        if np.count_nonzero(self.wicket) > 10:
            raise ValueError("more than 10 wickets in one innings")

    __eq__ = value_eq

    @property
    def legal(self) -> np.ndarray:
        # an unknown code reads as a kind at the nearer end, until the kind rule names its row
        return LEGAL_BY_CODE.take(self.kind, mode="clip")

    @property
    def deliveries(self) -> tuple[Delivery, ...]:
        """The rows as :class:`Delivery` views, built on each call."""
        rows = zip(*(getattr(self, c).tolist() for c in _COLUMNS), self.legal.tolist())
        return tuple(Delivery(o, b, r, x, _KINDS[k], w, ok) for o, b, r, x, k, w, ok in rows)


@dataclass(frozen=True)
class MatchRecord:
    match_id: str
    format: MatchFormat
    date: date
    teams: tuple[str, str]
    venue: str
    innings: tuple[InningsRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "innings", tuple(self.innings))
        object.__setattr__(self, "teams", tuple(self.teams))
        idx = [inn.innings_index for inn in self.innings]
        if not 1 <= len(idx) <= 2 or len(set(idx)) != len(idx):
            raise ValueError("a match needs 1 or 2 innings with distinct indices")


@dataclass(frozen=True, eq=False)
class InningsTrajectory:
    """Cumulative (runs, wickets) at each legal ball: one point per completed ball, or
    one for the all-illegal innings, whose ``completed_balls`` stays 0.  ``ball``
    (1..len(runs), a new array on each read) and ``total`` are derived."""

    runs: np.ndarray
    wickets: np.ndarray
    completed_balls: int

    def __post_init__(self):
        freeze_columns(self, runs=None, wickets=None)
        points = self.runs.size
        if not points:
            raise ValueError("a trajectory needs at least one point")
        if self.completed_balls != points and (points, self.completed_balls) != (1, 0):
            raise ValueError("completed_balls must equal the number of points, or be 0 for one")

    __eq__ = value_eq

    @property
    def ball(self) -> np.ndarray:
        return np.arange(1, self.runs.size + 1, dtype=np.int64)

    @property
    def total(self) -> int:
        return int(self.runs[-1])

    @property
    def points(self) -> list[tuple[int, int, int]]:
        return list(zip(self.ball.tolist(), self.runs.tolist(), self.wickets.tolist()))


@dataclass(frozen=True)
class Diagnostic:
    source: str
    message: str


class ParseWarning(UserWarning):
    """Non-fatal data loss during parsing (e.g. super-over innings dropped)."""


@dataclass(frozen=True)
class Corpus(Sequence):
    """Sequence of MatchRecord plus the diagnostics collected while loading."""

    matches: tuple[MatchRecord, ...]
    diagnostics: tuple[Diagnostic, ...] = ()

    def __len__(self) -> int:
        return len(self.matches)

    def __getitem__(self, i):
        return self.matches[i]

    def __iter__(self) -> Iterator[MatchRecord]:
        return iter(self.matches)


# ---------------------------------------------------------------------------
# parsing


def parse_match(data: bytes | str, match_id: str | None = None) -> MatchRecord:
    """Parse one match document (Cricsheet JSON or single-match CSV).

    When the document holds more than two innings (super overs), the extra
    deliveries are dropped and a :class:`ParseWarning` reports how many.
    """
    text = decode(data)
    head = text.lstrip()
    if not head.startswith(("{", "match_id")):
        raise ParseError("unrecognised document: expected Cricsheet JSON or CSV ball log")
    records, warns = _read(text, head.startswith("{"), match_id)
    for message in warns:
        warnings.warn(message, ParseWarning, stacklevel=2)
    if len(records) != 1:
        raise ParseError(f"expected exactly one match in CSV document, found {len(records)}")
    return records[0]


def _read(data: bytes | str, cricsheet: bool, match_id: str | None):
    """The matches of a Cricsheet JSON document or a CSV ball log, and its warnings."""
    if cricsheet:
        from .cricsheet import read_match

        record, warns = read_match(decode(data), match_id)
        return [record], warns
    from .csv_log import read_log

    return read_log(data), []


def decode(data: bytes | str) -> str:
    """``data`` as text; bytes that are not UTF-8 are refused at the first bad one."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError("document is not valid UTF-8", position=f"byte {e.start}") from e


def parse_date(text: str) -> date:
    """The day ``text`` names in exactly ``YYYY-MM-DD`` form, ASCII digits only;
    ``date.fromisoformat`` alone also reads ``20190105`` from Python 3.11 on."""
    if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return date.fromisoformat(text)


def load_corpus(
    directory: str | Path, format_filter: MatchFormat | None = None
) -> Corpus:
    """Parse every ``.json`` / ``.csv`` file in ``directory``.

    Per-file failures never abort the batch; they are collected as
    diagnostics.  Files are read in name order, and the first match read
    under each match id is kept: every later copy is one diagnostic naming
    the file it was first read from.  Matches are returned sorted by
    match_id, so the result does not depend on filesystem enumeration order.

    What each ``.json`` file gave (its match and warnings, or the text of the
    error it failed with) is kept in ``directory/.rainrule-cache``
    (:mod:`rainrule.record_cache`), keyed by the file's name, byte length and
    CRC-32, so an unchanged file is not decoded again: its records are rebuilt
    from the cached columns through the same checks.  Any other file is
    parsed, and the cache is then rewritten whole, without the files no
    longer there.  A change to the JSON reader, the record rules, Python or
    numpy invalidates every entry.  A missing, unreadable or damaged cache
    counts as empty, one that cannot be written is not written, and the file
    is always safe to delete: none of these changes a match or a diagnostic.
    CSV ball logs are not cached.
    """
    root = Path(directory)
    if not root.is_dir():
        raise NotADirectoryError(f"not a readable directory: {root}")

    cache = None  # opened at the first .json file, so CSV logs never load it
    matches: list[MatchRecord] = []
    diagnostics: list[Diagnostic] = []
    first_read: dict[str, str] = {}  # match id -> the file it was kept from
    for path in sorted(root.iterdir()):
        suffix = path.suffix.lower()
        if suffix not in (".json", ".csv"):
            continue
        try:
            raw = path.read_bytes()
        except OSError as e:  # its strerror alone, so the file is named once
            diagnostics.append(Diagnostic(path.name, e.strerror or str(e)))
            continue
        if suffix == ".csv":
            outcome = _outcome(raw, False, path)
        else:
            if cache is None:
                from .record_cache import RecordCache

                cache = RecordCache(root)
            outcome = cache.outcome(path, raw)
        if isinstance(outcome, str):
            diagnostics.append(Diagnostic(path.name, outcome))
            continue
        parsed, warns = outcome
        diagnostics.extend(Diagnostic(path.name, w) for w in warns)
        for match in parsed:
            mid = match.match_id
            if mid in first_read:
                message = f"duplicate match id {mid!r} skipped: first read from {first_read[mid]}"
                diagnostics.append(Diagnostic(path.name, message))
            else:
                first_read[mid] = path.name
                matches.append(match)
    if cache is not None:
        cache.save()

    if format_filter is not None:
        matches = [m for m in matches if m.format is format_filter]
    matches.sort(key=lambda m: m.match_id)
    return Corpus(tuple(matches), tuple(diagnostics))


def _outcome(raw: bytes, cricsheet: bool, path: Path):
    """The matches and warnings :func:`_read` gives for a file's bytes, or the text
    of the error it fails with."""
    try:
        return _read(raw, cricsheet, path.stem)
    except (ParseError, UnsupportedFormatError) as e:
        return str(e)


# ---------------------------------------------------------------------------
# trajectories


def trajectory(innings: InningsRecord, format: MatchFormat) -> InningsTrajectory:
    """Cumulative score/wicket trajectory over the legal-ball axis.

    Total runs are conserved exactly: the trajectory total equals the sum of
    batter and extras runs over all deliveries, legal or not.
    """
    if not innings.kind.size:
        raise ValueError("innings has no deliveries")
    legal_rows = np.flatnonzero(innings.legal)
    n_legal = legal_rows.size
    if n_legal > format.scheduled_balls:
        raise ValueError(
            f"innings has {n_legal} legal balls but the {format.value} schedule "
            f"is {format.scheduled_balls}"
        )
    # the row each point is read at: every legal ball but the last, then the
    # last delivery, so the final point also carries any trailing illegal ones
    at = np.append(legal_rows[:-1], innings.kind.size - 1)
    runs = np.cumsum(innings.batter_runs + innings.extras_runs)[at]
    wickets = np.cumsum(innings.wicket, dtype=np.int64)[at]
    for column in runs, wickets:  # nothing else holds them, so the trajectory keeps them
        column.setflags(write=False)
    return InningsTrajectory(runs, wickets, n_legal)


def innings_trajectories(
    corpus: Iterable[MatchRecord], format: MatchFormat, innings_index: int
) -> Iterator[InningsTrajectory]:
    """Trajectory of every ``innings_index`` innings of ``format``, in corpus order.

    The one innings selection behind every corpus statistic.  Innings that
    :func:`trajectory` rejects are left out: abandoned ones with no
    deliveries and over-length ones with more legal balls than scheduled.
    """
    for match in corpus:
        if match.format is format:
            for inn in match.innings:
                if inn.innings_index == innings_index:
                    try:
                        traj = trajectory(inn, format)
                    except ValueError:
                        continue  # abandoned or over-length
                    yield traj


def qualifying_trajectories(
    corpus: Iterable[MatchRecord], format: MatchFormat, innings_index: int
) -> Iterator[InningsTrajectory]:
    """The :func:`innings_trajectories` that ran full length or ended all out.

    Curves and resource grids use these; innings of shortened matches are left out.
    """
    scheduled = format.scheduled_balls
    for traj in innings_trajectories(corpus, format, innings_index):
        if traj.completed_balls >= scheduled or int(traj.wickets[-1]) == 10:
            yield traj

