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

:func:`load_corpus` keeps what it read of each data file in the record cache
of :mod:`rainrule.record_cache`, so an unchanged file is decoded once.
"""

from __future__ import annotations

import re
import warnings
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from datetime import date
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ParseError, UnsupportedFormatError
from .fits import Record

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
_LEAST = np.array([0, 1, 0, 0, 0])
_MOST = np.array([_I64.max - 1, _I64.max - 1, _MAX_DELIVERY_RUNS, _MAX_DELIVERY_RUNS,
                  len(_KINDS) - 1])
_LEAST_EXTRAS = (~LEGAL_BY_CODE).astype(np.int8)
_COLUMNS = ("over", "ball_in_over", "batter_runs", "extras_runs", "kind", "wicket")
_COLUMN_DTYPES = {name: bool if name == "wicket" else np.int64 for name in _COLUMNS}


class Delivery(namedtuple("Delivery", ("over", "ball_in_over", "batter_runs", "extras_runs",
                                         "extras_kind", "wicket", "legal"))):
    """One row of an :class:`InningsRecord`, as :attr:`InningsRecord.deliveries` shows it."""

    __slots__ = ()

    @property
    def total_runs(self) -> int:
        return self.batter_runs + self.extras_runs


class RowError(ValueError):
    """A record rule failing at ``row`` (a delivery, or a resource-table row), which
    a reader maps to its own position."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _row_error(columns, row: int) -> RowError:
    """The first delivery rule that row ``row`` of the columns breaks."""
    values = np.array([column[row] for column in columns[:5]])
    low, high = values < _LEAST, values > _MOST
    rules = (
        (low[:2], "over must be >= 0 and ball_in_over >= 1"),
        (high[:2], "over or ball_in_over past int64"),
        (low[2:4], "negative runs"),
        (high[2:4], f"more than {_MAX_DELIVERY_RUNS} runs from one delivery"),
        (low[4:] | high[4:], "unknown extras kind code"),
        ([True], "wide/no-ball must credit at least one extra run"),
    )
    return RowError(row, next(message for masks, message in rules if any(masks)))


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


def checked_innings(heads, columns, starts: np.ndarray) -> list:
    """The :class:`InningsRecord` of each innings of a table, or the ``ValueError``
    ``InningsRecord(...)`` raises for it, a :class:`RowError` at its row of the table:
    ``heads`` holds each innings' (index, batting team), and ``columns`` the record
    columns (read-only, of the record dtypes, in memory nothing can write) of every
    innings' rows, innings ``k`` from row ``starts[k]`` (nondecreasing, from 0).  The
    rules are checked once over the table, and each record holds views of the columns."""
    over, ball_in_over, _, extras_runs, kind, wicket = columns
    outside = extras_runs < _LEAST_EXTRAS.take(kind, mode="clip")
    for column, least, most in zip(columns, _LEAST, _MOST):
        outside |= (column < least) | (column > most)
    back = np.append(False, (over[1:] < over[:-1])  # a row bowled before the one above it
                     | (over[1:] == over[:-1]) & (ball_in_over[1:] < ball_in_over[:-1]))
    back[starts[starts < over.size]] = False  # an innings' first row follows another's
    # the innings of each row that breaks a rule and of each wicket, counted from 1
    faulty = np.searchsorted(starts, np.flatnonzero(outside | back), "right")
    wickets = np.bincount(np.searchsorted(starts, np.flatnonzero(wicket), "right"))
    broken = {*(faulty - 1).tolist(), *(np.flatnonzero(wickets > 10) - 1).tolist()}
    bounds, records = [*starts.tolist(), over.size], []
    for k, (index, team) in enumerate(heads):
        first, end = bounds[k:k + 2]
        if index not in (1, 2):
            records.append(ValueError("innings_index must be 1 or 2"))
        elif k not in broken:
            records.append(InningsRecord.__new__(InningsRecord))
            records[-1]._set_fields(index, team, *(column[first:end] for column in columns))
        elif outside[first:end].any():
            records.append(_row_error(columns, first + int(outside[first:end].argmax())))
        elif back[first:end].any():
            records.append(ValueError("deliveries not ordered by (over, ball_in_over)"))
        else:
            records.append(ValueError("more than 10 wickets in one innings"))
    return records


def value_eq(self, other) -> bool:
    """``==`` of the records that hold arrays: the same class, and every field equal
    by ``np.array_equal``.  Each sets it as ``__eq__``, so none of them is hashable."""
    if type(other) is not type(self):
        return NotImplemented
    return all(map(np.array_equal, self._values(), other._values()))


class InningsRecord(Record):
    """One innings as columns, one row per delivery, legal or not.

    ``ball_in_over`` is the delivery's sequence number within its over,
    counting illegal deliveries, so ordering by (over, ball_in_over) is the
    bowling order.  ``kind`` holds :attr:`ExtrasKind.code` values, and ``legal``
    is derived from it by :data:`LEGAL_BY_CODE`.
    ``wicket`` is boolean, the other columns int64.
    """

    __slots__ = ("innings_index", "batting_team", *_COLUMNS)

    def __init__(self, innings_index: int, batting_team: str, over: np.ndarray,
                 ball_in_over: np.ndarray, batter_runs: np.ndarray, extras_runs: np.ndarray,
                 kind: np.ndarray, wicket: np.ndarray):
        self._set_fields(innings_index, batting_team, over, ball_in_over, batter_runs,
                         extras_runs, kind, wicket)
        freeze_columns(self, **_COLUMN_DTYPES)
        [checked] = checked_innings([self._values()[:2]], self._values()[2:], np.zeros(1, int))
        if isinstance(checked, ValueError):
            raise checked

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


class MatchRecord(Record):
    __slots__ = ("match_id", "format", "date", "teams", "venue", "innings")

    def __init__(self, match_id: str, format: MatchFormat, date: date, teams: tuple[str, str],
                 venue: str, innings: tuple[InningsRecord, ...]):
        innings = tuple(innings)
        self._set_fields(match_id, format, date, tuple(teams), venue, innings)
        idx = [inn.innings_index for inn in self.innings]
        if not 1 <= len(idx) <= 2 or len(set(idx)) != len(idx):
            raise ValueError("a match needs 1 or 2 innings with distinct indices")


class InningsTrajectory(Record):
    """Cumulative (runs, wickets) at each legal ball: one point per completed ball, or
    one for the all-illegal innings, whose ``completed_balls`` stays 0.  Runs start at 0
    or more and never fall; wickets stay within [0, 10] and never fall.  ``ball``
    (1..len(runs), a new array on each read) and ``total`` are derived."""

    __slots__ = ("runs", "wickets", "completed_balls")

    def __init__(self, runs: np.ndarray, wickets: np.ndarray, completed_balls: int):
        self._set_fields(runs, wickets, completed_balls)
        freeze_columns(self, runs=None, wickets=None)
        runs, wickets = self.runs, self.wickets
        if not runs.size:
            raise ValueError("a trajectory needs at least one point")
        if self.completed_balls != runs.size and (runs.size, self.completed_balls) != (1, 0):
            raise ValueError("completed_balls must equal the number of points, or be 0 for one")
        if runs[0] < 0 or (runs[1:] < runs[:-1]).any():
            raise ValueError("runs must not start below 0 or fall")
        if not 0 <= wickets[0] <= wickets[-1] <= 10 or (wickets[1:] < wickets[:-1]).any():
            raise ValueError("wickets must stay within [0, 10] and not fall")

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


class Diagnostic(Record):
    __slots__ = ("source", "message")

    def __init__(self, source: str, message: str):
        self._set_fields(source, message)


class ParseWarning(UserWarning):
    """Non-fatal data loss during parsing (e.g. super-over innings dropped)."""


class Corpus(Record, Sequence):
    """Sequence of MatchRecord plus the diagnostics collected while loading."""

    __slots__ = ("matches", "diagnostics")

    def __init__(self, matches: tuple[MatchRecord, ...], diagnostics: tuple[Diagnostic, ...] = ()):
        self._set_fields(matches, diagnostics)

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

    What each data file gave (its matches and warnings, or the text of the
    error it failed with) is kept in ``directory/.rainrule-cache``
    (:mod:`rainrule.record_cache`), keyed by the file's name, byte length and
    CRC-32, so an unchanged file is not decoded again: the cached innings are
    one table, whose rules are checked once, and its records are views of it.
    Any other file is parsed, and the cache is then rewritten whole, without
    the files no longer there.  A change to a reader, the record rules, Python
    or numpy invalidates every entry.  A missing, unreadable or damaged cache
    counts as empty, one that cannot be written is not written, and the file
    is always safe to delete: none of these changes a match or a diagnostic.
    """
    root = Path(directory)
    if not root.is_dir():
        raise NotADirectoryError(f"not a readable directory: {root}")

    from .record_cache import RecordCache

    cache = RecordCache(root)
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
        outcome = cache.outcome(path, raw, suffix == ".json")
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

