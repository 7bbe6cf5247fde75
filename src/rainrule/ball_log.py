"""Ball-by-ball match ingestion and per-innings cumulative trajectories.

Reads two document kinds, and writes each (:func:`match_to_json` and its text
:func:`match_json_text`, :func:`export_csv`):

* Cricsheet-style JSON (one match per file), using ``info.match_type``,
  ``info.dates[0]``, ``info.teams``, ``info.venue`` and
  ``innings[*].overs[*].deliveries[*]``.
* A canonical CSV ball log (fixtures and interop) with header
  ``match_id,format,innings,over,ball_in_over,legal,batter_runs,extras_runs,extras_kind,wicket``.

Normalization rules applied while building trajectories:

* the ball axis counts **legal deliveries only**, starting at 1, so a full
  ODI innings always spans 1..300;
* the point at each legal ball is the cumulative sum of runs and wickets over
  every delivery bowled up to and including it, so runs and wickets on wides
  and no-balls count at the next legal ball; the last legal ball also carries
  the deliveries bowled after it, and an innings with no legal ball is one
  point at ball 1;
* a batter retired hurt or retired not out is not a wicket.

An innings is one :class:`InningsRecord` of columns (over, ball_in_over,
batter_runs, extras_runs, an extras-kind code, wicket), one row per delivery,
with read-only :class:`Delivery` row views on demand.  It checks each
delivery rule once over its columns; each reader maps the first failing row
back to its own position (a JSON path or a CSV line), where it also reports
any other malformed field, as one :class:`ParseError`, so one bad file is one
diagnostic in :func:`load_corpus`.  A CSV log is read a column at a time
from its bytes; one that reader does not take as it stands goes, decoded,
to the row-by-row reader, which names the line.
"""

from __future__ import annotations

import json
import re
import warnings
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from datetime import date
from enum import Enum
from functools import cache, cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, ParseError, UnsupportedFormatError

__all__ = [
    "MatchFormat",
    "ExtrasKind",
    "Delivery",
    "InningsRecord",
    "MatchRecord",
    "InningsTrajectory",
    "Diagnostic",
    "Corpus",
    "ParseWarning",
    "parse_match",
    "load_corpus",
    "match_to_json",
    "match_json_text",
    "trajectory",
    "innings_trajectories",
    "qualifying_trajectories",
    "export_csv",
    "CSV_HEADER",
]

CSV_HEADER = (
    "match_id,format,innings,over,ball_in_over,legal,"
    "batter_runs,extras_runs,extras_kind,wicket"
)

# placeholder metadata for CSV ball logs, which carry none
_CSV_EPOCH = date(1900, 1, 1)
_CSV_BOOL = {True: "true", False: "false"}


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
_NONE_CODE, _WIDE_CODE, _NO_BALL_CODE = (
    ExtrasKind.NONE.code, ExtrasKind.WIDE.code, ExtrasKind.NO_BALL.code
)

# far above any real delivery: it keeps every innings sum exact in int64 and
# float64, and a totals histogram in proportion to the input
_MAX_DELIVERY_RUNS = 100

_I64 = np.iinfo(np.int64)
# the least and the most each of over, ball_in_over, batter_runs, extras_runs and
# kind may hold, and the least extras_runs by kind: the delivery rules as bounds
_LEAST = np.array([[0], [1], [0], [0], [0]])
_MOST = np.array([[_I64.max - 1], [_I64.max - 1], [_MAX_DELIVERY_RUNS], [_MAX_DELIVERY_RUNS],
                  [len(_KINDS) - 1]])
_LEAST_EXTRAS = np.array([int(kind in (ExtrasKind.WIDE, ExtrasKind.NO_BALL)) for kind in _KINDS])
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


class _RowError(ValueError):
    """A delivery rule failing at ``row``, which a reader maps to its own position."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _column(values, dtype) -> np.ndarray:
    """A read-only copy; a value past int64 is pinned to the nearer end,
    where a delivery rule rejects it."""
    try:
        column = np.array(values, dtype=dtype)
    except OverflowError:
        column = np.array([min(max(v, _I64.min), _I64.max) for v in values], dtype=dtype)
    column.setflags(write=False)
    return column


def freeze_columns(record, **dtypes) -> None:
    """Set each named array field of a record to a read-only :func:`_column` copy of
    its dtype (``None`` keeps the given one); unequal shapes raise ``ValueError``."""
    for name, dtype in dtypes.items():
        object.__setattr__(record, name, _column(getattr(record, name), dtype))
    if len({getattr(record, name).shape for name in dtypes}) != 1:
        raise ValueError("columns differ in length")


@dataclass(frozen=True, eq=False)
class InningsRecord:
    """One innings as columns, one row per delivery, legal or not.

    ``ball_in_over`` is the delivery's sequence number within its over,
    counting illegal deliveries, so ordering by (over, ball_in_over) is the
    bowling order.  ``kind`` holds :attr:`ExtrasKind.code` values; wides and
    no-balls are the illegal kinds, so ``legal`` is derived from it.
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
        # every row rule at once as bounds; the rules one by one only to name a failure
        bounded = np.array(
            [self.over, self.ball_in_over, self.batter_runs, self.extras_runs, self.kind]
        )
        if ((bounded < _LEAST) | (bounded > _MOST)).any() or (
            self.extras_runs < _LEAST_EXTRAS.take(self.kind, mode="clip")
        ).any():
            raise self._first_bad_row()
        step = bounded[:2, 1:] - bounded[:2, :-1]  # within bounds, so it cannot wrap
        if (np.where(step[0], step[0], step[1]) < 0).any():
            raise ValueError("deliveries not ordered by (over, ball_in_over)")
        if np.count_nonzero(self.wicket) > 10:
            raise ValueError("more than 10 wickets in one innings")

    def _first_bad_row(self) -> _RowError:
        """The first row that breaks a delivery rule, with the first rule it breaks."""
        over, ball = self.over, self.ball_in_over
        batter, extras, cap = self.batter_runs, self.extras_runs, _MAX_DELIVERY_RUNS
        rules = (
            ((over < 0) | (ball < 1), "over must be >= 0 and ball_in_over >= 1"),
            ((over == _I64.max) | (ball == _I64.max), "over or ball_in_over past int64"),
            ((batter < 0) | (extras < 0), "negative runs"),
            ((batter > cap) | (extras > cap), f"more than {cap} runs from one delivery"),
            ((self.kind < 0) | (self.kind >= len(_KINDS)), "unknown extras kind code"),
            (~self.legal & (extras < 1), "wide/no-ball must credit at least one extra run"),
        )
        row = int(np.logical_or.reduce([mask for mask, _ in rules]).argmax())
        return _RowError(row, next(message for mask, message in rules if mask[row]))

    def __eq__(self, other):
        if not isinstance(other, InningsRecord):
            return NotImplemented
        fields = ("innings_index", "batting_team") + _COLUMNS
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in fields)

    @property
    def legal(self) -> np.ndarray:
        return (self.kind != _WIDE_CODE) & (self.kind != _NO_BALL_CODE)

    @cached_property
    def deliveries(self) -> tuple[Delivery, ...]:
        """The rows as :class:`Delivery` views, built on first use."""
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


@dataclass(frozen=True)
class InningsTrajectory:
    """Cumulative (ball, runs, wickets) sampled at each legal ball.

    ``ball`` runs 1..completed_balls except for the degenerate all-illegal
    innings, which yields a single synthetic point at ball 1 while
    ``completed_balls`` stays 0.
    """

    ball: np.ndarray
    runs: np.ndarray
    wickets: np.ndarray
    total: int
    completed_balls: int

    def __post_init__(self):
        freeze_columns(self, ball=None, runs=None, wickets=None)

    @property
    def points(self) -> list[tuple[int, int, int]]:
        return list(zip(self.ball.tolist(), self.runs.tolist(), self.wickets.tolist()))

    def __len__(self) -> int:
        return len(self.ball)


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
    text = _decode(data)
    head = text.lstrip()
    if head.startswith("{"):
        record, warns = _match_from_json(text, match_id)
    elif head.startswith("match_id"):
        records, warns = _matches_from_csv(data)
        if len(records) != 1:
            raise ParseError(
                f"expected exactly one match in CSV document, found {len(records)}"
            )
        record = records[0]
    else:
        raise ParseError("unrecognised document: expected Cricsheet JSON or CSV ball log")
    for message in warns:
        warnings.warn(message, ParseWarning, stacklevel=2)
    return record


def _decode(data: bytes | str) -> str:
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


def _match_from_json(text: str, match_id: str | None) -> tuple[MatchRecord, list[str]]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, position=f"line {e.lineno} column {e.colno}") from e
    except RecursionError as e:
        raise ParseError("document is nested too deeply") from e
    except ValueError as e:  # an integer of more than 4300 digits
        raise ParseError(str(e)) from e

    # one conversion point: any value of the wrong type or shape, anywhere in
    # the document, fails this document only, never the batch loading it;
    # the node being read is a header field, or innings i, over o, delivery b
    field, i, o, b = "$.info", None, None, None
    try:
        info = doc["info"]
        fmt = _detect_format(info)
        field = "$.info.dates"
        match_date = parse_date(str(info["dates"][0]))
        field = "$.info.teams"
        teams = info["teams"]
        if len(teams) != 2:
            raise ValueError("expected exactly two teams")
        teams = (str(teams[0]), str(teams[1]))
        if match_id is None:
            slug = "-".join(t.lower().replace(" ", "_") for t in teams)
            match_id = f"{match_date.isoformat()}-{slug}"
        venue = str(info.get("venue", ""))

        field = "$.innings"
        raw_innings = doc["innings"]
        innings: list[InningsRecord] = []
        dropped = 0
        for i, entry in enumerate(raw_innings):
            if i >= 2:
                dropped += sum(len(ov.get("deliveries", ())) for ov in entry.get("overs", ()))
                continue
            columns: tuple[list, ...] = ([], [], [], [], [], [])
            add_over, add_ball, add_batter, add_extras, add_kind, add_wicket = (
                column.append for column in columns
            )
            starts = []  # the row of each over's first delivery
            for o, over_obj in enumerate(entry.get("overs", ())):
                b = None
                starts.append(len(columns[0]))
                over = over_obj.get("over", 0)
                if type(over) is not int:  # JSON integers only: no bool, float or string
                    raise TypeError(f"over number {over!r} is not an integer")
                for b, d in enumerate(over_obj.get("deliveries", ())):
                    runs = d.get("runs", {})
                    add_over(over)
                    add_ball(b + 1)
                    add_batter(runs.get("batter", 0))
                    add_extras(runs.get("extras", 0))
                    extras = d.get("extras")
                    add_kind(_extras_code(extras) if extras else _NONE_CODE)
                    wickets = d.get("wickets")
                    add_wicket(
                        any(w.get("kind") not in _NOT_DISMISSALS for w in wickets)
                        if wickets else False
                    )
            o = None
            for column in columns[2:4]:  # runs too are JSON integers: no bool, float or string
                if not {int}.issuperset(map(type, column)):
                    row = next(r for r, v in enumerate(column) if type(v) is not int)
                    raise _RowError(row, f"run count {column[row]!r} is not an integer")
            innings.append(InningsRecord(i + 1, str(entry.get("team", "")), *columns))
        i = None
        record = MatchRecord(match_id, fmt, match_date, teams, venue, innings)
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as e:
        if i is not None:
            field = f"$.innings[{i}]"
            if isinstance(e, _RowError):
                o = bisect_right(starts, e.row) - 1
                b = e.row - starts[o]
            if o is not None:
                field += f".overs[{o}]" + ("" if b is None else f".deliveries[{b}]")
        detail = f"missing key {e}" if isinstance(e, KeyError) else str(e)
        raise ParseError(f"bad match document: {detail}", position=field) from e

    warns: list[str] = []
    if len(raw_innings) > 2:
        warns.append(
            f"dropped {dropped} deliveries in {len(raw_innings) - 2} innings beyond innings 2"
        )
    return record, warns


def _detect_format(info: dict) -> MatchFormat:
    # women's and club T20 matches would mix a second scoring population into the fits
    match_type = info.get("match_type")
    if info.get("gender") == "female":
        raise UnsupportedFormatError("women's matches are not supported")
    if match_type == "ODI":
        return MatchFormat.ODI
    if match_type in ("T20", "IT20"):
        event = info.get("event")
        name = event.get("name", "") if isinstance(event, dict) else str(event or "")
        if "Indian Premier League" in name:
            return MatchFormat.IPL
        if info.get("team_type") == "club":
            raise UnsupportedFormatError(f"club T20 outside the IPL is not supported: {name!r}")
        return MatchFormat.T20I
    raise UnsupportedFormatError(f"unsupported match_type {match_type!r}")


# illegal kinds first: they decide legality when several extras co-occur
_EXTRAS_PRECEDENCE = (
    ("wides", ExtrasKind.WIDE),
    ("noballs", ExtrasKind.NO_BALL),
    ("byes", ExtrasKind.BYE),
    ("legbyes", ExtrasKind.LEG_BYE),
    ("penalty", ExtrasKind.PENALTY),
)


# Cricsheet records these batters leaving in the ``wickets`` list, but they
# are not out; "retired out" is a dismissal and stays one
_NOT_DISMISSALS = ("retired hurt", "retired not out")


def _extras_code(extras) -> int:
    for key, kind in _EXTRAS_PRECEDENCE:
        if key in extras:
            return kind.code
    return _NONE_CODE


def _parse_bool(token: str) -> bool:
    t = token.strip().lower()
    if t in ("true", "1"):
        return True
    if t in ("false", "0"):
        return False
    raise ValueError(f"bad boolean {token!r}")


class _Memo(dict):
    """``convert`` of each raw token, run once per distinct token; a token
    that fails to convert is not kept, so it fails again wherever it recurs."""

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, token):
        value = self[token] = self.convert(token)
        return value


def _kind_code(token: str) -> int:
    return ExtrasKind(token.strip()).code


def _matches_from_csv(data: bytes | str) -> tuple[list[MatchRecord], list[str]]:
    """The matches of a CSV ball log, read a column at a time.  A log that
    the columnar reader does not take as it stands is decoded for the row
    reader, which reads it the same way or raises at its first bad line."""
    try:
        records = _matches_from_columns(data.encode() if isinstance(data, str) else data)
    except (UnsupportedFormatError, ValueError):  # a lone surrogate too: UnicodeEncodeError
        records = _matches_from_rows(_decode(data))
    return records, []


def _csv_match(mid: str, fmt: MatchFormat, innings: Iterable[InningsRecord]) -> MatchRecord:
    innings = sorted(innings, key=lambda inn: inn.innings_index)
    return MatchRecord(mid, fmt, _CSV_EPOCH, ("", ""), "", innings)


def _matches_from_rows(text: str) -> list[MatchRecord]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        raise ParseError("CSV header does not match the canonical ball log", position="line 1")

    # the format, kind and flag cells take a handful of distinct tokens
    formats = _Memo(MatchFormat.from_string)
    kinds = _Memo(_kind_code)
    flags = _Memo(_parse_bool)
    # match_id -> (format, innings index -> (line numbers, *columns)), first seen first
    by_match: dict[str, tuple[MatchFormat, dict[int, tuple[list, ...]]]] = {}
    mid_now = index_now = None  # the innings the previous row went to
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 10:
            raise ParseError(
                f"expected 10 fields, found {len(parts)}", position=f"line {line_no}"
            )
        mid, fmt_s, inn_s, over_s, bio_s, legal_s, br_s, er_s, kind_s, wicket_s = parts
        try:
            fmt = formats[fmt_s]
            innings_index = int(inn_s)
            over, ball, batter, extras = int(over_s), int(bio_s), int(br_s), int(er_s)
            kind = kinds[kind_s]
            wicket = flags[wicket_s]
            # the one field no column holds: legality follows from the kind
            if flags[legal_s] == (kind == _WIDE_CODE or kind == _NO_BALL_CODE):
                raise ValueError("legal flag inconsistent with extras kind")
        except (UnsupportedFormatError, ValueError) as e:
            raise ParseError(f"bad delivery row: {e}", position=f"line {line_no}") from e
        if mid != mid_now or innings_index != index_now:
            match_fmt, by_index = by_match.setdefault(mid, (fmt, {}))
            if innings_index not in by_index:
                by_index[innings_index] = ([], [], [], [], [], [], [])
            (add_line, add_over, add_ball, add_batter, add_extras, add_kind,
             add_wicket) = (column.append for column in by_index[innings_index])
            mid_now, index_now = mid, innings_index
        if fmt is not match_fmt:
            raise ParseError(
                f"conflicting formats for match {mid!r}", position=f"line {line_no}"
            )
        add_line(line_no)
        add_over(over)
        add_ball(ball)
        add_batter(batter)
        add_extras(extras)
        add_kind(kind)
        add_wicket(wicket)

    records = []
    for mid, (fmt, by_index) in by_match.items():
        innings = []
        for idx, (line_nos, *columns) in by_index.items():
            try:
                innings.append(InningsRecord(idx, "", *columns))
            except _RowError as e:
                position = f"line {line_nos[e.row]}"
                raise ParseError(f"bad delivery row: {e}", position=position) from e
            except ValueError as e:
                raise ParseError(f"bad innings {idx} of match {mid!r}: {e}") from e
        records.append(_csv_match(mid, fmt, innings))
    return records


_FORMATS = tuple(MatchFormat)
_CSV_HEAD = (CSV_HEADER + "\n").encode()
# ``str.splitlines`` ends a line at each of these as well as at "\n"
_OTHER_LINE_BREAKS = tuple(c.encode() for c in "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")
_MAX_DIGITS = 18  # every number of up to 18 digits fits int64
_MAX_TOKEN = 7  # bytes of a token; an eighth holds its length in its key
_COMMA, _NEWLINE, _ZERO = (ord(c) for c in ",\n0")
# _LOW_BYTES[k] keeps the k lowest bytes of a little-endian word, _HIGH_BYTES[k] the k highest
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_HIGH_BYTES = _LOW_BYTES[::-1] ^ _LOW_BYTES[-1]


def _matches_from_columns(raw: bytes) -> list[MatchRecord]:
    """The matches of a UTF-8 log of well-formed rows, read a column at a time.

    Raises ``ValueError`` (or :class:`UnsupportedFormatError`) unless every
    line is the header or a row of 10 fields of which the integers are 1 to
    18 ASCII digits, the tokens convert, the legal flags match the kinds, each
    match keeps one format and each innings' rows are contiguous: a log the
    row reader might read otherwise, or refuse, is left to it.  Every byte
    past the header is a separator, a digit or part of a token or match id
    that is decoded, so a log that is not UTF-8 raises too.
    """
    if not raw.startswith(_CSV_HEAD) or any(c in raw for c in _OTHER_LINE_BREAKS):
        raise ValueError("no canonical header, or a line break other than \\n")
    buf = np.frombuffer(raw, np.uint8)
    sep = _separators(buf)
    # every line, the header too, is nine commas then a newline, and the last one ends the log
    if sep.size % 10 or sep[-1] != buf.size - 1:
        raise ValueError("a line of other than 10 fields, or no final newline")
    line_seps = buf[sep].reshape(-1, 10)
    if (line_seps[:, :9] != _COMMA).any() or (line_seps[:, 9] != _NEWLINE).any():
        raise ValueError("a line of other than 10 fields")
    if sep.size == 10:
        return []

    def field(k):  # (begin, end) of field k of each row, past the header
        return sep[9 + k:-1:10] + 1, sep[10 + k::10]

    index, over, ball, batter, extras = (_integers(buf, *field(k)) for k in (2, 3, 4, 6, 7))
    fmt = _tokens(buf, *field(1), lambda t: _FORMATS.index(MatchFormat.from_string(t)))
    legal, wicket = (_tokens(buf, *field(k), _parse_bool) for k in (5, 9))
    kind = _tokens(buf, *field(8), _kind_code)
    if np.any(legal == ((kind == _WIDE_CODE) | (kind == _NO_BALL_CODE))):
        raise ValueError("legal flag inconsistent with extras kind")

    # an innings is a run of rows under one match id and innings index
    begin, end = field(0)
    new_innings = _changes(buf, begin, end) | (index[1:] != index[:-1])
    if np.any(~new_innings & (fmt[1:] != fmt[:-1])):
        raise ValueError("conflicting formats")
    cuts = np.flatnonzero(new_innings) + 1
    firsts = np.append(0, cuts)
    by_match: dict[str, tuple[MatchFormat, dict[int, InningsRecord]]] = {}
    for a, b, at, to, idx, code in zip(
        firsts.tolist(), np.append(cuts, end.size).tolist(),
        begin[firsts].tolist(), end[firsts].tolist(),
        index[firsts].tolist(), fmt[firsts].tolist(),
    ):
        match_fmt, innings = by_match.setdefault(raw[at:to].decode(), (_FORMATS[code], {}))
        if match_fmt is not _FORMATS[code] or idx in innings:
            raise ValueError("conflicting formats, or an innings in two runs of rows")
        innings[idx] = InningsRecord(
            idx, "", over[a:b], ball[a:b], batter[a:b], extras[a:b], kind[a:b], wicket[a:b]
        )
    return [_csv_match(mid, fmt, innings.values()) for mid, (fmt, innings) in by_match.items()]


def _separators(buf: np.ndarray) -> np.ndarray:
    """The position of every comma and newline, found 256 KiB at a time so
    that no mask or int64 index of the whole log is ever held."""
    dtype = np.int32 if buf.size <= np.iinfo(np.int32).max else np.int64
    step = 1 << 18
    return np.concatenate([
        (np.flatnonzero((buf[i:i + step] == _COMMA) | (buf[i:i + step] == _NEWLINE)) + i)
        .astype(dtype)
        for i in range(0, buf.size, step)
    ])


def _integers(buf: np.ndarray, begin: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The number each field spells in 1 to 18 ASCII digits, as int64;
    ``ValueError`` for any other field, such as " 3", "+3" or "1_0"."""
    width = end - begin
    if width.min() < 1 or width.max() > _MAX_DIGITS:
        raise ValueError("an integer field of no or too many digits")
    value = np.zeros(width.size, np.int64)
    for j in range(int(width.max())):  # the digit worth 10**j, in fields that have one
        digit = buf[end - 1 - j].astype(np.int64) - _ZERO
        inside = j < width
        if np.any(inside & ((digit < 0) | (digit > 9))):
            raise ValueError("an integer field of other than ASCII digits")
        value += np.where(inside, digit, 0) * 10**j
    return value


def _tokens(buf: np.ndarray, begin: np.ndarray, end: np.ndarray, convert) -> np.ndarray:
    """``convert`` of each field, called once per distinct token; ``ValueError``
    for a token of over 7 bytes or one ``convert`` refuses."""
    width = (end - begin).astype(np.uint64)
    if width.max() > _MAX_TOKEN:
        raise ValueError("a token of over 7 bytes")
    # a token's key: the word that ends with it, its width in the bytes before it
    key = _words(buf)[end - 8] & _HIGH_BYTES[width] | width
    ordered = np.sort(key)
    distinct = ordered[np.append(True, ordered[1:] != ordered[:-1])]
    tokens = (k.to_bytes(8, "little")[8 - (k & 0xFF):].decode() for k in distinct.tolist())
    return np.array([convert(token) for token in tokens])[np.searchsorted(distinct, key)]


def _changes(buf: np.ndarray, begin: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Whether each field but the first differs, byte for byte, from the one before."""
    width = end - begin
    changed = width[1:] != width[:-1]
    # fields of equal width, compared a word at a time
    words, width = _words(buf), width[1:]
    for j in range(0, int(width.max(initial=0)), 8):
        here, there = (words[np.minimum(at + j, buf.size - 8)] for at in (begin[1:], begin[:-1]))
        changed |= (here ^ there) & _LOW_BYTES[np.clip(width - j, 0, 8)] != 0
    return changed


def _words(buf: np.ndarray) -> np.ndarray:
    """The eight bytes from each offset of ``buf`` as one little-endian word."""
    return sliding_window_view(buf, 8).view("<u8")[:, 0]


def load_corpus(
    directory: str | Path, format_filter: MatchFormat | None = None
) -> Corpus:
    """Parse every ``.json`` / ``.csv`` file in ``directory``.

    Per-file failures never abort the batch; they are collected as
    diagnostics.  Files are read in name order, and the first match read
    under each match id is kept: every later copy is one diagnostic naming
    the file it was first read from.  Matches are returned sorted by
    match_id, so the result does not depend on filesystem enumeration order.
    """
    root = Path(directory)
    if not root.is_dir():
        raise NotADirectoryError(f"not a readable directory: {root}")

    matches: list[MatchRecord] = []
    diagnostics: list[Diagnostic] = []
    first_read: dict[str, str] = {}  # match id -> the file it was kept from
    for path in sorted(root.iterdir()):
        suffix = path.suffix.lower()
        if suffix not in (".json", ".csv"):
            continue
        try:
            data = path.read_bytes()
            if suffix == ".json":
                record, warns = _match_from_json(_decode(data), match_id=path.stem)
                parsed = [record]
            else:
                parsed, warns = _matches_from_csv(data)
        except (ParseError, UnsupportedFormatError, OSError) as e:
            diagnostics.append(Diagnostic(path.name, str(e)))
            continue
        diagnostics.extend(Diagnostic(path.name, w) for w in warns)
        for match in parsed:
            mid = match.match_id
            if mid in first_read:
                message = f"duplicate match id {mid!r} skipped: first read from {first_read[mid]}"
                diagnostics.append(Diagnostic(path.name, message))
            else:
                first_read[mid] = path.name
                matches.append(match)

    if format_filter is not None:
        matches = [m for m in matches if m.format is format_filter]
    matches.sort(key=lambda m: m.match_id)
    return Corpus(tuple(matches), tuple(diagnostics))


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
    return InningsTrajectory(
        ball=np.arange(1, at.size + 1, dtype=np.int64),
        runs=runs,
        wickets=np.cumsum(innings.wicket, dtype=np.int64)[at],
        total=int(runs[-1]),
        completed_balls=n_legal,
    )


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


# ---------------------------------------------------------------------------
# writing: Cricsheet JSON documents and the canonical CSV ball log

# what _detect_format reads back as each format: IPL by its event name
_MATCH_TYPE = {MatchFormat.ODI: "ODI", MatchFormat.T20I: "T20", MatchFormat.IPL: "T20"}
_EVENT_NAME = {
    MatchFormat.ODI: "Fixture ODI Series",
    MatchFormat.T20I: "Fixture T20 Internationals",
    MatchFormat.IPL: "Indian Premier League (fixture)",
}
_EXTRAS_KEY = {kind.code: key for key, kind in _EXTRAS_PRECEDENCE}


def _delivery_doc(batter: int, extras: int, kind: int, wicket: bool) -> dict:
    doc: dict = {
        "batter": "Batter",
        "bowler": "Bowler",
        "non_striker": "Runner",
        "runs": {"batter": batter, "extras": extras, "total": batter + extras},
    }
    if kind in _EXTRAS_KEY:
        doc["extras"] = {_EXTRAS_KEY[kind]: extras}
    if wicket:
        doc["wickets"] = [{"kind": "bowled", "player_out": "Batter"}]
    return doc


def match_to_json(match: MatchRecord) -> dict:
    """Cricsheet JSON document of ``match``; the file name carries its match id."""
    return _match_doc(match, _delivery_doc)


def match_json_text(match: MatchRecord) -> str:
    """``json.dumps(match_to_json(match), indent=2, sort_keys=True)`` and a
    newline, the text of a match's file, with each distinct delivery encoded once."""

    @cache
    def delivery(*key) -> _Encoded:
        return _Encoded(_json_text(_delivery_doc(*key), _DELIVERY_DEPTH))

    return _json_text(_match_doc(match, delivery)) + "\n"


def _match_doc(match: MatchRecord, delivery) -> dict:
    """:func:`match_to_json`, taking each delivery's value from
    ``delivery(batter, extras, kind, wicket)``."""
    innings_docs = []
    for inn in match.innings:
        overs: dict[int, list] = {}
        columns = (inn.over, inn.batter_runs, inn.extras_runs, inn.kind, inn.wicket)
        for over, batter, extras, kind, wicket in zip(*(column.tolist() for column in columns)):
            overs.setdefault(over, []).append(delivery(batter, extras, kind, wicket))
        over_docs = [{"over": over, "deliveries": docs} for over, docs in sorted(overs.items())]
        innings_docs.append({"team": inn.batting_team, "overs": over_docs})
    return {
        "meta": {"data_version": "1.1.0", "revision": 1},
        "info": {
            "match_type": _MATCH_TYPE[match.format],
            "dates": [match.date.isoformat()],
            "teams": list(match.teams),
            "venue": match.venue,
            "event": {"name": _EVENT_NAME[match.format]},
        },
        "innings": innings_docs,
    }


# how deep a delivery sits in a match document: innings list, innings, overs
# list, over, deliveries list, delivery
_DELIVERY_DEPTH = 6


# what json.dumps writes for a string, escaping all but printable ASCII
_json_string = json.encoder.encode_basestring_ascii


class _Encoded(str):
    """JSON text already laid out at the depth it is written at."""


def _json_text(value, depth: int = 0) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` laid out ``depth`` levels
    into a document of string keys, taking an :class:`_Encoded` list item as
    it stands."""
    if type(value) is int:
        return int.__repr__(value)  # as json writes an int
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, dict) and value:
        brackets = "{}"
        items = [f"{_json_string(k)}: {_json_text(v, depth + 1)}" for k, v in sorted(value.items())]
    elif isinstance(value, (list, tuple)) and value:
        brackets = "[]"
        items = [v if isinstance(v, _Encoded) else _json_text(v, depth + 1) for v in value]
    else:
        return json.dumps(value)
    pad = "\n" + "  " * depth
    return brackets[0] + pad + "  " + ("," + pad + "  ").join(items) + pad + brackets[1]


def _csv_rows(match: MatchRecord) -> Iterable[str]:
    for inn in match.innings:
        head = f"{match.match_id},{match.format.value},{inn.innings_index}"
        rows = zip(*(getattr(inn, c).tolist() for c in _COLUMNS), inn.legal.tolist())
        for over, ball, batter, extras, kind, wicket, legal in rows:
            yield (
                f"{head},{over},{ball},{_CSV_BOOL[legal]},{batter},{extras},"
                f"{_KINDS[kind].value},{_CSV_BOOL[wicket]}"
            )


def export_csv(matches: Iterable[MatchRecord], destination: str | Path) -> int:
    """Write matches as the canonical CSV ball log; returns the row count."""
    lines = [CSV_HEADER]
    for match in matches:
        mid = match.match_id
        if "," in mid or "".join(mid.splitlines()) != mid:  # would split on reading
            raise DataError(f"match id {mid!r} cannot be written to a CSV ball log")
        lines.extend(_csv_rows(match))
    payload = "\n".join(lines) + "\n"
    Path(destination).write_text(payload, encoding="utf-8", newline="\n")
    return len(lines) - 1
