"""Ball-by-ball match ingestion and per-innings cumulative trajectories.

Reads two document kinds:

* Cricsheet-style JSON (one match per file), using ``info.match_type``,
  ``info.dates[0]``, ``info.teams``, ``info.venue`` and
  ``innings[*].overs[*].deliveries[*]``.
* A canonical CSV ball log (fixtures and interop) with header
  ``match_id,format,innings,over,ball_in_over,legal,batter_runs,extras_runs,extras_kind,wicket``.

Normalization rules applied while building trajectories:

* the ball axis counts **legal deliveries only**, starting at 1, so a full
  ODI innings always spans 1..300;
* runs from wides and no-balls are credited to the next legal ball (or the
  previous one when an innings ends on an illegal delivery);
* wickets follow the same index placement as the runs of their delivery;
  a batter retired hurt or retired not out is not a wicket.

An innings is one :class:`InningsRecord` of columns (over, ball_in_over,
batter_runs, extras_runs, an extras-kind code, wicket), one row per delivery,
with read-only :class:`Delivery` row views on demand.  It checks each
delivery rule once over its columns; each reader maps the first failing row
back to its own position (a JSON path or a CSV line), where it also reports
any other malformed field, as one :class:`ParseError`, so one bad file is one
diagnostic in :func:`load_corpus`.
"""

from __future__ import annotations

import json
import warnings
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from datetime import date
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

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
_ILLEGAL_CODES = (ExtrasKind.WIDE.code, ExtrasKind.NO_BALL.code)

# far above any real delivery: it keeps every innings sum exact in int64 and
# float64, and a totals histogram in proportion to the input
_MAX_DELIVERY_RUNS = 100

_I64 = np.iinfo(np.int64)
_COLUMNS = ("over", "ball_in_over", "batter_runs", "extras_runs", "kind", "wicket")


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
        for name in _COLUMNS:
            dtype = bool if name == "wicket" else np.int64
            object.__setattr__(self, name, _column(getattr(self, name), dtype))
        if len({getattr(self, name).shape for name in _COLUMNS}) != 1:
            raise ValueError("columns differ in length")

        over, ball, batter, extras = self.over, self.ball_in_over, self.batter_runs, self.extras_runs
        cap = _MAX_DELIVERY_RUNS
        rules = (
            ((over < 0) | (ball < 1), "over must be >= 0 and ball_in_over >= 1"),
            ((over == _I64.max) | (ball == _I64.max), "over or ball_in_over past int64"),
            ((batter < 0) | (extras < 0), "negative runs"),
            ((batter > cap) | (extras > cap), f"more than {cap} runs from one delivery"),
            ((self.kind < 0) | (self.kind >= len(_KINDS)), "unknown extras kind code"),
            (~self.legal & (extras < 1), "wide/no-ball must credit at least one extra run"),
        )
        failing = np.logical_or.reduce([mask for mask, _ in rules])
        if failing.any():
            row = int(failing.argmax())
            raise _RowError(row, next(message for mask, message in rules if mask[row]))
        if np.any((over[1:] < over[:-1]) | ((over[1:] == over[:-1]) & (ball[1:] < ball[:-1]))):
            raise ValueError("deliveries not ordered by (over, ball_in_over)")
        if np.count_nonzero(self.wicket) > 10:
            raise ValueError("more than 10 wickets in one innings")

    def __eq__(self, other):
        if not isinstance(other, InningsRecord):
            return NotImplemented
        fields = ("innings_index", "batting_team") + _COLUMNS
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in fields)

    @property
    def legal(self) -> np.ndarray:
        return np.isin(self.kind, _ILLEGAL_CODES, invert=True)

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
        for arr in (self.ball, self.runs, self.wickets):
            arr.setflags(write=False)

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
        records, warns = _matches_from_csv(text)
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
        match_date = date.fromisoformat(str(info["dates"][0]))
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
            over_col, ball_col, batter_col, extras_col, kind_col, wicket_col = columns
            starts = []  # the row of each over's first delivery
            for o, over_obj in enumerate(entry.get("overs", ())):
                b = None
                starts.append(len(over_col))
                over = int(over_obj.get("over", 0))
                for b, d in enumerate(over_obj.get("deliveries", ())):
                    runs = d.get("runs", {})
                    over_col.append(over)
                    ball_col.append(b + 1)
                    batter_col.append(int(runs.get("batter", 0)))
                    extras_col.append(int(runs.get("extras", 0)))
                    kind_col.append(_extras_code(d.get("extras")))
                    wicket_col.append(
                        any(w.get("kind") not in _NOT_DISMISSALS for w in d.get("wickets") or ())
                    )
            o = None
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
    for key, kind in _EXTRAS_PRECEDENCE if extras else ():
        if key in extras:
            return kind.code
    return ExtrasKind.NONE.code


def _parse_bool(token: str) -> bool:
    t = token.strip().lower()
    if t in ("true", "1"):
        return True
    if t in ("false", "0"):
        return False
    raise ValueError(f"bad boolean {token!r}")


def _matches_from_csv(text: str) -> tuple[list[MatchRecord], list[str]]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        raise ParseError("CSV header does not match the canonical ball log", position="line 1")

    # match_id -> (format, innings index -> [line numbers, *columns]), first seen first
    by_match: dict[str, tuple[MatchFormat, dict[int, list[list]]]] = {}
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
            fmt = MatchFormat.from_string(fmt_s)
            innings_index = int(inn_s)
            row = (line_no, int(over_s), int(bio_s), int(br_s), int(er_s),
                   ExtrasKind(kind_s.strip()).code, _parse_bool(wicket_s))
            # the one field no column holds: legality follows from the kind
            if _parse_bool(legal_s) == (row[5] in _ILLEGAL_CODES):
                raise ValueError("legal flag inconsistent with extras kind")
        except (UnsupportedFormatError, ValueError) as e:
            raise ParseError(f"bad delivery row: {e}", position=f"line {line_no}") from e
        match_fmt, by_index = by_match.setdefault(mid, (fmt, {}))
        if match_fmt is not fmt:
            raise ParseError(
                f"conflicting formats for match {mid!r}", position=f"line {line_no}"
            )
        columns = by_index.setdefault(innings_index, [[] for _ in range(7)])
        for column, value in zip(columns, row):
            column.append(value)

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
        innings.sort(key=lambda inn: inn.innings_index)
        records.append(MatchRecord(mid, fmt, _CSV_EPOCH, ("", ""), "", innings))
    return records, []


def load_corpus(
    directory: str | Path, format_filter: MatchFormat | None = None
) -> Corpus:
    """Parse every ``.json`` / ``.csv`` file in ``directory``.

    Per-file failures never abort the batch; they are collected as
    diagnostics.  Matches are returned sorted by match_id, so the result does
    not depend on filesystem enumeration order.
    """
    root = Path(directory)
    if not root.is_dir():
        raise NotADirectoryError(f"not a readable directory: {root}")

    matches: list[MatchRecord] = []
    diagnostics: list[Diagnostic] = []
    for path in sorted(root.iterdir()):
        suffix = path.suffix.lower()
        if suffix not in (".json", ".csv"):
            continue
        try:
            text = _decode(path.read_bytes())
            if suffix == ".json":
                record, warns = _match_from_json(text, match_id=path.stem)
                parsed = [record]
            else:
                parsed, warns = _matches_from_csv(text)
        except (ParseError, UnsupportedFormatError, OSError) as e:
            diagnostics.append(Diagnostic(path.name, str(e)))
            continue
        diagnostics.extend(Diagnostic(path.name, w) for w in warns)
        matches.extend(parsed)

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
    legal = innings.legal
    runs = innings.batter_runs + innings.extras_runs
    wkts = innings.wicket

    n_legal = int(legal.sum())
    if n_legal > format.scheduled_balls:
        raise ValueError(
            f"innings has {n_legal} legal balls but the {format.value} schedule "
            f"is {format.scheduled_balls}"
        )
    if n_legal == 0:
        # all-illegal innings: one synthetic point at ball 1
        return InningsTrajectory(
            ball=np.array([1], dtype=np.int64),
            runs=np.array([int(runs.sum())], dtype=np.int64),
            wickets=np.array([int(wkts.sum())], dtype=np.int64),
            total=int(runs.sum()),
            completed_balls=0,
        )

    # legal ball index carried by each delivery: a legal ball keeps its own
    # index, an illegal one credits the next legal ball (previous at the end)
    own_index = np.cumsum(legal)
    credit = np.where(legal, own_index, np.minimum(own_index + 1, n_legal))

    per_ball_runs = np.bincount(credit, weights=runs, minlength=n_legal + 1)[1:]
    per_ball_wkts = np.bincount(credit, weights=wkts, minlength=n_legal + 1)[1:]
    cum_runs = np.round(np.cumsum(per_ball_runs)).astype(np.int64)
    cum_wkts = np.round(np.cumsum(per_ball_wkts)).astype(np.int64)

    return InningsTrajectory(
        ball=np.arange(1, n_legal + 1, dtype=np.int64),
        runs=cum_runs,
        wickets=cum_wkts,
        total=int(cum_runs[-1]),
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
# canonical CSV export


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
