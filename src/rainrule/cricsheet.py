"""The Cricsheet JSON match document, one match per file: its reader
:func:`read_match`, and :func:`match_to_json`, which writes the document it
reads, with that document's file text :func:`match_json_text`.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from functools import cache

from .ball_log import ExtrasKind, InningsRecord, MatchFormat, MatchRecord, RowError, parse_date
from .errors import ParseError, UnsupportedFormatError

__all__ = ["read_match", "match_to_json", "match_json_text"]

_NONE_CODE = ExtrasKind.NONE.code


def read_match(text: str, match_id: str | None) -> tuple[MatchRecord, list[str]]:
    """The match of a Cricsheet JSON document, and a warning for each loss:
    innings beyond the second (super overs) are dropped."""
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
            values = []  # six per delivery: over, ball_in_over, batter, extras, kind code, wicket
            starts = []  # the row of each over's first delivery
            for o, over_obj in enumerate(entry.get("overs", ())):
                b = None
                starts.append(len(values) // 6)
                over = over_obj.get("over", 0)
                if type(over) is not int:  # JSON integers only: no bool, float or string
                    raise TypeError(f"over number {over!r} is not an integer")
                for b, d in enumerate(over_obj.get("deliveries", ())):
                    runs, extras, wickets = d.get("runs", {}), d.get("extras"), d.get("wickets")
                    values += (
                        over, b + 1, runs.get("batter", 0), runs.get("extras", 0),
                        _extras_code(extras) if extras else _NONE_CODE,
                        any(w.get("kind") not in _NOT_DISMISSALS for w in wickets)
                        if wickets else False,
                    )
            o = None
            columns = [values[k::6] for k in range(6)]  # one per field, a row per delivery
            for column in columns[2:4]:  # runs too are JSON integers: no bool, float or string
                if not {int}.issuperset(map(type, column)):
                    row = next(r for r, v in enumerate(column) if type(v) is not int)
                    raise RowError(row, f"run count {column[row]!r} is not an integer")
            innings.append(InningsRecord(i + 1, str(entry.get("team", "")), *columns))
        i = None
        record = MatchRecord(match_id, fmt, match_date, teams, venue, innings)
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as e:
        if i is not None:
            field = f"$.innings[{i}]"
            if isinstance(e, RowError):
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


# ---------------------------------------------------------------------------
# writing

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
