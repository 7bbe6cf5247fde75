"""Parsing, normalization and trajectory tests."""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import tracemalloc
import warnings
import zlib
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from rainrule import (
    CSV_HEADER,
    DataError,
    ExtrasKind,
    Histogram,
    InningsRecord,
    InningsTrajectory,
    MatchFormat,
    MatchRecord,
    ParseError,
    ParseWarning,
    ResourceTable,
    UnsupportedFormatError,
    WicketCurve,
    export_csv,
    innings_trajectories,
    load_corpus,
    match_to_json,
    parse_match,
    qualifying_trajectories,
    trajectory,
)
from rainrule import ball_log, cricsheet, csv_log, fixtures, record_cache
from rainrule.fixtures import fixture_path, synthetic_corpus, write_corpus
from test_outputs import LAYOUTS as RELAID_LOGS


def legal(over, ball, batter=0, extras=0, kind=ExtrasKind.NONE, wicket=False):
    return (over, ball, batter, extras, kind.code, wicket)


def illegal(over, ball, kind=ExtrasKind.WIDE, extras=1, batter=0, wicket=False):
    return (over, ball, batter, extras, kind.code, wicket)


def innings_of(*rows, index=1):
    """The innings whose columns hold these ``legal``/``illegal`` rows."""
    columns = zip(*rows) if rows else [()] * 6
    return InningsRecord(index, "X", *columns)


# ---------------------------------------------------------------------------
# document parsing


class TestParseMatch:
    def test_tiny_odi_shape(self):
        rec = parse_match(fixture_path("tiny_odi.json").read_bytes(), match_id="tiny_odi")
        assert rec.format is MatchFormat.ODI
        assert rec.match_id == "tiny_odi"
        assert [inn.innings_index for inn in rec.innings] == [1, 2]
        assert [len(inn.deliveries) for inn in rec.innings] == [6, 6]
        assert rec.teams == ("Northern Lights", "Harbour Kings")

    def test_deliveries_are_views_not_a_second_copy(self):
        innings = parse_match(fixture_path("tiny_odi.json").read_bytes()).innings[0]
        assert len(innings.deliveries) == innings.over.size
        # reading the rows leaves the innings holding its eight fields and nothing else
        assert list(vars(innings)) == [f.name for f in dataclasses.fields(InningsRecord)]

    def test_wide_is_normalized_illegal(self):
        rec = parse_match(fixture_path("tiny_odi.json").read_text())
        wide = rec.innings[0].deliveries[2]
        assert wide.extras_kind is ExtrasKind.WIDE
        assert not wide.legal
        assert wide.extras_runs == 1

    def test_format_detection(self):
        t20i = parse_match(fixture_path("tiny_t20i.json").read_bytes())
        ipl = parse_match(fixture_path("tiny_ipl.json").read_bytes())
        assert t20i.format is MatchFormat.T20I
        assert ipl.format is MatchFormat.IPL

    def test_unknown_match_type_is_unsupported(self):
        doc = json.loads(fixture_path("tiny_odi.json").read_text())
        doc["info"]["match_type"] = "Test"
        with pytest.raises(UnsupportedFormatError, match="'Test'"):
            parse_match(json.dumps(doc))

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError, match=r"line \d+ column \d+"):
            parse_match('{"info": {')

    def test_bad_utf8_reports_byte(self):
        with pytest.raises(ParseError, match="byte"):
            parse_match(b"\xff\xfe{}")

    def test_missing_innings_rejected(self):
        doc = json.loads(fixture_path("tiny_odi.json").read_text())
        doc["innings"] = []
        with pytest.raises(ParseError, match="innings"):
            parse_match(json.dumps(doc))

    def test_super_over_dropped_with_warning(self):
        doc = json.loads(fixture_path("tiny_odi.json").read_text())
        doc["innings"].append(doc["innings"][0])
        with pytest.warns(ParseWarning, match="dropped 6 deliveries"):
            rec = parse_match(json.dumps(doc))
        assert len(rec.innings) == 2

    def test_match_id_synthesized_from_date_and_teams(self):
        rec = parse_match(fixture_path("tiny_odi.json").read_text())
        assert rec.match_id == "2019-06-01-northern_lights-harbour_kings"

    def test_unrecognised_document(self):
        with pytest.raises(ParseError, match="unrecognised"):
            parse_match("over,runs\n1,4\n")


class TestCsvLog:
    def test_tiny_log_parses(self):
        rec = parse_match(fixture_path("tiny_log.csv").read_text())
        assert rec.match_id == "csv-fixture-1"
        assert rec.format is MatchFormat.ODI
        assert [len(inn.deliveries) for inn in rec.innings] == [6, 6]
        no_ball = rec.innings[1].deliveries[3]
        assert no_ball.extras_kind is ExtrasKind.NO_BALL
        assert no_ball.batter_runs == 1 and not no_ball.legal

    def test_header_mismatch(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_match("match_id,format\nx,odi\n")

    def test_bad_field_count(self):
        text = CSV_HEADER + "\nm1,odi,1,0,1,true,0,0,none\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_match(text)

    def test_bad_boolean(self):
        text = CSV_HEADER + "\nm1,odi,1,0,1,yes,0,0,none,false\n"
        with pytest.raises(ParseError, match="boolean"):
            parse_match(text)

    def test_round_trip_preserves_deliveries(self, tmp_path, small_odi):
        out = tmp_path / "log.csv"
        rows = export_csv(small_odi, out)
        assert rows == sum(len(i.deliveries) for m in small_odi for i in m.innings)
        corpus = load_corpus(tmp_path)
        assert len(corpus) == len(small_odi)
        by_id = {m.match_id: m for m in small_odi}
        for match in corpus:
            original = by_id[match.match_id]
            assert match.format is original.format
            for got, want in zip(match.innings, original.innings):
                assert got.deliveries == want.deliveries

    @staticmethod
    def reference_log(matches) -> str:
        """The log as a whole-text writer formats it, one row at a time."""
        lines = [CSV_HEADER]
        for match in matches:
            for inn in match.innings:
                head = f"{match.match_id},{match.format.value},{inn.innings_index}"
                for o, b, ok, r, x, k, w in zip(inn.over.tolist(), inn.ball_in_over.tolist(),
                                                inn.legal.tolist(), inn.batter_runs.tolist(),
                                                inn.extras_runs.tolist(), inn.kind.tolist(),
                                                inn.wicket.tolist()):
                    kind = tuple(ExtrasKind)[k].value
                    lines.append(f"{head},{o},{b},{str(ok).lower()},{r},{x},{kind},"
                                 f"{str(w).lower()}")
        return "\n".join(lines) + "\n"

    def test_streamed_log_is_the_whole_text_log(self, tmp_path, small_odi, demo):
        for matches in (small_odi, demo, []):
            out = tmp_path / "log.csv"
            rows = export_csv(iter(matches), out)
            assert out.read_bytes() == self.reference_log(matches).encode()
            assert rows == sum(inn.over.size for m in matches for inn in m.innings)

    @pytest.mark.parametrize("bad_id", ["m,1", "m\n1", "m\r1", "m\u20281", "m\ud8001", "m\udcff"])
    def test_a_bad_match_id_after_good_ones_writes_nothing(self, tmp_path, small_odi, bad_id):
        first = small_odi[0]
        bad = MatchRecord(bad_id, first.format, first.date, first.teams, first.venue,
                          first.innings)
        out = tmp_path / "log.csv"
        with pytest.raises(DataError) as info:
            export_csv(list(small_odi[1:]) + [bad], out)
        assert str(info.value) == f"match id {bad_id!r} cannot be written to a CSV ball log"
        assert not out.exists()


class TestLoadCorpus:
    def test_mixed_directory(self, tmp_path):
        for name in ("tiny_odi.json", "tiny_t20i.json", "tiny_ipl.json"):
            (tmp_path / name).write_bytes(fixture_path(name).read_bytes())
        (tmp_path / "broken.json").write_text("{nope")
        (tmp_path / "notes.txt").write_text("ignored")
        corpus = load_corpus(tmp_path)
        assert [m.match_id for m in corpus] == ["tiny_ipl", "tiny_odi", "tiny_t20i"]
        assert len(corpus.diagnostics) == 1
        assert corpus.diagnostics[0].source == "broken.json"

    def test_format_filter(self, tmp_path):
        for name in ("tiny_odi.json", "tiny_t20i.json"):
            (tmp_path / name).write_bytes(fixture_path(name).read_bytes())
        corpus = load_corpus(tmp_path, MatchFormat.T20I)
        assert [m.format for m in corpus] == [MatchFormat.T20I]

    def test_duplicate_match_id_keeps_the_first_file_read(self, tmp_path):
        (tmp_path / "tiny_odi.json").write_bytes(fixture_path("tiny_odi.json").read_bytes())
        export_csv(load_corpus(tmp_path), tmp_path / "balls.csv")
        corpus = load_corpus(tmp_path)
        assert [m.match_id for m in corpus] == ["tiny_odi"]
        assert corpus[0].date == date(1900, 1, 1)  # the CSV copy: balls.csv sorts first
        assert [(d.source, d.message) for d in corpus.diagnostics] == [
            ("tiny_odi.json", "duplicate match id 'tiny_odi' skipped: first read from balls.csv")
        ]

    def test_duplicate_match_ids_across_ball_logs(self, tmp_path):
        odi = synthetic_corpus(MatchFormat.ODI, 3, seed=2)
        ipl = synthetic_corpus(MatchFormat.IPL, 1, seed=2)
        export_csv(odi[:2], tmp_path / "a.csv")
        export_csv(odi[1:] + ipl, tmp_path / "b.csv")

        def rows(matches):
            return [(m.match_id, [inn.deliveries for inn in m.innings]) for m in matches]

        corpus = load_corpus(tmp_path)
        assert rows(corpus) == sorted(rows(odi + ipl))
        message = f"duplicate match id {odi[1].match_id!r} skipped: first read from a.csv"
        assert [(d.source, d.message) for d in corpus.diagnostics] == [("b.csv", message)]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(NotADirectoryError):
            load_corpus(tmp_path / "absent")

    def test_match_to_json_reads_back_as_the_same_match(self, small_odi):
        for match in small_odi:
            text = json.dumps(match_to_json(match))
            assert parse_match(text, match_id=match.match_id) == match

    def test_write_corpus_round_trip(self, tmp_path, small_odi):
        paths = write_corpus(small_odi, tmp_path)
        assert [p.read_text() for p in paths] == [cricsheet.match_json_text(m) for m in small_odi]
        corpus = load_corpus(tmp_path)
        assert [m.match_id for m in corpus] == [m.match_id for m in small_odi]
        for got, want in zip(corpus, small_odi):
            assert got.format is want.format
            assert got.date == want.date
            for gi, wi in zip(got.innings, want.innings):
                assert gi.deliveries == wi.deliveries


RUN = {"runs": {"batter": 1, "extras": 0}}
WICKET = {"runs": {"batter": 0, "extras": 0}, "wickets": [{"kind": "bowled"}]}


def json_match(*innings):
    doc = json.loads(fixture_path("tiny_t20i.json").read_text())
    doc["innings"] = list(innings)
    return json.dumps(doc)


def json_innings(*overs):
    return {"team": "X", "overs": [{"over": o, "deliveries": d} for o, d in overs]}


def json_info(**fields):
    doc = json.loads(fixture_path("tiny_t20i.json").read_text())
    doc["info"].update(fields)
    return json.dumps(doc)


BAD_FILES = [
    # JSON integers only: int() read 4.9 as 4, "1" as 1 and true as 1
    (
        "batter_runs_float.json",
        json_match(json_innings((0, [RUN, {"runs": {"batter": 4.9, "extras": 0}}]))),
        "$.innings[0].overs[0].deliveries[1])",
    ),
    (
        "extras_runs_string.json",
        json_match(json_innings((0, [RUN, RUN, {"runs": {"batter": 0, "extras": "1"}}]))),
        "$.innings[0].overs[0].deliveries[2])",
    ),
    (
        "batter_runs_bool.json",
        json_match(
            json_innings((0, [RUN] * 6), (1, [RUN, {"runs": {"batter": True, "extras": 0}}]))
        ),
        "$.innings[0].overs[1].deliveries[1])",
    ),
    (
        "over_float.json",
        json_match(json_innings((0, [RUN] * 6), (2.5, [RUN]))),
        "$.innings[0].overs[1])",
    ),
    ("not_an_object.json", json_match(json_innings((0, [RUN])), "x"), "$.innings[1]"),
    (
        "bad_super_over.json",
        json_match(json_innings((0, [RUN])), json_innings((0, [RUN])), 7),
        "$.innings[2]",
    ),
    (
        "eleven_wickets.json",
        json_match(json_innings((0, [WICKET] * 6), (1, [WICKET] * 5))),
        "$.innings[0]",
    ),
    ("unordered.json", json_match(json_innings((1, [RUN]), (0, [RUN]))), "$.innings[0]"),
    (
        "eleven_wickets.csv",
        CSV_HEADER
        + "\n"
        + "".join(f"m1,t20i,1,0,{b},true,0,0,none,true\n" for b in range(1, 12)),
        "innings 1 of match 'm1'",
    ),
    ("dates_number.json", json_info(dates=5), "$.info.dates"),
    ("dates_object.json", json_info(dates={"a": 1}), "$.info.dates"),
    ("teams_number.json", json_info(teams=5), "$.info.teams"),
    ("event_name_number.json", json_info(event={"name": 5}), "$.info"),
    ("deeply_nested.json", '{"info": ' + "[" * 100_000 + "]" * 100_000 + "}", "nested"),
    # past the decoder's 4300-digit limit, which raised ValueError out of load_corpus
    (
        "huge_integer.json",
        json_match(json_innings((0, [{"runs": {"batter": "@"}}]))).replace('"@"', "1" * 5000),
        "digits",
    ),
    (
        "runaway_batter_runs.json",
        json_match(json_innings((0, [{"runs": {"batter": 10**10, "extras": 0}}]))),
        "$.innings[0].overs[0].deliveries[0]",
    ),
    (
        "runaway_extras_runs.csv",
        CSV_HEADER + "\nm1,t20i,1,0,1,true,0,10000000000,bye,false\n",
        "line 2",
    ),
    (
        "negative_batter_runs.json",
        json_match(json_innings((0, [RUN, {"runs": {"batter": -1, "extras": 0}}]))),
        "$.innings[0].overs[0].deliveries[1]",
    ),
    (
        "wide_without_extras.json",
        json_match(
            json_innings(
                (0, [RUN] * 6),
                (1, [RUN, {"runs": {"batter": 0, "extras": 0}, "extras": {"wides": 0}}]),
            )
        ),
        "$.innings[0].overs[1].deliveries[1]",
    ),
    # past int64: reported at the delivery, not at the innings as an overflow
    (
        "batter_runs_2_64.json",
        json_match(json_innings((0, [RUN, RUN, {"runs": {"batter": 2**64, "extras": 0}}]))),
        "$.innings[0].overs[0].deliveries[2]",
    ),
    (
        "legal_flag_against_kind.csv",
        CSV_HEADER + "\nm1,t20i,1,0,1,true,1,0,none,false\nm1,t20i,1,0,2,true,0,1,wide,false\n",
        "line 3",
    ),
    (
        "negative_over.csv",
        CSV_HEADER + "\nm1,t20i,1,0,1,true,1,0,none,false\nm1,t20i,1,-1,2,true,0,0,none,false\n",
        "line 3",
    ),
    (
        "ball_in_over_zero.csv",
        CSV_HEADER + "\nm1,t20i,1,0,1,true,1,0,none,false\nm1,t20i,1,0,0,true,0,0,none,false\n",
        "line 3",
    ),
    # an unknown format cell is a malformed field like any other
    (
        "unknown_format.csv",
        CSV_HEADER + "\nm1,t20i,1,0,1,true,1,0,none,false\nm2,test,1,0,1,true,1,0,none,false\n",
        "line 3",
    ),
    # a match id names one match, so all its rows carry one format
    (
        "conflicting_formats.csv",
        CSV_HEADER + "\nm1,t20i,1,0,1,true,1,0,none,false\nm1,ipl,1,0,2,true,1,0,none,false\n",
        "conflicting formats for match 'm1' (at line 3)",
    ),
]


@pytest.mark.parametrize("name, text, position", BAD_FILES, ids=[f[0] for f in BAD_FILES])
def test_one_bad_file_is_one_diagnostic(tmp_path, name, text, position):
    for good in ("tiny_odi.json", "tiny_t20i.json"):
        (tmp_path / good).write_bytes(fixture_path(good).read_bytes())
    (tmp_path / name).write_text(text)
    corpus = load_corpus(tmp_path)
    assert [m.match_id for m in corpus] == ["tiny_odi", "tiny_t20i"]
    assert [d.source for d in corpus.diagnostics] == [name]
    assert position in corpus.diagnostics[0].message


# ---------------------------------------------------------------------------
# the record cache of load_corpus


def parses(monkeypatch) -> list[str]:
    """The names of the files ``load_corpus`` parses, in the order it parses them."""
    parsed = []
    read = ball_log._read

    def counted(raw, cricsheet, match_id):
        parsed.append(f"{match_id}.{'json' if cricsheet else 'csv'}")
        return read(raw, cricsheet, match_id)

    monkeypatch.setattr(ball_log, "_read", counted)
    return parsed


def loaded(directory):
    """The matches and (source, message) diagnostics of ``load_corpus``, any warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        corpus = load_corpus(directory)
    return corpus.matches, [(d.source, d.message) for d in corpus.diagnostics]


def cached_names(directory) -> list[str]:
    return sorted(record_cache.RecordCache(directory).kept)


def json_names(directory) -> list[str]:
    return sorted(p.name for p in directory.glob("*.json"))


def copy_fixtures(directory):
    for name in ("tiny_odi.json", "tiny_t20i.json"):
        (directory / name).write_bytes(fixture_path(name).read_bytes())


def test_a_warm_load_gives_what_the_cold_one_gave(tmp_path, monkeypatch):
    for name, text, _ in BAD_FILES:
        (tmp_path / name).write_text(text)
    copy_fixtures(tmp_path)
    doc = json.loads(fixture_path("tiny_odi.json").read_text())
    doc["innings"].append(doc["innings"][0])
    (tmp_path / "super_over.json").write_text(json.dumps(doc))
    # balls.csv sorts first, so tiny_odi.json holds a duplicate match id
    export_csv([parse_match(fixture_path("tiny_odi.json").read_bytes(), "tiny_odi")],
               tmp_path / "balls.csv")
    files = sorted(p.name for p in tmp_path.iterdir())
    parsed = parses(monkeypatch)
    cold = loaded(tmp_path)
    assert sorted(parsed) == files
    assert cached_names(tmp_path) == json_names(tmp_path)
    parsed.clear()
    warm = loaded(tmp_path)
    assert warm == cold
    assert sorted(parsed) == sorted(p.name for p in tmp_path.glob("*.csv"))  # logs are not cached
    diagnostics = dict(cold[1])
    assert diagnostics["super_over.json"] == "dropped 6 deliveries in 1 innings beyond innings 2"
    assert diagnostics["tiny_odi.json"].startswith("duplicate match id 'tiny_odi'")
    assert len(cold[1]) == len(BAD_FILES) + 2
    for inn in (inn for match in warm[0] for inn in match.innings):
        for name in ball_log._COLUMNS:
            column = getattr(inn, name)
            assert column.dtype == ball_log._COLUMN_DTYPES[name] and not column.flags.writeable


def test_a_same_length_edit_is_parsed_again(tmp_path, monkeypatch):
    copy_fixtures(tmp_path)
    load_corpus(tmp_path)
    path = tmp_path / "tiny_t20i.json"
    text = path.read_text()
    edited = text.replace('"batter": 1,', '"batter": 6,', 1)
    assert len(edited) == len(text) and edited != text
    path.write_text(edited)
    parsed = parses(monkeypatch)
    matches, _ = loaded(tmp_path)
    assert parsed == ["tiny_t20i.json"]
    assert matches[1] == parse_match(edited, "tiny_t20i") != parse_match(text, "tiny_t20i")
    parsed.clear()
    assert loaded(tmp_path)[0] == matches and parsed == []


def test_a_deleted_file_drops_out_of_the_cache(tmp_path, monkeypatch):
    copy_fixtures(tmp_path)
    load_corpus(tmp_path)
    (tmp_path / "tiny_odi.json").unlink()
    parsed = parses(monkeypatch)
    assert [m.match_id for m in loaded(tmp_path)[0]] == ["tiny_t20i"]
    assert parsed == [] and cached_names(tmp_path) == ["tiny_t20i.json"]


def with_header(raw: bytes, edit) -> bytes:
    """A cache with its header's bytes edited by ``edit``, under a length and a CRC-32 that
    match."""
    end = len(raw) - 12 - int.from_bytes(raw[-12:-4], "little")
    header = edit(raw[end:-12])
    body = raw[:end] + header + len(header).to_bytes(8, "little")
    return body + zlib.crc32(body).to_bytes(4, "little")


def rows_past_the_columns(header: bytes) -> bytes:
    """The header with the first file's first innings holding more rows than the cache."""
    doc = json.loads(header)
    innings = next(iter(doc["files"].values()))[2][6]  # [length, crc, entry], its innings
    innings[0][2] = 1 << 40  # [index, team, rows, offset]
    return json.dumps(doc).encode()


def spoil(raw: bytes, how: str) -> bytes:
    if how == "header_not_json":
        return with_header(raw, lambda header: header[:-1])
    if how == "rows_past_the_columns":
        return with_header(raw, rows_past_the_columns)
    if how == "flipped_bit":
        return raw[:len(raw) // 2] + bytes([raw[len(raw) // 2] ^ 1]) + raw[len(raw) // 2 + 1:]
    if how == "truncated":
        return raw[:len(raw) // 2]
    if how == "foreign":
        return b"not a record cache"
    # the first innings' first over, after the 8 magic bytes, set to -1 under a CRC-32
    # that matches: the record rebuilt from it breaks a delivery rule, so it is parsed
    body = raw[:8] + b"\xff" * 8 + raw[16:-4]
    return body + zlib.crc32(body).to_bytes(4, "little")


@pytest.mark.parametrize("how", ["flipped_bit", "truncated", "foreign", "header_not_json",
                                 "broken_rule", "rows_past_the_columns", "stale_key"])
def test_a_damaged_or_stale_cache_is_ignored_and_replaced(tmp_path, monkeypatch, how):
    copy_fixtures(tmp_path)
    cold = loaded(tmp_path)
    cache = tmp_path / record_cache.CACHE_NAME
    if how == "stale_key":  # as after an edit to the reader or a new Python
        key = record_cache._cache_key()
        monkeypatch.setattr(record_cache, "_cache_key", lambda: key + 1)
    else:
        cache.write_bytes(spoil(cache.read_bytes(), how))
    parsed = parses(monkeypatch)
    assert loaded(tmp_path) == cold
    # a broken rule or an innings past the columns sends only its file to the parser
    one = how in ("broken_rule", "rows_past_the_columns")
    assert parsed == json_names(tmp_path)[:1 if one else None]
    parsed.clear()
    assert loaded(tmp_path) == cold and parsed == []


def test_a_directory_named_as_a_match_file_is_one_diagnostic(tmp_path, monkeypatch):
    copy_fixtures(tmp_path)
    (tmp_path / "broken.json").mkdir()
    parsed = parses(monkeypatch)
    # cold, warm, then the same directory spelled relative to its parent
    for directory in (tmp_path, tmp_path, Path(tmp_path.name)):
        monkeypatch.chdir(tmp_path.parent)
        matches, diagnostics = loaded(directory)
        assert [m.match_id for m in matches] == ["tiny_odi", "tiny_t20i"]
        assert diagnostics == [("broken.json", "Is a directory")]
    assert parsed == ["tiny_odi.json", "tiny_t20i.json"]


def test_a_directory_in_the_caches_place_loads_and_writes_nothing(tmp_path, monkeypatch):
    copy_fixtures(tmp_path)
    (tmp_path / record_cache.CACHE_NAME).mkdir()
    before = sorted(tmp_path.rglob("*"))
    parsed = parses(monkeypatch)
    assert loaded(tmp_path) == loaded(tmp_path)
    assert parsed == json_names(tmp_path) * 2
    assert sorted(tmp_path.rglob("*")) == before


def test_a_directory_of_ball_logs_gets_no_cache(tmp_path):
    export_csv(synthetic_corpus(MatchFormat.T20I, 2, seed=1), tmp_path / "balls.csv")
    assert loaded(tmp_path) == loaded(tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["balls.csv"]


def one_innings_both_ways(rows):
    """The innings of these ``legal``/``illegal`` rows as a Cricsheet JSON match and
    as a CSV ball log: a run of rows under one over number is one JSON over, so each
    row's ball_in_over must count from 1 within its run."""
    overs = []
    for over, ball, batter, extras, code, wicket in rows:
        if not overs or overs[-1][0] != over:
            overs.append((over, []))
        assert ball == len(overs[-1][1]) + 1
        overs[-1][1].append(cricsheet._delivery_doc(batter, extras, code, wicket))
    kinds = list(ExtrasKind)  # by code
    lines = [
        f"m1,t20i,1,{o},{b},{str(kinds[k] not in (ExtrasKind.WIDE, ExtrasKind.NO_BALL)).lower()},"
        f"{r},{x},{kinds[k].value},{str(w).lower()}\n"
        for o, b, r, x, k, w in rows
    ]
    return json_match(json_innings(*overs)), CSV_HEADER + "\n" + "".join(lines)


# each rule both formats can break, and where each reader names the breach: the
# JSON path of the delivery or innings, and the CSV line or innings
SHARED_RULES = [
    pytest.param(
        [legal(0, 1, 1), legal(-1, 1, 1)], "over must be >= 0 and ball_in_over >= 1",
        "$.innings[0].overs[1].deliveries[0]", "line 3", id="over_below_0",
    ),
    pytest.param(
        [legal(0, 1, 1), legal(2**63, 1, 1)], "over or ball_in_over past int64",
        "$.innings[0].overs[1].deliveries[0]", "line 3", id="over_past_int64",
    ),
    pytest.param(
        [legal(0, 1, 1), legal(0, 2, -1)], "negative runs",
        "$.innings[0].overs[0].deliveries[1]", "line 3", id="negative_runs",
    ),
    pytest.param(
        [legal(0, 1, 1), legal(0, 2, 101)], "more than 100 runs from one delivery",
        "$.innings[0].overs[0].deliveries[1]", "line 3", id="over_100_runs",
    ),
    pytest.param(
        [legal(0, 1, 1), legal(0, 2, 1), illegal(0, 3, extras=0)],
        "wide/no-ball must credit at least one extra run",
        "$.innings[0].overs[0].deliveries[2]", "line 4", id="wide_without_extra_run",
    ),
    pytest.param(
        [legal(1, 1, 1), legal(0, 1, 1)], "deliveries not ordered by (over, ball_in_over)",
        "$.innings[0]", None, id="out_of_order",
    ),
    pytest.param(
        [legal(i // 6, i % 6 + 1, wicket=True) for i in range(11)],
        "more than 10 wickets in one innings", "$.innings[0]", None, id="eleven_wickets",
    ),
]


@pytest.mark.parametrize("rows, rule, json_at, csv_at", SHARED_RULES)
def test_both_readers_name_the_same_rule(tmp_path, rows, rule, json_at, csv_at):
    as_json, as_csv = one_innings_both_ways(rows)
    (tmp_path / "broken.json").write_text(as_json)
    (tmp_path / "broken.csv").write_text(as_csv)
    corpus = load_corpus(tmp_path)
    assert len(corpus) == 0
    messages = {d.source: d.message for d in corpus.diagnostics}
    assert len(corpus.diagnostics) == len(messages) == 2
    assert messages["broken.json"] == f"bad match document: {rule} (at {json_at})"
    # a delivery rule names its line; an innings rule, which no one line breaks, its innings
    assert messages["broken.csv"] == (
        f"bad delivery row: {rule} (at {csv_at})" if csv_at
        else f"bad innings 1 of match 'm1': {rule}"
    )


def retired(*kinds):
    return {"runs": {"batter": 0, "extras": 0}, "wickets": [{"kind": k} for k in kinds]}


def test_retired_batters_are_not_dismissals():
    ten_and_hurt = json_innings((0, [WICKET] * 6), (1, [WICKET] * 4 + [retired("retired hurt")]))
    rec = parse_match(json_match(ten_and_hurt))
    assert sum(d.wicket for d in rec.innings[0].deliveries) == 10

    kinds = [
        ("retired hurt",),
        ("retired not out",),
        ("retired out",),
        ("retired hurt", "run out"),
    ]
    rec = parse_match(json_match(json_innings((0, [retired(*k) for k in kinds]))))
    assert [d.wicket for d in rec.innings[0].deliveries] == [False, False, True, True]


def with_info(name, **fields):
    doc = json.loads(fixture_path(name).read_text())
    doc["info"].update(fields)
    return json.dumps(doc)


# Python 3.11+ date.fromisoformat also reads the basic and week forms
@pytest.mark.parametrize("day", ["2019-01-05", "20190105", "2019-W01-6", "2019W016"])
def test_match_date_is_exactly_year_month_day(tmp_path, day):
    (tmp_path / "match.json").write_text(with_info("tiny_odi.json", dates=[day]))
    corpus = load_corpus(tmp_path)
    if day == "2019-01-05":
        assert [m.date for m in corpus] == [date(2019, 1, 5)] and corpus.diagnostics == ()
    else:
        assert len(corpus) == 0
        [diag] = corpus.diagnostics
        assert f"Invalid isoformat string: {day!r} (at $.info.dates)" in diag.message


@pytest.mark.parametrize(
    "text, expected",
    [
        pytest.param(
            with_info("tiny_t20i.json", team_type="club", event={"name": "Big Bash League"}),
            "club T20",
            id="club_bbl",
        ),
        pytest.param(with_info("tiny_ipl.json", team_type="club"), MatchFormat.IPL, id="club_ipl"),
        pytest.param(with_info("tiny_odi.json", gender="female"), "women's", id="womens_odi"),
        pytest.param(fixture_path("tiny_t20i.json").read_text(), MatchFormat.T20I, id="tiny_t20i"),
    ],
)
def test_only_mens_internationals_and_the_ipl_load(tmp_path, text, expected):
    (tmp_path / "match.json").write_text(text)
    corpus = load_corpus(tmp_path)
    if isinstance(expected, MatchFormat):
        assert [m.format for m in corpus] == [expected]
        assert corpus.diagnostics == ()
    else:
        assert len(corpus) == 0
        assert [d.source for d in corpus.diagnostics] == ["match.json"]
        assert expected in corpus.diagnostics[0].message


# ---------------------------------------------------------------------------
# record invariants


class TestRecordInvariants:
    def test_wide_must_carry_extras(self):
        with pytest.raises(ValueError, match="extra"):
            innings_of(illegal(0, 1, extras=0))

    def test_legal_flag_must_match_kind(self):
        # only the CSV ball log spells legality out; the columns derive it from the kind
        with pytest.raises(ParseError, match="legal"):
            parse_match(CSV_HEADER + "\nm1,odi,1,0,1,true,0,1,wide,false\n")
        with pytest.raises(ParseError, match="legal"):
            parse_match(CSV_HEADER + "\nm1,odi,1,0,1,false,1,0,none,false\n")

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize("kind", list(ExtrasKind))
    def test_legal_flag_is_read_exactly_when_it_is_the_kinds(self, kind, flag):
        log = CSV_HEADER + f"\nm1,odi,1,0,1,{str(flag).lower()},0,1,{kind.value},false\n"
        if flag == innings_of((0, 1, 0, 1, kind.code, False)).legal[0]:
            [inn] = parse_match(log).innings
            assert (inn.kind.tolist(), inn.legal.tolist()) == ([kind.code], [flag])
        else:
            message = "bad delivery row: legal flag inconsistent with extras kind (at line 2)"
            with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
                parse_match(log)

    def test_deliveries_must_be_ordered(self):
        with pytest.raises(ValueError, match="order"):
            innings_of(legal(1, 1), legal(0, 1))

    def test_at_most_ten_wickets(self):
        events = tuple(legal(0, b, wicket=True) for b in range(1, 12))
        with pytest.raises(ValueError, match="10 wickets"):
            innings_of(*events)

    def test_first_failing_delivery_is_reported(self):
        negative = {"runs": {"batter": -1, "extras": 0}}
        bare_wide = {"runs": {"batter": 0, "extras": 0}, "extras": {"wides": 0}}
        # the first bad row opens an over that follows an empty one, and is not the last over
        overs = (0, [RUN, RUN]), (1, []), (2, [negative, RUN, bare_wide]), (3, [RUN])
        with pytest.raises(ParseError, match="negative runs") as caught:
            parse_match(json_match(json_innings(*overs)))
        assert caught.value.position == "$.innings[0].overs[2].deliveries[0]"

    @pytest.mark.parametrize("kind", list(ExtrasKind))
    def test_legal_follows_every_kind_code(self, kind):
        inn = innings_of(legal(0, 1), (0, 2, 0, 1, kind.code, False))
        illegal_kinds = (ExtrasKind.WIDE, ExtrasKind.NO_BALL)
        assert inn.legal.tolist() == [True, kind not in illegal_kinds]
        assert inn.legal.dtype == bool
        assert [d.extras_kind for d in inn.deliveries] == [ExtrasKind.NONE, kind]

    @pytest.mark.parametrize("code", [-1, len(ExtrasKind), 2**40, -(2**63)])
    def test_out_of_range_kind_code_is_reported_at_its_row(self, code):
        with pytest.raises(ValueError) as caught:
            innings_of(legal(0, 1), (0, 2, 0, 1, code, False))
        assert str(caught.value) == "unknown extras kind code"
        assert caught.value.row == 1

    def test_columns_are_read_only_and_compared_by_value(self):
        inn = innings_of(legal(0, 1, 1), illegal(0, 2))
        assert inn.legal.tolist() == [True, False]
        assert inn == innings_of(legal(0, 1, 1), illegal(0, 2))
        assert inn != innings_of(legal(0, 1, 2), illegal(0, 2))
        with pytest.raises(ValueError):
            inn.batter_runs[0] = 4

    def test_columns_are_copies_of_the_callers_arrays(self):
        columns = [np.array(c) for c in zip(legal(0, 1, 1), illegal(0, 2))]
        inn = InningsRecord(1, "X", *columns)
        columns[2][0] = 4
        assert all(c.flags.writeable for c in columns)
        assert inn.batter_runs.tolist() == [1, 0]
        assert (inn.over.dtype, inn.wicket.dtype) == (np.int64, bool)

    def test_columns_of_unequal_length_rejected(self):
        columns = [np.array(c) for c in zip(legal(0, 1), legal(0, 2))]
        columns[3] = columns[3][:1]
        with pytest.raises(ValueError, match="columns differ in length"):
            InningsRecord(1, "X", *columns)

    @pytest.mark.parametrize("shape", [(), (1, 3), (2, 2)])
    def test_columns_must_be_1d(self, shape):
        # 0-D columns were refused as "over must be >= 0", (1, 3) ones raised
        # IndexError, and (2, 2) ones a numpy broadcast error
        columns = [np.full(shape, value) for value in (0, 1, 0, 0, 0, False)]
        with pytest.raises(ValueError, match="^columns must be 1-D$"):
            InningsRecord(1, "X", *columns)


# every record that holds arrays, built with one of its arrays holding ``value``
ARRAY_RECORDS = {
    "InningsRecord": lambda value: innings_of(legal(0, 1, value), illegal(0, 2)),
    "InningsTrajectory": lambda value: InningsTrajectory(
        np.array([value, 3]), np.array([0, 1]), completed_balls=2
    ),
    "WicketCurve": lambda value: WicketCurve(
        0, np.array([1, 2]), np.array([value, 3.0]), np.array([4, 4]), MatchFormat.ODI, 1
    ),
    "Histogram": lambda value: Histogram(10.0, 0.0, np.array([value, 2.0])),
    "ResourceTable": lambda value: ResourceTable(np.full((2, 11), float(value))),
}


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_array_records_compare_by_value_and_are_unhashable(name):
    build = ARRAY_RECORDS[name]
    record = build(1)
    assert record == build(1) and not record != build(1)
    assert record != build(2) and not record == build(2)
    others = [build_other(1) for other, build_other in ARRAY_RECORDS.items() if other != name]
    for other in others + [object(), None, 1]:
        assert record != other and not record == other
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)


# ---------------------------------------------------------------------------
# trajectories


class TestTrajectory:
    def test_ball_axis_counts_legal_only(self):
        inn = innings_of(legal(0, 1, 1), illegal(0, 2), legal(0, 3, 2), legal(0, 4, 0))
        traj = trajectory(inn, MatchFormat.ODI)
        assert traj.ball.tolist() == [1, 2, 3]
        assert traj.completed_balls == 3

    def test_wide_credits_next_legal_ball(self):
        inn = innings_of(illegal(0, 1, extras=1), legal(0, 2, 2))
        traj = trajectory(inn, MatchFormat.ODI)
        assert traj.points == [(1, 3, 0)]

    def test_trailing_illegal_credits_previous_ball(self):
        inn = innings_of(legal(0, 1, 1), illegal(0, 2, extras=1))
        traj = trajectory(inn, MatchFormat.ODI)
        assert traj.points == [(1, 2, 0)]
        assert traj.total == 2

    def test_wicket_on_wide_follows_run_placement(self):
        inn = innings_of(illegal(0, 1, wicket=True), legal(0, 2, 1), legal(0, 3, 1))
        traj = trajectory(inn, MatchFormat.ODI)
        assert traj.wickets.tolist() == [1, 1]

    def test_all_illegal_innings_degenerates_to_one_point(self):
        inn = innings_of(illegal(0, 1), illegal(0, 2, extras=2))
        traj = trajectory(inn, MatchFormat.ODI)
        assert traj.points == [(1, 3, 0)]
        assert traj.completed_balls == 0
        assert traj.total == 3

    def test_monotone_and_conserving_on_random_innings(self, small_odi):
        for match in small_odi:
            for inn in match.innings:
                traj = trajectory(inn, match.format)
                hand_total = sum(d.batter_runs + d.extras_runs for d in inn.deliveries)
                assert traj.total == hand_total
                assert traj.runs[-1] == hand_total
                assert np.all(np.diff(traj.runs) >= 0)
                assert np.all(np.diff(traj.wickets) >= 0)
                assert traj.completed_balls <= match.format.scheduled_balls

    def test_arrays_are_read_only(self):
        inn = innings_of(legal(0, 1, 1))
        traj = trajectory(inn, MatchFormat.ODI)
        with pytest.raises(ValueError):
            traj.runs[0] = 99

    def test_arrays_are_copies_of_the_callers_arrays(self):
        # the callers' own arrays were frozen in place
        runs, wickets = np.array([1, 2], dtype=np.int32), np.zeros(2)
        traj = ball_log.InningsTrajectory(runs, wickets, completed_balls=2)
        runs[0] = 99
        assert all(a.flags.writeable for a in (runs, wickets))
        assert traj.runs.tolist() == [1, 2]
        assert (traj.runs.dtype, traj.wickets.dtype) == (np.int32, float)  # kept as given
        ball = traj.ball
        ball[0] = 5  # a derived array is built on each read
        assert traj.ball.tolist() == [1, 2]

    def test_arrays_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="columns differ in length"):
            ball_log.InningsTrajectory(np.array([1]), np.zeros(2), 1)

    def test_arrays_must_be_1d(self):
        with pytest.raises(ValueError, match="^columns must be 1-D$"):
            ball_log.InningsTrajectory(np.ones((2, 2), int), np.zeros((2, 2), int), 4)

    def test_needs_a_point(self):
        # with no point there is no total
        with pytest.raises(ValueError, match="^a trajectory needs at least one point$"):
            ball_log.InningsTrajectory(np.zeros(0, int), np.zeros(0, int), 0)

    @pytest.mark.parametrize(
        "runs, completed", [([3, 1], 99), ([3, 1], 0), ([3, 1], 1), ([3], 2), ([3], -1)]
    )
    def test_completed_balls_must_count_the_points(self, runs, completed):
        # 99 completed balls over two points built, as did a total contradicting the runs
        with pytest.raises(ValueError, match="^completed_balls must equal the number of points"):
            ball_log.InningsTrajectory(np.array(runs), np.zeros(len(runs), int), completed)

    @pytest.mark.parametrize("runs, completed", [([3, 5], 2), ([3], 1), ([3], 0)])
    def test_completed_balls_count_the_points_or_are_0_for_one(self, runs, completed):
        traj = ball_log.InningsTrajectory(np.array(runs), np.zeros(len(runs), int), completed)
        assert (traj.completed_balls, traj.total) == (completed, runs[-1])

    def test_more_legal_balls_than_scheduled_rejected(self):
        inn = innings_of(*(legal(i // 6, i % 6 + 1) for i in range(121)))
        with pytest.raises(ValueError, match="schedule"):
            trajectory(inn, MatchFormat.T20I)


def test_qualifying_trajectories_keep_full_and_all_out_innings():
    def match(match_id, fmt, index, events):
        innings = (innings_of(*events, index=index),)
        return MatchRecord(match_id, fmt, date(2019, 1, 1), ("A", "B"), "V", innings)

    def balls(n, wickets=()):
        return [legal(i // 6, i % 6 + 1, 1, wicket=i in wickets) for i in range(n)]

    corpus = [
        match("full", MatchFormat.T20I, 1, balls(120)),
        match("short", MatchFormat.T20I, 1, balls(30)),
        match("all_out", MatchFormat.T20I, 1, balls(12, wickets=range(2, 12))),
        match("abandoned", MatchFormat.T20I, 1, []),
        match("over_length", MatchFormat.T20I, 1, balls(126)),
        match("second", MatchFormat.T20I, 2, balls(120)),
        match("ipl", MatchFormat.IPL, 1, balls(120)),
    ]
    readable = list(innings_trajectories(corpus, MatchFormat.T20I, 1))
    assert [(t.completed_balls, t.total) for t in readable] == [(120, 120), (30, 30), (12, 12)]
    kept = list(qualifying_trajectories(corpus, MatchFormat.T20I, 1))
    assert [(t.completed_balls, t.total) for t in kept] == [(120, 120), (12, 12)]


def test_synthetic_corpus_is_deterministic():
    a = synthetic_corpus(MatchFormat.IPL, 3, seed=11)
    b = synthetic_corpus(MatchFormat.IPL, 3, seed=11)
    assert a == b
    c = synthetic_corpus(MatchFormat.IPL, 3, seed=12)
    assert a != c


def loop_innings(rng, format, index):
    """Rows of the per-delivery loop the synthetic generator replaced: the reference."""
    scheduled = format.scheduled_balls
    probs = fixtures._run_probs(fixtures._MEAN_PER_BALL[(format, index)])
    draws = scheduled + 60
    kind_draw = rng.random(draws)
    wicket_draw = rng.random(draws)
    run_draw = rng.choice(fixtures._RUN_VALUES, size=draws, p=probs)
    bye_draw = rng.integers(1, 3, size=draws)
    rows, wickets, legal_balls, over, ball_in_over, legal_in_over = [], 0, 0, 0, 0, 0
    for i in range(draws):
        if legal_balls >= scheduled or wickets >= 10:
            break
        ball_in_over += 1
        kind = kind_draw[i]
        if kind < fixtures._WIDE_RATE + fixtures._NO_BALL_RATE:
            wide = kind < fixtures._WIDE_RATE
            rows.append(illegal(over, ball_in_over, ExtrasKind.WIDE if wide else ExtrasKind.NO_BALL))
            continue
        if wicket_draw[i] < fixtures._WICKET_HAZARD[format]:
            rows.append(legal(over, ball_in_over, wicket=True))
            wickets += 1
        elif kind > 1.0 - fixtures._BYE_RATE:
            side = ExtrasKind.BYE if kind > 1.0 - fixtures._BYE_RATE / 2 else ExtrasKind.LEG_BYE
            rows.append(legal(over, ball_in_over, 0, int(bye_draw[i]), side))
        else:
            rows.append(legal(over, ball_in_over, int(run_draw[i])))
        legal_balls += 1
        legal_in_over += 1
        if legal_in_over == 6:
            over, legal_in_over, ball_in_over = over + 1, 0, 0
    return rows


@pytest.mark.parametrize("format", list(MatchFormat))
def test_synthetic_innings_match_the_per_delivery_loop(format):
    for seed in (1, 7919, fixtures.DEFAULT_SEED):
        stream = [seed, fixtures._FORMAT_STREAM[format]]
        columnar, looped = np.random.default_rng(stream), np.random.default_rng(stream)
        for k in range(40):
            index = 1 + k % 2
            got = fixtures._synthetic_innings(columnar, format, index, "X")
            assert got == innings_of(*loop_innings(looped, format, index), index=index)


def reference_trajectory(innings, format):
    """The credit-index trajectory the cumulative sum replaced: the reference.

    Each illegal delivery credits the next legal ball, or the last one when
    no legal ball follows, and float ``bincount`` sums each ball's credits."""
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
        return ball_log.InningsTrajectory(
            runs=np.array([int(runs.sum())], dtype=np.int64),
            wickets=np.array([int(wkts.sum())], dtype=np.int64),
            completed_balls=0,
        )
    own_index = np.cumsum(legal)
    credit = np.where(legal, own_index, np.minimum(own_index + 1, n_legal))
    per_ball_runs = np.bincount(credit, weights=runs, minlength=n_legal + 1)[1:]
    per_ball_wkts = np.bincount(credit, weights=wkts, minlength=n_legal + 1)[1:]
    cum_runs = np.round(np.cumsum(per_ball_runs)).astype(np.int64)
    cum_wkts = np.round(np.cumsum(per_ball_wkts)).astype(np.int64)
    return ball_log.InningsTrajectory(runs=cum_runs, wickets=cum_wkts, completed_balls=n_legal)


def trajectory_outcome(build, innings, format):
    """Every field of the trajectory with its type or dtype, or the error raised."""
    try:
        traj = build(innings, format)
    except ValueError as e:
        return "error", str(e)
    arrays = [(a.dtype, a.tolist()) for a in (traj.ball, traj.runs, traj.wickets)]
    return arrays, [(type(v), v) for v in (traj.total, traj.completed_balls)]


def test_demo_trajectories_match_the_credit_index_reference(demo):
    innings = [(inn, match.format) for match in demo for inn in match.innings]
    assert len(innings) > 100
    for inn, fmt in innings:
        assert trajectory_outcome(trajectory, inn, fmt) == trajectory_outcome(
            reference_trajectory, inn, fmt
        )


def random_innings(rng):
    """Up to 160 deliveries: mixed, all illegal, or with an illegal run
    leading or trailing, and 0 to 10 wickets on any delivery, wides included."""
    n = int(rng.integers(1, 161))
    shape = int(rng.integers(4))
    illegal = rng.random(n) < (0.15, 1.0, 0.15, 0.15)[shape]
    if shape == 2:
        illegal[: rng.integers(1, n + 1)] = True
    elif shape == 3:
        illegal[n - rng.integers(1, n + 1):] = True
    codes = [kind.code for kind in ExtrasKind]
    kind = np.where(
        illegal,
        rng.choice(codes[1:3], n),  # wide, no-ball
        rng.choice([codes[0]] + codes[3:], n),
    )
    extras = rng.integers(0, 5, n) + illegal
    wicket = np.zeros(n, dtype=bool)
    wicket[rng.choice(n, int(rng.integers(0, min(n, 10) + 1)), replace=False)] = True
    return InningsRecord(1, "X", np.zeros(n), np.arange(1, n + 1), rng.integers(0, 7, n),
                         extras, kind, wicket)


def test_random_trajectories_match_the_credit_index_reference():
    rng = np.random.default_rng(20181)
    seen = {"all illegal": 0, "leading illegal": 0, "trailing illegal": 0,
            "wicket on a wide": 0, "ten wickets": 0, "no wicket": 0, "over length": 0}
    for k in range(2400):
        inn = random_innings(rng)
        fmt = (MatchFormat.T20I, MatchFormat.ODI)[k % 2]  # a T20I may run over length
        got = trajectory_outcome(trajectory, inn, fmt)
        assert got == trajectory_outcome(reference_trajectory, inn, fmt)
        legal, wickets = inn.legal, int(inn.wicket.sum())
        seen["all illegal"] += not legal.any()
        seen["leading illegal"] += not legal[0]
        seen["trailing illegal"] += bool(legal.any() and not legal[-1])
        seen["wicket on a wide"] += bool(np.any(inn.wicket & (inn.kind == ExtrasKind.WIDE.code)))
        seen["ten wickets"] += wickets == 10
        seen["no wicket"] += wickets == 0
        seen["over length"] += got[0] == "error"
    assert min(seen.values()) >= 20, seen


def first_broken_rule(rows):
    """The per-delivery checks, then the innings checks, in the order the
    record held them when it was one object per delivery: the reference."""
    for row, (over, ball, batter, extras, kind, _) in enumerate(rows):
        if over < 0 or ball < 1:
            return row, "over must be >= 0 and ball_in_over >= 1"
        if batter < 0 or extras < 0:
            return row, "negative runs"
        if batter > 100 or extras > 100:
            return row, "more than 100 runs from one delivery"
        if kind in (ExtrasKind.WIDE.code, ExtrasKind.NO_BALL.code) and extras < 1:
            return row, "wide/no-ball must credit at least one extra run"
    keys = [row[:2] for row in rows]
    if any(b < a for a, b in zip(keys, keys[1:])):
        return None, "deliveries not ordered by (over, ball_in_over)"
    if sum(row[5] for row in rows) > 10:
        return None, "more than 10 wickets in one innings"
    return None, None


def test_column_rules_match_the_per_delivery_checks():
    rng = np.random.default_rng(5)
    outcomes = set()
    for _ in range(3000):
        n = int(rng.integers(0, 14))
        rows = [
            (
                int(rng.choice([-1, 0, 1, 2])) if rng.random() < 0.1 else int(r // 6),
                int(rng.choice([0, 1, 7])) if rng.random() < 0.1 else int(r % 6 + 1),
                int(rng.choice([-1, 101, 4])) if rng.random() < 0.05 else int(rng.integers(0, 7)),
                int(rng.choice([-1, 101, 0])) if rng.random() < 0.05 else int(rng.integers(0, 3)),
                int(rng.integers(0, len(ExtrasKind))),
                bool(rng.random() < 0.8),
            )
            for r in range(n)
        ]
        row, message = first_broken_rule(rows)
        outcomes.add(message)
        if message is None:
            innings_of(*rows)
            continue
        with pytest.raises(ValueError) as caught:
            innings_of(*rows)
        assert str(caught.value) == message
        assert getattr(caught.value, "row", None) == row
    assert len(outcomes) == 7  # every rule broken at least once, and valid innings


# ---------------------------------------------------------------------------
# the arrays a record keeps


def read_only(values, dtype, owner_writable=False):
    """A read-only array of ``values`` that is a view of a larger owner, itself read-only
    unless ``owner_writable``."""
    owner = np.array([0, *values, 0], dtype=dtype)
    owner.setflags(write=owner_writable)
    view = owner[1:-1]
    view.setflags(write=False)
    return view


# each record that holds columns: its builder, and each column's values and dtype
COLUMN_RECORDS = {
    "innings": (
        lambda **c: InningsRecord(1, "X", **c),
        dict(over=([0, 0], np.int64), ball_in_over=([1, 2], np.int64),
             batter_runs=([1, 0], np.int64), extras_runs=([0, 1], np.int64),
             kind=([0, ExtrasKind.WIDE.code], np.int64), wicket=([False, True], bool)),
    ),
    "trajectory": (
        lambda **c: InningsTrajectory(**c, completed_balls=2),
        dict(runs=([1, 2], np.int32), wickets=([0, 1], np.int64)),
    ),
    "curve": (
        lambda **c: WicketCurve(0, **c, format=MatchFormat.ODI, innings_index=1),
        dict(balls=([1, 2], np.int64), means=([1.0, 2.0], float), support=([3, 3], np.int64)),
    ),
    "histogram": (lambda **c: Histogram(1.0, 0.0, **c), dict(counts=([1.0, 2.0], float))),
}


@pytest.mark.parametrize("name", COLUMN_RECORDS)
def test_records_keep_columns_nothing_can_write_and_copy_the_rest(name):
    build, columns = COLUMN_RECORDS[name]
    given = {c: read_only(values, dtype) for c, (values, dtype) in columns.items()}
    record = build(**given)
    assert all(getattr(record, c) is column for c, column in given.items())
    # a read-only view of a writable array is copied, so a write to its owner stays out
    given = {c: read_only(values, dtype, owner_writable=True)
             for c, (values, dtype) in columns.items()}
    record = build(**given)
    for c, column in given.items():
        kept = getattr(record, c)
        assert not np.shares_memory(kept, column) and not kept.flags.writeable
        column.base[1] = 7
        assert kept.tolist() == columns[c][0]


def test_a_read_only_column_of_another_dtype_is_copied():
    columns = [read_only(values, np.int32) for values in zip(legal(0, 1, 1), illegal(0, 2))]
    inn = InningsRecord(1, "X", *columns)
    assert inn.over.dtype == np.int64 and inn.wicket.dtype == bool
    assert not any(np.shares_memory(c, getattr(inn, name))
                   for c, name in zip(columns, ball_log._COLUMNS))


def test_a_trajectory_keeps_the_arrays_it_builds(monkeypatch):
    built = []

    def build(*args):
        built.append(args)
        return InningsTrajectory(*args)

    monkeypatch.setattr(ball_log, "InningsTrajectory", build)
    traj = trajectory(innings_of(legal(0, 1, 1), illegal(0, 2), legal(0, 2, 4)), MatchFormat.ODI)
    [(runs, wickets, _)] = built
    assert traj.runs is runs and traj.wickets is wickets
    assert traj.runs.tolist() == [1, 6]


def test_records_of_a_log_or_a_warm_cache_share_its_columns(tmp_path):
    matches = synthetic_corpus(MatchFormat.T20I, 3, seed=1)
    write_corpus(matches, tmp_path)
    (tmp_path / "log").mkdir()
    export_csv(matches, tmp_path / "log" / "balls.csv")
    load_corpus(tmp_path)  # fills the cache
    for corpus in (load_corpus(tmp_path / "log"), load_corpus(tmp_path)):
        innings = [inn for match in corpus for inn in match.innings]
        for name in ball_log._COLUMNS:
            owners = {id(getattr(inn, name).base) for inn in innings}
            assert len(innings) == 6 and len(owners) == 1 and None not in owners


# ---------------------------------------------------------------------------
# the CSV reader against the row-by-row reader it replaced


def reference_bool(token):
    t = token.strip().lower()
    if t in ("true", "1"):
        return True
    if t in ("false", "0"):
        return False
    raise ValueError(f"bad boolean {token!r}")


def reference_csv_matches(text):
    """The reader that converted every token of every row: the reference."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        raise ParseError("CSV header does not match the canonical ball log", position="line 1")
    illegal_codes = (ExtrasKind.WIDE.code, ExtrasKind.NO_BALL.code)
    by_match = {}
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 10:
            raise ParseError(f"expected 10 fields, found {len(parts)}", position=f"line {line_no}")
        mid, fmt_s, inn_s, over_s, bio_s, legal_s, br_s, er_s, kind_s, wicket_s = parts
        try:
            fmt = MatchFormat.from_string(fmt_s)
            innings_index = int(inn_s)
            row = (line_no, int(over_s), int(bio_s), int(br_s), int(er_s),
                   ExtrasKind(kind_s.strip()).code, reference_bool(wicket_s))
            if reference_bool(legal_s) == (row[5] in illegal_codes):
                raise ValueError("legal flag inconsistent with extras kind")
        except (UnsupportedFormatError, ValueError) as e:
            raise ParseError(f"bad delivery row: {e}", position=f"line {line_no}") from e
        match_fmt, by_index = by_match.setdefault(mid, (fmt, {}))
        if match_fmt is not fmt:
            raise ParseError(f"conflicting formats for match {mid!r}", position=f"line {line_no}")
        columns = by_index.setdefault(innings_index, [[] for _ in range(7)])
        for column, value in zip(columns, row):
            column.append(value)

    records = []
    for mid, (fmt, by_index) in by_match.items():
        innings = []
        for idx, (line_nos, *columns) in by_index.items():
            try:
                innings.append(InningsRecord(idx, "", *columns))
            except ValueError as e:
                if hasattr(e, "row"):
                    position = f"line {line_nos[e.row]}"
                    raise ParseError(f"bad delivery row: {e}", position=position) from e
                raise ParseError(f"bad innings {idx} of match {mid!r}: {e}") from e
        innings.sort(key=lambda inn: inn.innings_index)
        records.append(MatchRecord(mid, fmt, date(1900, 1, 1), ("", ""), "", innings))
    return records


def read_both(text):
    """What the CSV reader and the reference each make of ``text``: records or an error."""
    outcomes = []
    for reader in (csv_log.read_log, reference_csv_matches):
        try:
            outcomes.append(reader(text))
        except ParseError as e:
            outcomes.append(str(e))
    return outcomes


def exported_text(matches, tmp_path):
    path = tmp_path / "balls.csv"
    export_csv(matches, path)
    return path.read_text()


@pytest.fixture(params=[csv_log._BLOCK, 1], ids=lambda size: f"block{size}")
def block(request, monkeypatch):
    """Bytes of whole lines the CSV reader parses at once: its default, or one line, so
    that a block ends on every row: inside an innings, between innings, on the first bad
    row and on a conflicting one."""
    monkeypatch.setattr(csv_log, "_BLOCK", request.param)
    return request.param


CSV_CORPORA = [("demo", None)] + [(fmt.value, seed) for fmt in MatchFormat for seed in (1, 7, 7919)]


# the default block, or one of about 25 rows
@pytest.mark.parametrize(
    "block", [csv_log._BLOCK, 1000], indirect=True, ids=lambda size: f"block{size}"
)
@pytest.mark.parametrize("name, seed", CSV_CORPORA, ids=[f"{n}-{s}" for n, s in CSV_CORPORA])
def test_csv_reader_matches_the_row_by_row_reader(tmp_path, demo, block, name, seed):
    matches = demo if seed is None else synthetic_corpus(MatchFormat(name), 6, seed=seed)
    got, want = read_both(exported_text(matches, tmp_path))
    assert isinstance(got, list) and got == want
    assert [m.match_id for m in got] == [m.match_id for m in matches]


def test_a_log_of_several_blocks_matches_the_row_by_row_reader(tmp_path):
    text = exported_text(synthetic_corpus(MatchFormat.ODI, 10, seed=1), tmp_path)
    assert len(text) > csv_log._BLOCK
    got, want = read_both(text)
    assert isinstance(got, list) and got == want
    # the records keep the reader's own columns, read-only as every record's are
    columns = [getattr(inn, name) for m in got for inn in m.innings for name in ball_log._COLUMNS]
    assert not any(column.flags.writeable for column in columns)


def read_log_excess(raw):
    """The tracemalloc peak of ``read_log(raw)`` above what its records keep, less the
    bytes of ``raw``, which exist before tracing starts."""
    tracemalloc.start()
    try:
        records = csv_log.read_log(raw)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert records
    return peak - kept


# the exported log as it is written, and relaid so that blocks are laid out before they
# are parsed (a CR-only log has no "\n", so it is one block whatever its size)
@pytest.mark.parametrize("layout", ["lf", "crlf", "gaps"])
@pytest.mark.parametrize("n_matches", [10, 80])
def test_csv_reader_holds_one_block_beside_the_log_and_its_records(tmp_path, n_matches, layout):
    export_csv(synthetic_corpus(MatchFormat.ODI, n_matches, seed=1), tmp_path / "balls.csv")
    raw = (tmp_path / "balls.csv").read_bytes()
    raw = raw if layout == "lf" else RELAID_LOGS[layout](raw)
    # Fixed from the block size, whatever the log's: a block of B bytes of lines of 10
    # fields has at most B/2 separators and B/20 rows, so at once it holds at most its
    # separator positions (4B), its values of 10 fields (2.6B) and one field's
    # temporaries (about 3B); 16B leaves room for the per-run lists.
    assert read_log_excess(raw) < 16 * csv_log._BLOCK


def test_each_block_is_parsed_once(tmp_path, monkeypatch):
    monkeypatch.setattr(csv_log, "_BLOCK", 1 << 14)
    text = exported_text(synthetic_corpus(MatchFormat.ODI, 2, seed=1), tmp_path)
    # where the reader ends its blocks after the header: at whole lines, _BLOCK bytes on
    ends, at = [], len(CSV_HEADER) + 1
    while at < len(text):
        at = text.find("\n", at + csv_log._BLOCK - 1) + 1 or len(text)
        ends.append(at)
    assert len(ends) >= 3
    # a blank line in the last block, which is then laid out on its own
    at = text.index("\n", ends[-2]) + 1
    text = text[:at] + "\n" + text[at:]
    calls = []
    integers = csv_log._integers

    def counted(*args):
        calls.append(args[1].size)
        return integers(*args)

    monkeypatch.setattr(csv_log, "_integers", counted)
    got, want = read_both(text)
    assert isinstance(got, list) and got == want
    fields = sum(convert is int for _, convert in csv_log._READ_ORDER)
    assert len(calls) == fields * len(ends)  # no block is parsed again
    assert sum(calls) == fields * sum(inn.over.size for m in got for inn in m.innings)


# valid tokens in other spellings, and bad ones, for any cell
CELL_TOKENS = [
    "", " ", "x", "0", "1", "2", " 3", "+3", "1_0", "-1", "101", "9" * 20, "true", "false",
    " TRUE", "False ", "yes", "odi", " ODI ", "t20i", "ipl", "test", "none", "wide", "no_ball",
    " wide", "Wide", "bye", "leg_bye", "penalty", "m1", "m2",
]


def lay_out(lines, layout, rng):
    """``lines`` as a log of ``layout``: LF or CRLF ends, one to three blank or
    whitespace-only lines inserted after the header, or no final newline."""
    lines = list(lines)
    if layout in ("blank", "whitespace"):
        for at in sorted(rng.integers(1, len(lines) + 1, size=int(rng.integers(1, 4))))[::-1]:
            lines.insert(int(at), "" if layout == "blank" else " \t ")
    end = "\r\n" if layout == "crlf" else "\n"
    text = end.join(lines) + end
    return text[:-1] if layout == "no_final_newline" else text


LINE_LAYOUTS = ("lf", "crlf", "blank", "whitespace", "no_final_newline")


def test_csv_reader_agrees_with_the_reference_on_corrupted_logs(tmp_path, monkeypatch):
    matches = synthetic_corpus(MatchFormat.T20I, 2, seed=3)
    lines = exported_text(matches, tmp_path).splitlines()[:60]
    rng = np.random.default_rng(17)
    # the reader's block, drawn apart from the corruptions: from one line to twice the
    # log, so blocks end on varied rows, and about half the logs are read as one block
    blocks = np.random.default_rng(18).integers(1, 2 * len("\n".join(lines)), size=1500)
    # each log's line layout, drawn apart from both: in every layout but LF's, a block
    # is laid out on its own before it is parsed, and its errors still name log lines
    layouts = np.random.default_rng(19)
    errors, failed_layouts = set(), set()
    for size in blocks.tolist():
        monkeypatch.setattr(csv_log, "_BLOCK", size)
        rows = [line.split(",") for line in lines[1:]]
        # a few cells of one row, so a row often has several bad fields, then maybe another row
        for n_cells in (int(rng.integers(1, 4)), int(rng.integers(0, 2))):
            row = rows[int(rng.integers(len(rows)))]
            for field in rng.choice(10, size=n_cells, replace=False):
                row[field] = CELL_TOKENS[int(rng.integers(len(CELL_TOKENS)))]
        layout = LINE_LAYOUTS[int(layouts.integers(len(LINE_LAYOUTS)))]
        text = lay_out([lines[0]] + [",".join(row) for row in rows], layout, layouts)
        got, want = read_both(text)
        assert got == want, text
        if isinstance(got, str):
            errors.add(got.split(":")[0])
            failed_layouts.add(layout)
    assert len(errors) >= 3  # bad rows, bad innings and conflicting formats all occur
    assert failed_layouts == set(LINE_LAYOUTS)  # an error is positioned in every layout


GOOD_ROW = "m1,t20i,1,0,{ball},true,1,0,none,false"
# field index -> a bad token there, and the error it gives
BAD_CELLS = {
    1: ("test", "unknown match format: 'test'"),
    2: ("one", "invalid literal for int() with base 10: 'one'"),
    3: ("0.5", "invalid literal for int() with base 10: '0.5'"),
    4: ("", "invalid literal for int() with base 10: ''"),
    5: ("yes", "bad boolean 'yes'"),
    6: ("four", "invalid literal for int() with base 10: 'four'"),
    7: ("1e3", "invalid literal for int() with base 10: '1e3'"),
    8: ("wdie", "'wdie' is not a valid ExtrasKind"),
    9: ("out", "bad boolean 'out'"),
}


def bad_row(ball, field, token):
    cells = GOOD_ROW.format(ball=ball).split(",")
    cells[field] = token
    return ",".join(cells)


@pytest.mark.parametrize("field", BAD_CELLS)
def test_first_bad_csv_line_is_reported_whichever_field(tmp_path, block, field):
    token, error = BAD_CELLS[field]
    # every other cell of the bad rows holds a token valid on an earlier row,
    # and the bad token recurs on the next line
    rows = [GOOD_ROW.format(ball=b) for b in (1, 2)] + [bad_row(b, field, token) for b in (3, 4)]
    (tmp_path / "log.csv").write_text("\n".join([CSV_HEADER, *rows]) + "\n")
    corpus = load_corpus(tmp_path)
    assert len(corpus) == 0
    [diagnostic] = corpus.diagnostics
    assert diagnostic.message == f"bad delivery row: {error} (at line 4)"


def test_bad_token_after_the_same_token_in_another_field(tmp_path):
    # "1" is a good flag and a good run count, so a later "1" as a kind is still bad
    rows = [GOOD_ROW.format(ball=1), bad_row(2, 8, "1"), bad_row(3, 1, "1")]
    (tmp_path / "log.csv").write_text("\n".join([CSV_HEADER, *rows]) + "\n")
    [diagnostic] = load_corpus(tmp_path).diagnostics
    assert diagnostic.message == "bad delivery row: '1' is not a valid ExtrasKind (at line 3)"


def test_format_spellings_name_one_format(tmp_path, block):
    rows = ["m1,odi,1,0,1,true,1,0,none,false", "m1, ODI ,1,0,2,true,0,0,none,false",
            "m1,Odi,2,0,1,true,4,0,none,false"]
    text = "\n".join([CSV_HEADER, *rows]) + "\n"
    got, want = read_both(text)
    assert got == want
    [match] = got
    assert match.format is MatchFormat.ODI
    assert [inn.batter_runs.tolist() for inn in match.innings] == [[1, 0], [4]]
    # a spelling of another format on the same match is still a conflict
    conflict = text + "m1, T20I ,2,0,2,true,0,0,none,false\n"
    got, want = read_both(conflict)
    assert got == want == "conflicting formats for match 'm1' (at line 5)"


def record_builders(monkeypatch):
    """The set that collects the name of each function in which the CSV reader builds an innings."""
    builders = set()

    def build(*args):
        builders.add(sys._getframe(1).f_code.co_name)
        return InningsRecord(*args)

    monkeypatch.setattr(csv_log, "InningsRecord", build)
    return builders


@pytest.mark.parametrize("name, seed", CSV_CORPORA, ids=[f"{n}-{s}" for n, s in CSV_CORPORA])
def test_exported_logs_are_read_a_column_at_a_time(tmp_path, monkeypatch, demo, name, seed):
    matches = demo if seed is None else synthetic_corpus(MatchFormat(name), 6, seed=seed)
    text = exported_text(matches, tmp_path)
    want = reference_csv_matches(text)
    builders = record_builders(monkeypatch)
    assert csv_log.read_log(text) == want
    assert builders == {"read_log"}  # one record builder: no fallback reader remains


ROWS = ["m1,t20i,1,0,1,true,1,0,none,false", "m1,t20i,1,0,2,false,0,1,wide,false",
        "m1,t20i,1,0,2,true,4,0,none,true", "m1,t20i,2,0,1,true,0,2,leg_bye,false"]


def log(*rows, end="\n"):
    return end.join([CSV_HEADER, *rows]) + end


def with_cell(row, field, token):
    cells = row.split(",")
    cells[field] = token
    return ",".join(cells)


# valid logs at the edges of the column arithmetic: odd layouts, spellings, lengths and ids
EDGE_LOGS = {
    "crlf": log(*ROWS, end="\r\n"),
    "cr_only": log(*ROWS, end="\r"),
    "line_separator": log(*ROWS, end="\u2028"),
    "blank_line": log(ROWS[0], "", *ROWS[1:]),
    "whitespace_only_line": log(ROWS[0], " \t ", *ROWS[1:]),
    "no_final_newline": log(*ROWS)[:-1],
    "header_only": log(),
    "non_ascii_match_id": log(*(row.replace("m1", "mé-中") for row in ROWS)),
    "lone_surrogate_match_id": log(*(row.replace("m1", "m\ud800") for row in ROWS)),
    "innings_split_by_another_match": log(ROWS[0], ROWS[0].replace("m1", "m2"), *ROWS[1:]),
    "token_of_7_bytes": log(with_cell(ROWS[0], 1, " T20i  "), *ROWS[1:]),
    "token_of_8_bytes": log(with_cell(ROWS[0], 1, "  T20i  "), *ROWS[1:]),
    "kind_of_8_bytes": log(with_cell(ROWS[0], 8, " none   "), *ROWS[1:]),
    "integer_of_18_digits": log(*ROWS[:3], with_cell(ROWS[3], 3, "1" * 18)),
    "integer_of_19_digits": log(*ROWS[:3], with_cell(ROWS[3], 3, "1" * 19)),
    "small_integer_of_19_digits": log(with_cell(ROWS[0], 6, "0" * 18 + "4"), *ROWS[1:]),
    "underscored_integer": log(with_cell(ROWS[0], 6, "1_0"), *ROWS[1:]),
    "arabic_indic_digit": log(with_cell(ROWS[0], 6, "\u0663"), *ROWS[1:]),
}


@pytest.mark.parametrize("case", EDGE_LOGS)
def test_csv_reader_agrees_with_the_reference_on_edge_logs(monkeypatch, block, case):
    text = EDGE_LOGS[case]
    builders = record_builders(monkeypatch)
    got, want = read_both(text)
    assert isinstance(want, list) and got == want
    assert builders == ({"read_log"} if want else set())
    if len(want) == 1:  # a str document of one match, as parse_match takes it
        assert parse_match(text) == want[0]


@pytest.mark.parametrize("cell, spoiled", [("m1", b"m\xff"), ("none", b"n\xffne")])
def test_log_that_is_not_utf8_is_refused_at_its_byte(tmp_path, block, cell, spoiled):
    # the columnar reader decodes only match ids and tokens, at the first row of each
    raw = log(*ROWS).encode()
    at = raw.index(cell.encode(), raw.index(ROWS[2].encode()))
    (tmp_path / "log.csv").write_bytes(raw[:at] + spoiled + raw[at + len(cell):])
    [diagnostic] = load_corpus(tmp_path).diagnostics
    assert diagnostic.message == f"document is not valid UTF-8 (at byte {at + 1})"


# ---------------------------------------------------------------------------
# the text writer of match documents against json.dumps


def every_delivery_match(teams, venue):
    """A match with every extras kind, with and without a wicket, in each innings."""
    rows = [(i, 1, 1, 2, kind.code, wicket)
            for i, (kind, wicket) in enumerate((k, w) for k in ExtrasKind for w in (False, True))]
    innings = [InningsRecord(index, team, *zip(*rows)) for index, team in enumerate(teams, 1)]
    return MatchRecord("odd-names", MatchFormat.T20I, date(2020, 2, 29), teams, venue, innings)


ODD_NAME_MATCHES = [
    every_delivery_match(('Quote "Q" XI', "Back\\slash CC"), "Tab\tand\nnewline\x00\x1f Oval"),
    every_delivery_match(("Zürich Löwen", "東京 🏏"), "\u2028 Park \\\"\x7f"),
]


@pytest.mark.parametrize("name, seed", CSV_CORPORA + [("odd_names", None)],
                         ids=[f"{n}-{s}" for n, s in CSV_CORPORA] + ["odd_names"])
def test_match_json_text_is_the_text_json_dumps_writes(demo, name, seed):
    if name == "odd_names":
        matches = ODD_NAME_MATCHES
        covered = {(d.extras_kind, d.wicket)
                   for m in matches for inn in m.innings for d in inn.deliveries}
        assert covered == {(kind, wicket) for kind in ExtrasKind for wicket in (False, True)}
    else:
        matches = demo if seed is None else synthetic_corpus(MatchFormat(name), 6, seed=seed)
    for match in matches:
        want = json.dumps(match_to_json(match), indent=2, sort_keys=True) + "\n"
        assert cricsheet.match_json_text(match) == want


def test_match_json_text_writes_an_innings_with_no_deliveries_as_json_dumps_does():
    match = MatchRecord("empty", MatchFormat.ODI, date(2020, 1, 1), ("A", "B"), "V", [innings_of()])
    want = json.dumps(match_to_json(match), indent=2, sort_keys=True) + "\n"
    assert '"overs": []' in want
    assert cricsheet.match_json_text(match) == want


def test_an_unknown_fixture_name_lists_the_bundled_ones():
    message = r"^no bundled fixture 'nope\.json' \(have: .*tiny_odi\.json"
    with pytest.raises(FileNotFoundError, match=message):
        fixture_path("nope.json")
