"""Parsing, normalization and trajectory tests."""

from __future__ import annotations

import json
from datetime import date

import numpy as np
import pytest

from rainrule import (
    CSV_HEADER,
    DeliveryEvent,
    ExtrasKind,
    InningsRecord,
    MatchFormat,
    MatchRecord,
    ParseError,
    ParseWarning,
    UnsupportedFormatError,
    export_csv,
    innings_trajectories,
    load_corpus,
    parse_match,
    qualifying_trajectories,
    trajectory,
)
from rainrule.fixtures import fixture_path, synthetic_corpus, write_corpus


def legal(over, ball, batter=0, extras=0, kind=ExtrasKind.NONE, wicket=False):
    return DeliveryEvent(over, ball, batter, extras, kind, wicket, True)


def illegal(over, ball, kind=ExtrasKind.WIDE, extras=1, batter=0, wicket=False):
    return DeliveryEvent(over, ball, batter, extras, kind, wicket, False)


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

    def test_missing_directory(self, tmp_path):
        with pytest.raises(NotADirectoryError):
            load_corpus(tmp_path / "absent")

    def test_write_corpus_round_trip(self, tmp_path, small_odi):
        write_corpus(small_odi, tmp_path)
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
            DeliveryEvent(0, 1, 0, 0, ExtrasKind.WIDE, False, False)

    def test_legal_flag_must_match_kind(self):
        with pytest.raises(ValueError, match="legal"):
            DeliveryEvent(0, 1, 0, 1, ExtrasKind.WIDE, False, True)
        with pytest.raises(ValueError, match="legal"):
            DeliveryEvent(0, 1, 1, 0, ExtrasKind.NONE, False, False)

    def test_deliveries_must_be_ordered(self):
        with pytest.raises(ValueError, match="order"):
            InningsRecord(1, "X", (legal(1, 1), legal(0, 1)))

    def test_at_most_ten_wickets(self):
        events = tuple(legal(0, b, wicket=True) for b in range(1, 12))
        with pytest.raises(ValueError, match="10 wickets"):
            InningsRecord(1, "X", events)


# ---------------------------------------------------------------------------
# trajectories


class TestTrajectory:
    def test_ball_axis_counts_legal_only(self):
        inn = InningsRecord(
            1, "X", (legal(0, 1, 1), illegal(0, 2), legal(0, 3, 2), legal(0, 4, 0))
        )
        traj = trajectory(inn, MatchFormat.ODI)
        assert traj.ball.tolist() == [1, 2, 3]
        assert traj.completed_balls == 3

    def test_wide_credits_next_legal_ball(self):
        inn = InningsRecord(1, "X", (illegal(0, 1, extras=1), legal(0, 2, 2)))
        traj = trajectory(inn, MatchFormat.ODI)
        assert traj.points == [(1, 3, 0)]

    def test_trailing_illegal_credits_previous_ball(self):
        inn = InningsRecord(1, "X", (legal(0, 1, 1), illegal(0, 2, extras=1)))
        traj = trajectory(inn, MatchFormat.ODI)
        assert traj.points == [(1, 2, 0)]
        assert traj.total == 2

    def test_wicket_on_wide_follows_run_placement(self):
        inn = InningsRecord(
            1, "X", (illegal(0, 1, wicket=True), legal(0, 2, 1), legal(0, 3, 1))
        )
        traj = trajectory(inn, MatchFormat.ODI)
        assert traj.wickets.tolist() == [1, 1]

    def test_all_illegal_innings_degenerates_to_one_point(self):
        inn = InningsRecord(1, "X", (illegal(0, 1), illegal(0, 2, extras=2)))
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
        inn = InningsRecord(1, "X", (legal(0, 1, 1),))
        traj = trajectory(inn, MatchFormat.ODI)
        with pytest.raises(ValueError):
            traj.runs[0] = 99

    def test_more_legal_balls_than_scheduled_rejected(self):
        events = tuple(legal(i // 6, i % 6 + 1) for i in range(121))
        inn = InningsRecord(1, "X", events)
        with pytest.raises(ValueError, match="schedule"):
            trajectory(inn, MatchFormat.T20I)


def test_qualifying_trajectories_keep_full_and_all_out_innings():
    def match(match_id, fmt, index, events):
        innings = (InningsRecord(index, "X", tuple(events)),)
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
