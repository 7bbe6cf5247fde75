"""Parsing, normalization and trajectory tests."""

from __future__ import annotations

import json
from datetime import date

import numpy as np
import pytest

from rainrule import (
    CSV_HEADER,
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
    match_to_json,
    parse_match,
    qualifying_trajectories,
    trajectory,
)
from rainrule import fixtures
from rainrule.fixtures import fixture_path, synthetic_corpus, write_corpus


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

    def test_match_to_json_reads_back_as_the_same_match(self, small_odi):
        assert fixtures.match_to_json is match_to_json  # write_corpus's writer
        for match in small_odi:
            text = json.dumps(match_to_json(match))
            assert parse_match(text, match_id=match.match_id) == match

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
            innings_of(illegal(0, 1, extras=0))

    def test_legal_flag_must_match_kind(self):
        # only the CSV ball log spells legality out; the columns derive it from the kind
        with pytest.raises(ParseError, match="legal"):
            parse_match(CSV_HEADER + "\nm1,odi,1,0,1,true,0,1,wide,false\n")
        with pytest.raises(ParseError, match="legal"):
            parse_match(CSV_HEADER + "\nm1,odi,1,0,1,false,1,0,none,false\n")

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

    def test_columns_are_read_only_and_compared_by_value(self):
        inn = innings_of(legal(0, 1, 1), illegal(0, 2))
        assert inn.legal.tolist() == [True, False]
        assert inn == innings_of(legal(0, 1, 1), illegal(0, 2))
        assert inn != innings_of(legal(0, 1, 2), illegal(0, 2))
        with pytest.raises(ValueError):
            inn.batter_runs[0] = 4


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
