"""End-to-end command-line tests (in-process)."""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

import pytest

from rainrule import MatchFormat, fit_dl_family, resource_table, resource_table_csv
from rainrule.cricsheet import match_to_json
from rainrule.csv_log import CSV_HEADER
from rainrule import cli
from rainrule.cli import (
    DEFAULT_DEGREE,
    DEFAULT_MIN_SUPPORT,
    _date_arg,
    _format_arg,
    _positive_float,
    _positive_int,
    cmd_compare,
    cmd_curves,
    cmd_ingest,
    cmd_stats,
    cmd_target,
    main,
)
from rainrule.fixtures import (
    demo_corpus,
    exponential_profile_corpus,
    fixture_path,
    synthetic_corpus,
    write_corpus,
)

WORKED_SCENARIO = {
    "format": "odi",
    "innings": 2,
    "wickets": 4,
    "n": 120,
    "m": 180,
    "N": 300,
    "target_score": 275,
    "current_score": 100,
}
WORKED_FITS = {"a": -0.0031, "b": 1.0298, "c": 0.0, "degree": 3}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    write_corpus(synthetic_corpus(MatchFormat.ODI, 12, seed=3), root)
    write_corpus(synthetic_corpus(MatchFormat.T20I, 8, seed=3), root)
    write_corpus(synthetic_corpus(MatchFormat.IPL, 8, seed=3), root)
    return root


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# a chase of 120 scheduled balls in the shape of WORKED_SCENARIO
SHORT_SCENARIO = dict(WORKED_SCENARIO, n=40, m=60, N=120, target_score=170, current_score=50)


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    """The ``--fixture`` corpus written out as one JSON file per match."""
    root = tmp_path_factory.mktemp("demo")
    write_corpus(demo_corpus(), root)
    return root


SOURCE_PARITY = {
    "ingest": ["ingest", "--format", "odi", "--export-csv", "{out}/log.csv"],
    "stats": ["stats", "--format", "ipl", "--out", "{out}"],
    "curves": ["curves", "--format", "t20i", "--innings", "2", "--out", "{out}"],
    # --format picks no matches here: the scenario's own format picks the fit
    "compare": [
        "compare", "--format", "odi", "--scenario", "{scenario}", "--fits", "{fits}",
        "--out", "{out}",
    ],
}


@pytest.mark.parametrize("command", SOURCE_PARITY)
def test_fixture_and_its_directory_give_the_same_outputs(demo_dir, tmp_path, capsys, command):
    scenario = write_json(tmp_path / "scenario.json", dict(SHORT_SCENARIO, format="ipl"))
    fits = write_json(tmp_path / "fits.json", WORKED_FITS)
    runs = []
    for name, source in (("fixture", ["--fixture"]), ("dir", ["--data-dir", str(demo_dir)])):
        out = tmp_path / name
        out.mkdir()
        fields = {"out": out, "scenario": scenario, "fits": fits}
        code = main([arg.format(**fields) for arg in SOURCE_PARITY[command]] + source)
        captured = capsys.readouterr()
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        streams = (stream.replace(str(out), "OUT") for stream in captured)
        runs.append((code, *streams, files))
    assert runs[0] == runs[1]
    code, _, _, files = runs[0]
    assert code == 0 and files


class TestIngest:
    def test_counts_and_export(self, data_dir, tmp_path, capsys):
        out_csv = tmp_path / "log.csv"
        code = main(["ingest", "--data-dir", str(data_dir), "--export-csv", str(out_csv)])
        captured = capsys.readouterr()
        assert code == 0
        assert "matches: 28" in captured.out
        assert "odi: 12" in captured.out
        assert "t20i: 8" in captured.out
        assert "ipl: 8" in captured.out
        assert out_csv.read_text().splitlines()[0] == CSV_HEADER

    def test_failed_export_reports_no_success(self, data_dir, tmp_path, capsys):
        out_csv = tmp_path / "absent" / "log.csv"
        code = main(["ingest", "--data-dir", str(data_dir), "--export-csv", str(out_csv)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2] No such file or directory")
        assert not out_csv.parent.exists()

    def test_a_file_name_that_is_not_utf8_exports_nothing(self, tmp_path, capsys):
        source = tmp_path / "d"
        source.mkdir()
        name = os.fsdecode(b"x\xff.json")  # its match id keeps the byte as a lone surrogate
        try:
            (source / name).write_bytes(fixture_path("tiny_odi.json").read_bytes())
        except (OSError, UnicodeError):
            pytest.skip("the file system refuses a file name that is not UTF-8")
        out_csv = tmp_path / "log.csv"
        code = main(["ingest", "--data-dir", str(source), "--export-csv", str(out_csv)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: match id 'x\\udcff' cannot be written to a CSV ball log\n"
        )
        assert not out_csv.exists()

    def test_until_filters_by_date(self, data_dir, capsys):
        code = main(["ingest", "--data-dir", str(data_dir), "--until", "2019-01-05"])
        captured = capsys.readouterr()
        assert code == 0
        assert "matches: 3" in captured.out  # one per format on the start date

    # Python 3.11+ date.fromisoformat also reads the basic and week forms
    @pytest.mark.parametrize("token", ["2019-01-05", "20190105", "2019-W01-6", "2019W016"])
    def test_until_is_exactly_year_month_day(self, data_dir, capsys, token):
        argv = ["ingest", "--data-dir", str(data_dir), "--until", token]
        if token == "2019-01-05":
            assert main(argv) == 0
            return
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"bad date {token!r}, expected YYYY-MM-DD" in capsys.readouterr().err

    def test_empty_directory(self, tmp_path, capsys):
        code = main(["ingest", "--data-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: corpus is empty\n"

    def test_corrupt_only_directory(self, tmp_path, capsys):
        (tmp_path / "broken.json").write_text("{nope")
        code = main(["ingest", "--data-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "broken.json" in captured.err

    def test_format_matching_nothing_names_the_matches_read(self, tmp_path, capsys):
        for name in ("tiny_t20i.json", "tiny_ipl.json"):
            (tmp_path / name).write_bytes(fixture_path(name).read_bytes())
        code = main(["ingest", "--data-dir", str(tmp_path), "--format", "odi"])
        captured = capsys.readouterr()
        assert code == 2
        assert "matches: 0" in captured.out
        assert captured.err == "error: no odi match among the 2 matches read\n"

    def test_exported_log_beside_its_source_counts_once(self, tmp_path, capsys):
        (tmp_path / "tiny_odi.json").write_bytes(fixture_path("tiny_odi.json").read_bytes())
        argv = ["ingest", "--data-dir", str(tmp_path)]
        assert main(argv + ["--export-csv", str(tmp_path / "balls.csv")]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "matches: 1" in captured.out and "odi: 1" in captured.out
        assert captured.err == (
            "warning: tiny_odi.json: duplicate match id 'tiny_odi' skipped: "
            "first read from balls.csv\n"
        )

    def test_env_var_supplies_data_dir(self, data_dir, capsys, monkeypatch):
        monkeypatch.setenv("RAINRULE_DATA_DIR", str(data_dir))
        assert main(["ingest"]) == 0
        assert "matches: 28" in capsys.readouterr().out

    def test_no_data_source(self, capsys, monkeypatch):
        monkeypatch.delenv("RAINRULE_DATA_DIR", raising=False)
        code = main(["ingest"])
        assert code == 2
        assert "--data-dir" in capsys.readouterr().err


class TestStats:
    def test_reports_each_file_it_could_not_use(self, tmp_path, capsys):
        write_corpus(synthetic_corpus(MatchFormat.ODI, 12, seed=3), tmp_path)
        doc = json.loads(fixture_path("tiny_odi.json").read_text())
        del doc["info"]["match_type"]
        write_json(tmp_path / "bad.json", doc)
        argv = ["stats", "--data-dir", str(tmp_path), "--format", "odi"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == "warning: bad.json: unsupported match_type None\n"

    def test_writes_files_and_table(self, data_dir, tmp_path, capsys):
        out = tmp_path / "stats"
        code = main(
            ["stats", "--data-dir", str(data_dir), "--out", str(out), "--bin-width", "5"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "xi" in captured.out and "sigma" in captured.out
        assert (out / "hist_odi_i1.csv").exists()
        summary = json.loads((out / "normal_odi_i1.json").read_text())
        assert summary["format"] == "odi" and summary["innings"] == 1
        assert summary["n_samples"] == 12

    def test_byte_identical_reruns(self, data_dir, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["stats", "--data-dir", str(data_dir), "--bin-width", "5"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        for path in sorted(a.iterdir()):
            assert path.read_bytes() == (b / path.name).read_bytes()

    def test_single_format_restriction(self, data_dir, tmp_path, capsys):
        out = tmp_path / "stats"
        code = main(
            ["stats", "--data-dir", str(data_dir), "--format", "ipl",
             "--out", str(out), "--bin-width", "5"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "odi" not in captured.out
        assert not (out / "hist_odi_i1.csv").exists()


class TestCurves:
    def test_writes_curves_and_fit_family(self, data_dir, tmp_path, capsys):
        out = tmp_path / "curves"
        code = main(
            ["curves", "--data-dir", str(data_dir), "--format", "odi",
             "--innings", "1", "--min-support", "2", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "fitted" in captured.out
        family = json.loads((out / "poly_odi_i1.json").read_text())
        assert family["format"] == "odi"
        assert "0" in family["fits"]
        assert (out / "curve_odi_i1_w0.csv").exists()

    def test_all_states_empty_is_fit_error(self, data_dir, tmp_path, capsys):
        code = main(
            ["curves", "--data-dir", str(data_dir), "--format", "odi",
             "--min-support", "500", "--out", str(tmp_path / "x")]
        )
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err.endswith("\nerror: no wicket state could be fitted\n")
        assert captured.err.count("error:") == 1


def abandon(innings_doc):
    innings_doc["overs"] = []


def bowl_extra_over(innings_doc):
    ball = {"runs": {"batter": 1, "extras": 0, "total": 1}}
    last = innings_doc["overs"][-1]["over"]
    innings_doc["overs"].append({"over": last + 1, "deliveries": [ball] * 6})


@pytest.mark.parametrize(
    "index, spoil",
    [
        pytest.param(1, abandon, id="1"),
        pytest.param(2, abandon, id="2"),
        pytest.param(1, bowl_extra_over, id="over_length-1"),
        pytest.param(2, bowl_extra_over, id="over_length-2"),
    ],
)
def test_abandoned_innings_is_left_out(tmp_path, capsys, index, spoil):
    # a match whose innings ``index`` has no deliveries, or one over more than
    # scheduled, next to the same corpus with that innings removed (with the
    # match, if it was the only one)
    matches = synthetic_corpus(MatchFormat.ODI, 12, seed=3)
    with_empty, without = tmp_path / "with_empty", tmp_path / "without"
    write_corpus(matches, with_empty)
    write_corpus(matches, without)
    doc = match_to_json(matches[0])
    assert len(doc["innings"][index - 1]["overs"]) == MatchFormat.ODI.scheduled_overs
    doc["innings"] = doc["innings"][:index]
    spoil(doc["innings"][-1])
    write_json(with_empty / "abandoned.json", doc)
    if index == 2:
        doc["innings"] = doc["innings"][:1]
        write_json(without / "abandoned.json", doc)

    scenario = write_json(tmp_path / "scenario.json", WORKED_SCENARIO)
    fits = write_json(tmp_path / "fits.json", WORKED_FITS)
    for root in (with_empty, without):
        out = tmp_path / f"out_{root.name}"
        corpus = ["--data-dir", str(root), "--out", str(out)]
        flags = corpus + ["--min-support", "2"]
        assert main(["stats"] + corpus) == 0
        assert main(["curves", "--innings", str(index)] + flags) == 0
        assert main(["compare", "--scenario", str(scenario), "--fits", str(fits)] + flags) == 0
    capsys.readouterr()
    got, want = tmp_path / "out_with_empty", tmp_path / "out_without"
    assert sorted(p.name for p in got.iterdir()) == sorted(p.name for p in want.iterdir())
    for path in want.iterdir():
        assert (got / path.name).read_bytes() == path.read_bytes()


class TestTarget:
    def test_worked_example(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "scenario.json", WORKED_SCENARIO)
        fits = write_json(tmp_path / "fits.json", WORKED_FITS)
        code = main(["target", "--scenario", str(scenario), "--fits", str(fits)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["revised_total"] == 230
        assert payload["to_win"] == 231
        assert 0.745 <= payload["ratio"] <= 0.750

    def test_family_fits_file_selected_by_wickets(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "scenario.json", WORKED_SCENARIO)
        fits = write_json(tmp_path / "family.json", {"fits": {"4": WORKED_FITS}})
        assert main(["target", "--scenario", str(scenario), "--fits", str(fits)]) == 0
        assert json.loads(capsys.readouterr().out)["revised_total"] == 230

        missing = dict(WORKED_SCENARIO, wickets=5)
        scenario5 = write_json(tmp_path / "scenario5.json", missing)
        code = main(["target", "--scenario", str(scenario5), "--fits", str(fits)])
        captured = capsys.readouterr()
        assert code == 4
        assert "wickets=5" in captured.err

    def test_no_interruption_keeps_target(self, tmp_path, capsys):
        doc = dict(WORKED_SCENARIO, n=150, m=150)
        scenario = write_json(tmp_path / "scenario.json", doc)
        fits = write_json(tmp_path / "fits.json", WORKED_FITS)
        assert main(["target", "--scenario", str(scenario), "--fits", str(fits)]) == 0
        assert json.loads(capsys.readouterr().out)["revised_total"] == 275

    @pytest.mark.parametrize("command", ["target", "compare"])
    def test_nothing_to_chase(self, tmp_path, capsys, command):
        doc = dict(WORKED_SCENARIO, n=0, m=300)
        scenario = write_json(tmp_path / "scenario.json", doc)
        fits = write_json(tmp_path / "fits.json", WORKED_FITS)
        code = main([command, "--scenario", str(scenario), "--fits", str(fits)])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.out)["ratio"] == 0.0
        assert "nothing to chase" in captured.err

    # a cubic with a small positive full area that dips below 0 after ball 221
    DIPPING_FITS = {"a": -4.06e-5, "b": 5.13e-3, "c": 0.826, "degree": 3}

    @pytest.mark.parametrize("command", ["target", "compare"])
    @pytest.mark.parametrize(
        "n, m, ratio",
        [(100, 150, "-3.533611111111107"), (250, 300, "11.451388888888856")],
    )
    def test_ratio_outside_0_1_is_a_degenerate_fit(self, tmp_path, capsys, command, n, m, ratio):
        doc = dict(WORKED_SCENARIO, wickets=0, n=n, m=m, target_score=250, current_score=0)
        scenario = write_json(tmp_path / "scenario.json", doc)
        fits = write_json(tmp_path / "fits.json", self.DIPPING_FITS)
        code = main([command, "--scenario", str(scenario), "--fits", str(fits)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == (
            f"error: area ratio is {ratio}, outside [0, 1]: the fitted curve is negative "
            "over the lost balls; fit unusable for target revision\n"
        )

    def test_the_dipping_fit_still_revises_where_its_ratio_is_in_0_1(self, tmp_path, capsys):
        doc = dict(WORKED_SCENARIO, wickets=0, n=0, m=300, target_score=250, current_score=0)
        fits = write_json(tmp_path / "fits.json", self.DIPPING_FITS)
        code = main(["target", "--scenario", str(write_json(tmp_path / "s.json", doc)),
                     "--fits", str(fits)])
        assert code == 3  # the whole innings lost: a ratio of exactly 0 has nothing to chase
        assert "nothing to chase" in capsys.readouterr().err
        doc.update(n=20, m=40)
        code = main(["target", "--scenario", str(write_json(tmp_path / "s.json", doc)),
                     "--fits", str(fits)])
        assert code == 0
        assert 0.0 < json.loads(capsys.readouterr().out)["ratio"] < 1.0

    def test_invalid_scenario_names_field(self, tmp_path, capsys):
        doc = dict(WORKED_SCENARIO, current_score=300)
        scenario = write_json(tmp_path / "scenario.json", doc)
        fits = write_json(tmp_path / "fits.json", WORKED_FITS)
        code = main(["target", "--scenario", str(scenario), "--fits", str(fits)])
        captured = capsys.readouterr()
        assert code == 3
        assert "current_score" in captured.err

    def test_malformed_scenario_file(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text("{not json")
        fits = write_json(tmp_path / "fits.json", WORKED_FITS)
        code = main(["target", "--scenario", str(scenario), "--fits", str(fits)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_an_unreadable_file_is_named_once(self, tmp_path, capsys):
        fits = write_json(tmp_path / "fits.json", WORKED_FITS)
        for scenario, reason in ((tmp_path, "Is a directory"),
                                 (tmp_path / "missing.json", "No such file or directory")):
            code = main(["target", "--scenario", str(scenario), "--fits", str(fits)])
            assert code == 2
            assert capsys.readouterr().err == f"error: cannot read {scenario}: {reason}\n"

    def test_deterministic_stdout(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "scenario.json", WORKED_SCENARIO)
        fits = write_json(tmp_path / "fits.json", WORKED_FITS)
        main(["target", "--scenario", str(scenario), "--fits", str(fits)])
        first = capsys.readouterr().out
        main(["target", "--scenario", str(scenario), "--fits", str(fits)])
        assert capsys.readouterr().out == first


class TestCompare:
    def test_with_table_file(self, tmp_path, capsys):
        family = fit_dl_family(
            exponential_profile_corpus(MatchFormat.ODI), MatchFormat.ODI, min_support=1
        )
        table_path = tmp_path / "table.csv"
        table_path.write_text(resource_table_csv(resource_table(family, 50)))
        scenario = write_json(tmp_path / "scenario.json", WORKED_SCENARIO)
        fits = write_json(tmp_path / "fits.json", WORKED_FITS)
        code = main(
            ["compare", "--scenario", str(scenario), "--fits", str(fits),
             "--dl-table", str(table_path)]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["area_ratio"]["revised_total"] == 230
        model = payload["resource_model"]
        assert model["percent_at_stoppage"] > model["percent_at_restart"]
        assert model["percent_lost"] == pytest.approx(
            model["percent_at_stoppage"] - model["percent_at_restart"]
        )

    def test_without_table_warns_and_degrades(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("RAINRULE_DATA_DIR", raising=False)
        scenario = write_json(tmp_path / "scenario.json", WORKED_SCENARIO)
        fits = write_json(tmp_path / "fits.json", WORKED_FITS)
        code = main(["compare", "--scenario", str(scenario), "--fits", str(fits)])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["resource_model"] is None
        assert "warning" in captured.err

    def test_fits_table_from_corpus(self, data_dir, tmp_path, capsys):
        out = tmp_path / "cmp"
        scenario = write_json(tmp_path / "scenario.json", WORKED_SCENARIO)
        fits = write_json(tmp_path / "fits.json", WORKED_FITS)
        code = main(
            ["compare", "--scenario", str(scenario), "--fits", str(fits),
             "--data-dir", str(data_dir), "--min-support", "2", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert (out / "resource_odi.csv").exists()
        assert (out / "comparison.json").exists()
        assert json.loads(captured.out)["resource_model"] is not None

    @pytest.mark.parametrize("source", ["dl_table", "none", "fixture"])
    def test_scenario_format_is_read_only_to_fit_a_table(
        self, tmp_path, capsys, monkeypatch, source
    ):
        # "test" is no limited-overs format, but only a corpus fit needs one
        monkeypatch.delenv("RAINRULE_DATA_DIR", raising=False)
        table_path = tmp_path / "table.csv"
        family = fit_dl_family(
            exponential_profile_corpus(MatchFormat.ODI), MatchFormat.ODI, min_support=1
        )
        table_path.write_text(resource_table_csv(resource_table(family, 50)))
        scenario = write_json(tmp_path / "scenario.json", dict(WORKED_SCENARIO, format="test"))
        fits = write_json(tmp_path / "fits.json", WORKED_FITS)
        extra = {
            "dl_table": ["--dl-table", str(table_path)],
            "none": [],
            "fixture": ["--fixture", "--out", str(tmp_path / "out")],
        }[source]
        code = main(["compare", "--scenario", str(scenario), "--fits", str(fits)] + extra)
        captured = capsys.readouterr()
        if source == "fixture":
            assert code == 2
            assert "unknown match format: 'test'" in captured.err
        else:
            assert code == 0
            assert json.loads(captured.out)["area_ratio"]["revised_total"] == 230

    @pytest.mark.parametrize(
        "scenario, flags, fmt",
        [
            pytest.param(WORKED_SCENARIO, [], "odi", id="N=300"),
            pytest.param(SHORT_SCENARIO, [], "t20i", id="N=120"),
            pytest.param(SHORT_SCENARIO, ["--format", "ipl"], "ipl", id="N=120-format-ipl"),
        ],
    )
    def test_scenario_without_format_falls_back(self, tmp_path, capsys, scenario, flags, fmt):
        # the scenario's format, then --format, then ODI for N >= 300, else T20I
        doc = {key: value for key, value in scenario.items() if key != "format"}
        out = tmp_path / "out"
        code = main(
            ["compare", "--scenario", str(write_json(tmp_path / "scenario.json", doc)),
             "--fits", str(write_json(tmp_path / "fits.json", WORKED_FITS)),
             "--fixture", "--out", str(out)] + flags
        )
        capsys.readouterr()
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["comparison.json", f"resource_{fmt}.csv"]

    @pytest.mark.parametrize("source", ["dl_table", "fixture"])
    def test_table_shorter_than_the_scenario_exits_2(self, tmp_path, capsys, source):
        # both lookups used to land on the table's last row: percent_lost 0.0
        table_path = tmp_path / "table.csv"
        family = fit_dl_family(
            exponential_profile_corpus(MatchFormat.ODI), MatchFormat.ODI, min_support=1
        )
        table_path.write_text(resource_table_csv(resource_table(family, 20)))
        scenario = write_json(tmp_path / "scenario.json", dict(WORKED_SCENARIO, format="t20i"))
        fits = write_json(tmp_path / "fits.json", WORKED_FITS)
        out = tmp_path / "out"
        source_flags = {"dl_table": ["--dl-table", str(table_path)], "fixture": ["--fixture"]}
        code = main(
            ["compare", "--scenario", str(scenario), "--fits", str(fits), "--out", str(out)]
            + source_flags[source]
        )
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: the scenario's 50 overs exceed the resource table's 20\n"
        )
        assert not out.exists()

    def test_bad_table_rejected(self, tmp_path, capsys):
        table_path = tmp_path / "table.csv"
        table_path.write_text("wrong,header\n1,2\n")
        scenario = write_json(tmp_path / "scenario.json", WORKED_SCENARIO)
        fits = write_json(tmp_path / "fits.json", WORKED_FITS)
        code = main(
            ["compare", "--scenario", str(scenario), "--fits", str(fits),
             "--dl-table", str(table_path)]
        )
        assert code == 2
        assert "header" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fault",
    [
        "stats_out_is_a_file",
        "export_into_missing_dir",
        "target_out_is_a_file",
        "compare_out_is_a_file",
        "comma_in_match_id",
    ],
)
def test_output_faults_exit_2(data_dir, tmp_path, capsys, fault):
    taken = tmp_path / "taken"
    taken.write_text("")
    scenario = write_json(tmp_path / "scenario.json", WORKED_SCENARIO)
    fits = write_json(tmp_path / "fits.json", WORKED_FITS)
    comma_dir = tmp_path / "comma"
    comma_dir.mkdir()
    (comma_dir / "a,b.json").write_bytes(fixture_path("tiny_odi.json").read_bytes())
    argv = {
        "stats_out_is_a_file": ["stats", "--data-dir", str(data_dir), "--out", str(taken)],
        "export_into_missing_dir": [
            "ingest", "--data-dir", str(data_dir),
            "--export-csv", str(tmp_path / "missing" / "log.csv"),
        ],
        "target_out_is_a_file": [
            "target", "--scenario", str(scenario), "--fits", str(fits), "--out", str(taken),
        ],
        "compare_out_is_a_file": [
            "compare", "--scenario", str(scenario), "--fits", str(fits), "--out", str(taken),
        ],
        "comma_in_match_id": [
            "ingest", "--data-dir", str(comma_dir), "--export-csv", str(tmp_path / "log.csv"),
        ],
    }[fault]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert "error: " in err
    if fault in ("target_out_is_a_file", "compare_out_is_a_file"):
        assert out == ""  # nothing is printed before --out is written
    if fault == "comma_in_match_id":
        assert "'a,b'" in err
        assert not (tmp_path / "log.csv").exists()


EXAMPLE_SCENARIO = fixture_path("example_scenario.json").read_text()
EXAMPLE_FITS = fixture_path("example_fits.json").read_text()


def fit_text(b="1.0298", degree="3"):
    return f'{{"a": -0.0031, "b": {b}, "c": 0.0, "degree": {degree}}}'


def scenario_text(**fields):
    doc = json.loads(EXAMPLE_SCENARIO)
    text = json.dumps({key: "@" + key if key in fields else v for key, v in doc.items()})
    for key, value in fields.items():  # raw JSON, so that 1e400 and 10**400 get through
        text = text.replace(f'"@{key}"', value)
    return text


# (scenario, fits, table cell) documents that crashed ``target`` or
# ``compare``, printed non-JSON, or were read with a number truncated, and
# files no JSON reader can read (bytes are written as they are, None not at all)
DECISION_DOCUMENTS = {
    "scenario_missing": (None, EXAMPLE_FITS, None, 2),
    "scenario_bad_utf8": (
        EXAMPLE_SCENARIO.encode().replace(b"odi", b"\xffdi"), EXAMPLE_FITS, None, 2
    ),
    "fits_5000_digit_integer": (EXAMPLE_SCENARIO, fit_text(b="1" * 5000), None, 2),
    "fits_nested_100000_deep": (EXAMPLE_SCENARIO, "[" * 100_000 + "]" * 100_000, None, 2),
    "fits_list": (EXAMPLE_SCENARIO, "[]", None, 2),
    "fits_string": (EXAMPLE_SCENARIO, '"x"', None, 2),
    "fits_family_number": (EXAMPLE_SCENARIO, '{"fits": 5}', None, 2),
    "fits_entry_number": (EXAMPLE_SCENARIO, '{"fits": {"4": 5}}', None, 2),
    "fits_b_1e400": (EXAMPLE_SCENARIO, fit_text(b="1e400"), None, 2),
    "fits_b_10**400": (EXAMPLE_SCENARIO, fit_text(b=str(10**400)), None, 2),
    "fits_degree_3.7": (EXAMPLE_SCENARIO, fit_text(degree="3.7"), None, 2),
    "fits_b_1e305": (EXAMPLE_SCENARIO, fit_text(b="1e305"), None, 4),
    "scenario_N_1e300": (scenario_text(N="1e300"), EXAMPLE_FITS, None, 3),
    "scenario_target_10**400": (scenario_text(target_score=str(10**400)), EXAMPLE_FITS, None, 3),
    "scenario_interval_1e400": (
        json.dumps(dict(json.loads(EXAMPLE_SCENARIO), more_intervals="@")).replace(
            '"@"', "[[1e400, 2]]"
        ),
        EXAMPLE_FITS, None, 3,
    ),
    "scenario_interval_200.5": (
        json.dumps(dict(json.loads(EXAMPLE_SCENARIO), more_intervals=[[200.5, 220]])),
        EXAMPLE_FITS, None, 3,
    ),
    # u = (300 - 120) // 6 overs left at the stoppage, 4 wickets down
    "table_inf": (EXAMPLE_SCENARIO, EXAMPLE_FITS, (30, 4, "inf"), 2),
}


@pytest.mark.parametrize("name", DECISION_DOCUMENTS)
def test_decision_document_faults_exit_with_message(tmp_path, capsys, name):
    scenario, fits, cell, expected = DECISION_DOCUMENTS[name]
    for file_name, doc in (("scenario.json", scenario), ("fits.json", fits)):
        if doc is not None:
            (tmp_path / file_name).write_bytes(doc if isinstance(doc, bytes) else doc.encode())
    argv = ["--scenario", str(tmp_path / "scenario.json"), "--fits", str(tmp_path / "fits.json")]
    if cell is None:
        code = main(["target"] + argv)
    else:
        family = fit_dl_family(
            exponential_profile_corpus(MatchFormat.ODI), MatchFormat.ODI, min_support=1
        )
        rows = [line.split(",") for line in resource_table_csv(resource_table(family, 50)).split()]
        u, w, value = cell
        row = next(r for r in rows if r[0] == str(u))
        row[1 + w] = value
        (tmp_path / "table.csv").write_text("\n".join(",".join(r) for r in rows) + "\n")
        code = main(["compare", "--dl-table", str(tmp_path / "table.csv")] + argv)
    out, err = capsys.readouterr()
    assert code == expected
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_stats_refuses_a_bin_width_needing_too_many_bins(data_dir, tmp_path, capsys):
    code = main(["stats", "--data-dir", str(data_dir), "--format", "ipl",
                 "--bin-width", "1e-300", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 4
    assert "bin width 1e-300" in err
    assert not list((tmp_path / "out").iterdir())


class TestArgumentValidation:
    @pytest.mark.parametrize(
        "width, reason",
        [("0", "positive"), ("-1", "positive"), ("nan", "positive"),
         ("inf", "finite"), ("1e309", "finite")],
    )
    def test_nonpositive_bin_width_rejected(self, data_dir, width, reason, capsys):
        # an infinite width once ended in a traceback from build_histogram
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--data-dir", str(data_dir), "--bin-width", width])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"argument --bin-width: must be {reason}\n")

    def test_unknown_format_rejected(self, data_dir):
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--data-dir", str(data_dir), "--format", "test"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["curves", "compare"])
    def test_min_support_below_one_rejected(self, command, capsys):
        argv = [command, "--fixture", "--min-support", "0"]
        if command == "compare":
            argv += ["--scenario", "s.json", "--fits", "f.json"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("argument --min-support: must be a positive integer\n")


# ---------------------------------------------------------------------------
# the command table against the parser it replaced: the five subparsers built
# by hand, every flag on every call, kept here verbatim as the oracle


def _add_corpus_flags(sp: argparse.ArgumentParser, out_help: str = "output directory") -> None:
    sp.add_argument(
        "--data-dir",
        type=Path,
        default=None,
        help="directory of match files (default: $RAINRULE_DATA_DIR)",
    )
    sp.add_argument(
        "--fixture",
        action="store_true",
        help="use the bundled deterministic synthetic corpus",
    )
    sp.add_argument(
        "--format",
        type=_format_arg,
        default=None,
        metavar="{odi,t20i,ipl}",
        help="restrict to one format",
    )
    sp.add_argument(
        "--until",
        type=_date_arg,
        default=None,
        metavar="YYYY-MM-DD",
        help="keep only matches dated on or before this day",
    )
    sp.add_argument("--out", type=Path, default=None, help=out_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainrule",
        description="Rain-rule analytics for limited-overs cricket ball logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="load a corpus and report counts")
    _add_corpus_flags(p_ingest, out_help="accepted, but ingest writes nothing there")
    p_ingest.add_argument(
        "--export-csv", type=Path, default=None, metavar="FILE",
        help="write the normalized ball log CSV",
    )
    p_ingest.set_defaults(func=cmd_ingest)

    p_stats = sub.add_parser("stats", help="totals histograms and normal fits")
    _add_corpus_flags(p_stats)
    p_stats.add_argument("--bin-width", type=_positive_float, default=10.0)
    p_stats.set_defaults(func=cmd_stats)

    p_curves = sub.add_parser("curves", help="wicket curves and polynomial fits")
    _add_corpus_flags(p_curves)
    p_curves.add_argument("--innings", type=int, choices=(1, 2), default=1)
    p_curves.add_argument("--min-support", type=_positive_int, default=DEFAULT_MIN_SUPPORT)
    p_curves.add_argument("--degree", type=int, choices=(2, 3), default=DEFAULT_DEGREE)
    p_curves.set_defaults(func=cmd_curves)

    p_target = sub.add_parser("target", help="revise an interrupted chase")
    p_target.add_argument("--scenario", type=Path, required=True, help="scenario JSON file")
    p_target.add_argument("--fits", type=Path, required=True, help="polynomial fit JSON file")
    p_target.add_argument("--out", type=Path, default=None, help="output directory")
    p_target.set_defaults(func=cmd_target)

    p_compare = sub.add_parser(
        "compare", help="area-ratio revision next to resource-model percentages"
    )
    _add_corpus_flags(p_compare)
    p_compare.add_argument("--scenario", type=Path, required=True)
    p_compare.add_argument("--fits", type=Path, required=True)
    p_compare.add_argument(
        "--dl-table", type=Path, default=None,
        help="resource table CSV (otherwise fitted from the corpus when available)",
    )
    p_compare.add_argument(
        "--min-support", type=_positive_int, default=DEFAULT_MIN_SUPPORT
    )
    p_compare.set_defaults(func=cmd_compare)

    return parser


COMMANDS = ("ingest", "stats", "curves", "target", "compare")
CORPUS_FLAGS = ["--data-dir", "d", "--fixture", "--format", "T20I", "--until", "2020-01-31"]
CORPUS_EQUALS = ["--data-dir=d", "--format=ipl", "--until=2019-12-31", "--out=o"]
DECISION_FILES = ["--scenario", "s.json", "--fits", "f.json"]

# argvs each parser takes: every flag set, the defaults, and the --flag=value forms
VALID_ARGVS = [
    ["ingest"],
    ["ingest", *CORPUS_FLAGS, "--out", "o", "--export-csv", "log.csv"],
    ["ingest", *CORPUS_EQUALS, "--export-csv=log.csv", "--fix"],
    ["stats"],
    ["stats", *CORPUS_FLAGS, "--out", "o", "--bin-width", "2.5"],
    ["stats", *CORPUS_EQUALS, "--bin-width=7", "--fixture"],
    ["curves"],
    ["curves", *CORPUS_FLAGS, "--out", "o", "--innings", "2", "--min-support", "3",
     "--degree", "2"],
    ["curves", *CORPUS_EQUALS, "--innings=2", "--min-sup=4", "--degree=3"],
    ["target", *DECISION_FILES],
    ["target", *DECISION_FILES, "--out", "o"],
    ["target", "--scenario=s.json", "--fits=f.json", "--out=o"],
    ["compare", *DECISION_FILES],
    ["compare", *CORPUS_FLAGS, "--out", "o", *DECISION_FILES, "--dl-table", "t.csv",
     "--min-support", "2"],
    ["compare", *CORPUS_EQUALS, "--scenario=s.json", "--fits=f.json", "--dl-table=t.csv",
     "--min-support=5"],
]

# argvs each parser refuses, each with a message on stderr and exit code 2
INVALID_ARGVS = {
    "no_command": [],
    "abbreviated_command": ["targ", *DECISION_FILES],
    "unknown_command": ["fit", "--fixture"],
    "unknown_flag": ["stats", "--fixture", "--bogus"],
    "flag_of_another_command": ["stats", "--degree", "2"],
    "stray_positional": ["curves", "extra"],
    "flag_before_the_command": ["--fixture", "stats", "--bin-width", "5"],
    "flag_before_a_command_with_required_flags": ["--fixture", "target", *DECISION_FILES],
    "ambiguous_flag": ["compare", "--f", "x", *DECISION_FILES],
    "missing_required_flags": ["target"],
    "missing_value": ["target", "--scenario"],
    "bad_choice_degree": ["curves", "--degree", "4"],
    "bad_choice_format": ["stats", "--format", "test"],
    "bad_type_innings": ["curves", "--innings", "x"],
    "bad_type_bin_width": ["stats", "--bin-width=inf"],
    "bad_type_min_support": ["compare", *DECISION_FILES, "--min-support", "0"],
    "bad_type_until": ["ingest", "--until", "2020-1-1"],
}


def exit_of(parse, argv, capsys):
    """(exit code, stdout, stderr) of ``parse(argv)``, which must exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return (exc.value.code, *capsys.readouterr())


def parsed(parser, argv):
    return {key: value for key, value in vars(parser.parse_args(argv)).items() if key != "func"}


@pytest.mark.parametrize("columns", ["60", "120"])
@pytest.mark.parametrize("argv", [["--help"]] + [[command, "-h"] for command in COMMANDS],
                         ids=["top"] + list(COMMANDS))
def test_help_is_the_old_parsers(monkeypatch, capsys, columns, argv):
    monkeypatch.setenv("COLUMNS", columns)
    old = exit_of(build_parser().parse_args, argv, capsys)
    assert old[0] == 0 and old[1].startswith("usage: rainrule")
    assert exit_of(main, argv, capsys) == old
    assert cli.build_parser(argv[0]).format_help() == build_parser().format_help()


@pytest.mark.parametrize("argv", VALID_ARGVS, ids=" ".join)
def test_arguments_parse_as_the_old_parser_parses_them(argv):
    assert parsed(cli.build_parser(argv[0]), argv) == parsed(build_parser(), argv)


@pytest.mark.parametrize("name", INVALID_ARGVS)
def test_bad_arguments_fail_as_with_the_old_parser(monkeypatch, capsys, name):
    monkeypatch.setenv("COLUMNS", "80")
    argv = INVALID_ARGVS[name]
    old = exit_of(build_parser().parse_args, argv, capsys)
    assert old[0] == 2 and old[1] == "" and "error: " in old[2]
    assert exit_of(main, argv, capsys) == old


def test_only_the_named_command_gets_its_flags():
    def flags(parser):
        return [action.option_strings for action in parser._actions]

    [commands] = [a for a in cli.build_parser("target")._actions if a.choices]
    assert list(commands.choices) == list(COMMANDS)
    for name, parser in commands.choices.items():
        if name == "target":
            assert flags(parser) == [["-h", "--help"], ["--scenario"], ["--fits"], ["--out"]]
        else:
            assert flags(parser) == [["-h", "--help"]]
