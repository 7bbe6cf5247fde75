"""What each entry point imports: the lazy package root, a decision path
(``rainrule target``) that never loads numpy, and batch commands that load no
``dataclasses``, checked in fresh interpreters."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import rainrule
from rainrule import MatchFormat
from rainrule.fixtures import fixture_path, synthetic_corpus, write_corpus

SRC = Path(rainrule.__file__).resolve().parents[1]

# runs ``python -m rainrule.cli ARGS`` the way a user does (the package root
# first), then writes the exit code, the modules loaded before the probe began
# (a bare interpreter's) and those loaded at the end to REPORT
CLI_PROBE = """
import sys
bare = sorted(sys.modules)
import json, runpy
report, sys.argv = sys.argv[1], ["rainrule", *sys.argv[2:]]
try:
    runpy.run_module("rainrule.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as e:
    code = e.code
with open(report, "w") as f:
    json.dump({"exit": code, "bare": bare, "modules": sorted(sys.modules)}, f)
"""

# standard-library machinery the decision path does without; a site hook may
# preload some of them (``typing``, say), which the CLI is not charged for
UNUSED_BY_TARGET = {"dataclasses", "inspect", "datetime", "typing"}


def fresh_python(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def run_cli(tmp_path: Path, *argv: str) -> tuple[int, set[str], set[str]]:
    """(exit code, modules of a bare interpreter, modules loaded at exit)"""
    report = tmp_path / "report.json"
    proc = fresh_python("-c", CLI_PROBE, str(report), *argv, cwd=tmp_path)
    assert report.exists(), proc.stderr
    result = json.loads(report.read_text())
    return result["exit"], set(result["bare"]), set(result["modules"])


SCENARIO = json.loads(fixture_path("example_scenario.json").read_text())
FITS = json.loads(fixture_path("example_fits.json").read_text())

# (scenario, fits, exit code): a success and one failure per exit code
TARGET_CASES = {
    "example": (SCENARIO, FITS, 0),
    "fits_degree_3.7": (SCENARIO, dict(FITS, degree=3.7), 2),
    "nothing_to_chase": (dict(SCENARIO, n=0, m=SCENARIO["N"]), FITS, 3),
    "family_without_state": (SCENARIO, {"fits": {"5": FITS}}, 4),
}


@pytest.mark.parametrize("case", TARGET_CASES)
def test_target_imports_no_numpy(tmp_path, case):
    scenario, fits, expected = TARGET_CASES[case]
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    (tmp_path / "fits.json").write_text(json.dumps(fits))
    code, bare, modules = run_cli(
        tmp_path, "target", "--scenario", "scenario.json", "--fits", "fits.json"
    )
    assert code == expected
    assert "numpy" not in modules
    assert (UNUSED_BY_TARGET & modules) - bare == set()
    assert {m for m in modules if m.startswith("rainrule")} == {
        "rainrule", "rainrule.errors", "rainrule.fits", "rainrule.target_engine"
    }


FORMAT_MODULES = {"rainrule.cricsheet", "rainrule.csv_log"}


def test_ingest_imports_only_the_reader(tmp_path):
    write_corpus(synthetic_corpus(MatchFormat.T20I, 2, seed=3), tmp_path / "data")
    code, _, modules = run_cli(tmp_path, "ingest", "--data-dir", "data")
    assert code == 0
    assert "rainrule.cricsheet" in modules
    for unused in ("rainrule.csv_log", "rainrule.leastsq", "rainrule.dl_reference",
                   "rainrule.fixtures", "rainrule.target_engine"):
        assert unused not in modules


def test_each_format_module_loads_only_where_its_format_is_read_or_written(tmp_path):
    write_corpus(synthetic_corpus(MatchFormat.T20I, 20, seed=3), tmp_path / "json")
    (tmp_path / "log").mkdir()
    code, _, modules = run_cli(tmp_path, "ingest", "--data-dir", "json",
                               "--export-csv", "log/balls.csv")
    assert code == 0 and FORMAT_MODULES <= modules
    # ingest left the JSON corpus its record cache, so reading it again decodes nothing;
    # the first stats on the log leaves it one, so the second decodes nothing either
    for source, loaded in (("json", set()), ("log", {"rainrule.csv_log"}), ("log", set())):
        code, _, modules = run_cli(tmp_path, "stats", "--data-dir", source, "--out", "out")
        assert code == 0 and modules & FORMAT_MODULES == loaded, source
    (tmp_path / "json" / ".rainrule-cache").unlink()
    code, _, modules = run_cli(tmp_path, "stats", "--data-dir", "json", "--out", "out")
    assert code == 0 and modules & FORMAT_MODULES == {"rainrule.cricsheet"}


@pytest.mark.parametrize("command, unused", [("stats", "rainrule.run_curves"),
                                             ("curves", "rainrule.score_stats")])
def test_batch_commands_load_no_target_engine(tmp_path, command, unused):
    code, _, modules = run_cli(tmp_path, command, "--fixture", "--out", "out")
    assert code == 0
    assert "rainrule.target_engine" not in modules and unused not in modules
    assert not modules & FORMAT_MODULES  # the fixture corpus is built in memory


def masked_array_modules(modules) -> set[str]:
    return {m for m in modules if m == "numpy.ma" or m.startswith("numpy.ma.")}


FITTING_COMMANDS = {
    "curves": ("curves", "--fixture", "--out", "out"),
    "compare": ("compare", "--fixture", "--scenario", str(fixture_path("example_scenario.json")),
                "--fits", str(fixture_path("example_fits.json")), "--out", "out"),
}


@pytest.mark.parametrize("command", FITTING_COMMANDS)
def test_fitting_commands_load_no_masked_arrays(tmp_path, command):
    # what ``import numpy`` alone loads of ``numpy.ma`` differs by release, so it is not counted
    numpy_alone = fresh_python("-c", "import sys, numpy; print(*sys.modules)", cwd=tmp_path)
    code, _, modules = run_cli(tmp_path, *FITTING_COMMANDS[command])
    assert code == 0
    assert masked_array_modules(modules) - set(numpy_alone.stdout.split()) == set()


# ingest reads a JSON corpus, so its reader and the record cache load, and writes a CSV log
BATCH_COMMANDS = {"ingest": ("ingest", "--data-dir", "data", "--export-csv", "balls.csv"),
                  "stats": ("stats", "--fixture", "--out", "out"), **FITTING_COMMANDS}


@pytest.mark.parametrize("command", BATCH_COMMANDS)
def test_batch_commands_load_no_dataclasses(tmp_path, command):
    # any release of numpy may load it itself, which the command is not charged for
    numpy_alone = fresh_python("-c", "import sys, numpy; print(*sys.modules)", cwd=tmp_path)
    write_corpus(synthetic_corpus(MatchFormat.T20I, 2, seed=3), tmp_path / "data")
    code, _, modules = run_cli(tmp_path, *BATCH_COMMANDS[command])
    assert code == 0
    assert "dataclasses" not in modules - set(numpy_alone.stdout.split())


def test_every_public_name_resolves_to_its_home():
    listed = dir(rainrule)
    for name in rainrule.__all__[:-1]:  # all but __version__
        home = import_module(f"rainrule.{rainrule._HOME_OF[name]}")
        assert getattr(rainrule, name) is getattr(home, name), name
        assert name in listed
    assert "__version__" in listed


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rainrule.no_such_name
    assert not hasattr(rainrule, "fit_dl_curves")


def test_root_imports_lazily_in_a_fresh_interpreter(tmp_path):
    probe = (
        "import sys, rainrule\n"
        "assert 'numpy' not in sys.modules, 'numpy on import'\n"
        "from rainrule import PolyFit, revise_target\n"
        "assert 'numpy' not in sys.modules, 'numpy for the decision path'\n"
        "from rainrule import dl_reference, fixtures, run_curves, score_stats, target_engine\n"
        "assert run_curves.PolyFit is PolyFit and target_engine.revise_target is revise_target\n"
        "assert callable(score_stats.fit_summary) and callable(run_curves.fit_summary)\n"
    )
    proc = fresh_python("-c", probe, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
