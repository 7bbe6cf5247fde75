"""Every CLI output byte against a checked-in manifest of SHA-256 digests.

The commands run in process from one temporary working directory, with
relative paths, so no absolute path reaches their stdout or stderr.  The
manifest holds the digest of every file they leave there, of each command's
stdout and stderr, and each command's exit code, with the Python and numpy
versions it was made with.

Rewrite the manifest only for a change meant to move outputs::

    PYTHONPATH=src python tests/test_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from rainrule.cli import main
from rainrule.fixtures import fixture_path
from rainrule.record_cache import CACHE_NAME

MANIFEST = Path(__file__).with_name("output_manifest.json")
_INPUTS = ("example_scenario.json", "example_fits.json")
_REVISE = "--scenario example_scenario.json --fits example_fits.json"

# the JSON corpus first, as its exported log is the input of the last four
COMMANDS = (
    "ingest --fixture --export-csv log/balls.csv",
    "ingest --fixture --until 2019-02-01",
    "ingest --fixture --format ipl",
    "stats --fixture --out fixture/stats",
    "curves --fixture --out fixture/curves",
    "curves --fixture --format ipl --innings 2 --degree 2 --out fixture/curves_ipl2",
    f"compare --fixture {_REVISE} --out fixture/compare",
    f"target {_REVISE}",
    f"target {_REVISE} --out target",
    "stats --data-dir log --out log_out/stats",
    "curves --data-dir log --out log_out/curves",
    "curves --data-dir log --format ipl --innings 2 --degree 2 --out log_out/curves_ipl2",
    f"compare --data-dir log {_REVISE} --out log_out/compare",
)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def run_from(root: Path, commands) -> dict[str, str | int]:
    """Each command's exit code and stdout and stderr digests, run from ``root`` beside
    copies of the inputs, then the digest of every file left there but the inputs and
    record caches."""
    found: dict[str, str | int] = {}
    for name in _INPUTS:
        shutil.copyfile(fixture_path(name), root / name)
    start = os.getcwd()
    os.chdir(root)
    try:
        for command in commands:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(command.split())
            found[f"{command}: exit"] = code
            found[f"{command}: stdout"] = _digest(stdout.getvalue().encode())
            found[f"{command}: stderr"] = _digest(stderr.getvalue().encode())
    finally:
        os.chdir(start)
    # a record cache's bytes follow the files it keeps, by design, and are no output
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name not in (*_INPUTS, CACHE_NAME):
            found[f"file {path.relative_to(root).as_posix()}"] = _digest(path.read_bytes())
    return found


def outputs() -> dict[str, str | int]:
    """Each command's exit code and stdout and stderr digests, then every file's digest."""
    with tempfile.TemporaryDirectory() as work:
        (Path(work) / "log").mkdir()  # export_csv writes into an existing directory
        return run_from(Path(work), COMMANDS)


def test_outputs_match_the_manifest():
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    expected, found = manifest["outputs"], outputs()
    moved = sorted(k for k in expected.keys() | found.keys() if expected.get(k) != found.get(k))
    made, now = (", ".join(f"{k} {v}" for k, v in d.items()) for d in (manifest["made_with"], versions()))
    assert not moved, (
        f"{len(moved)} outputs differ from the manifest made with {made}, here {now}:\n"
        + "\n".join(moved)
    )


def _gaps(log: bytes) -> bytes:
    """``log`` with a blank and a whitespace-only line in its middle, and no final newline."""
    lines = log.split(b"\n")[:-1]
    middle = len(lines) // 2
    return b"\n".join(lines[:middle] + [b"", b" \t"] + lines[middle:])


# every line layout the CSV reader reads as the exported log
LAYOUTS = {
    "crlf": lambda log: log.replace(b"\n", b"\r\n"),
    "cr": lambda log: log.replace(b"\n", b"\r"),
    "gaps": _gaps,
}
LOG_COMMANDS = (
    "stats --data-dir log --out out/stats",
    "curves --data-dir log --format ipl --innings 2 --degree 2 --out out/curves_ipl2",
    f"compare --data-dir log {_REVISE} --out out/compare",
)


@pytest.fixture(scope="module")
def exported_log(tmp_path_factory) -> tuple[bytes, dict[str, str | int]]:
    """The ``--fixture`` corpus's exported log, and what the commands make of it."""
    root = tmp_path_factory.mktemp("lf")
    (root / "log").mkdir()
    run_from(root, ["ingest --fixture --export-csv log/balls.csv"])
    found = run_from(root, LOG_COMMANDS)
    del found["file log/balls.csv"]
    return (root / "log" / "balls.csv").read_bytes(), found


@pytest.mark.parametrize("layout", LAYOUTS)
def test_every_csv_layout_writes_the_exported_logs_files(exported_log, tmp_path, layout):
    log, expected = exported_log
    relaid = LAYOUTS[layout](log)
    assert relaid != log
    (tmp_path / "log").mkdir()
    (tmp_path / "log" / "balls.csv").write_bytes(relaid)
    found = run_from(tmp_path, LOG_COMMANDS)
    del found["file log/balls.csv"]
    assert found == expected
    assert any(key.startswith("file out/compare/") for key in found)


if __name__ == "__main__":
    before = json.loads(MANIFEST.read_text(encoding="utf-8"))["outputs"] if MANIFEST.exists() else {}
    after = outputs()
    MANIFEST.write_text(
        json.dumps({"made_with": versions(), "outputs": after}, indent=2) + "\n", encoding="utf-8"
    )
    for key in sorted(before.keys() | after.keys()):
        if before.get(key) != after.get(key):
            print(f"moved: {key}")
    print(f"wrote {len(after)} entries to {MANIFEST}", file=sys.stderr)
