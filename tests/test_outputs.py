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

from rainrule.cli import main
from rainrule.fixtures import fixture_path

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


def outputs() -> dict[str, str | int]:
    """Each command's exit code and stdout and stderr digests, then every file's digest."""
    found: dict[str, str | int] = {}
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        root = Path(work)
        for name in _INPUTS:
            shutil.copyfile(fixture_path(name), root / name)
        (root / "log").mkdir()  # export_csv writes into an existing directory
        os.chdir(root)
        try:
            for command in COMMANDS:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(command.split())
                found[f"{command}: exit"] = code
                found[f"{command}: stdout"] = _digest(stdout.getvalue().encode())
                found[f"{command}: stderr"] = _digest(stderr.getvalue().encode())
        finally:
            os.chdir(start)
        for path in sorted(root.rglob("*")):
            if path.is_file() and path.name not in _INPUTS:
                found[f"file {path.relative_to(root).as_posix()}"] = _digest(path.read_bytes())
    return found


def test_outputs_match_the_manifest():
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    expected, found = manifest["outputs"], outputs()
    moved = sorted(k for k in expected.keys() | found.keys() if expected.get(k) != found.get(k))
    made, now = (", ".join(f"{k} {v}" for k, v in d.items()) for d in (manifest["made_with"], versions()))
    assert not moved, (
        f"{len(moved)} outputs differ from the manifest made with {made}, here {now}:\n"
        + "\n".join(moved)
    )


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
