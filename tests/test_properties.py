"""Property tests: no input makes a reader or a command fail outside its contract.

* ``parse_match`` returns a ``MatchRecord`` or raises a ``RainRuleError``;
* ``load_corpus`` turns one malformed file into at most one diagnostic and
  still returns every good match;
* ``ingest``, ``stats`` and ``curves`` exit with 0, 2, 3 or 4, never with a
  traceback;
* ``target`` and ``compare --dl-table`` exit with 0, 2, 3 or 4, and print
  strict JSON (no ``NaN`` or ``Infinity``) when they succeed.

The malformed documents are ``tiny_odi.json``, or a scenario, fits or
resource-table file, with one node (or one CSV cell) replaced by an
arbitrary value.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rainrule import (  # noqa: E402
    CSV_HEADER,
    MatchFormat,
    MatchRecord,
    RainRuleError,
    fit_dl_family,
    load_corpus,
    parse_match,
    resource_table,
    resource_table_csv,
)
from rainrule.cli import main  # noqa: E402
from rainrule.fixtures import exponential_profile_corpus, fixture_path  # noqa: E402

GOOD_FILES = ("tiny_t20i.json", "tiny_ipl.json")
TINY_ODI = json.loads(fixture_path("tiny_odi.json").read_text())


def _node_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _node_paths(child, prefix + (key,))


def node_groups(doc, with_root: bool) -> list[list[tuple]]:
    """The node paths of ``doc`` grouped by path with list indices wildcarded,
    so that the few header fields are drawn as often as the many delivery fields."""
    groups: dict[tuple, list[tuple]] = {}
    for path in list(_node_paths(doc))[0 if with_root else 1:]:
        shape = tuple("*" if isinstance(key, int) else key for key in path)
        groups.setdefault(shape, []).append(path)
    return list(groups.values())


# keys the readers look up, so that replaced objects sometimes half-match
KEYS = st.sampled_from(
    ["info", "dates", "teams", "event", "name", "innings", "overs", "over",
     "deliveries", "runs", "batter", "extras", "wides", "wickets", "kind",
     "fits", "4", "a", "b", "c", "degree", "n", "m", "N", "more_intervals"]
) | st.text(max_size=6)

# integers past 64 bits get their own branch: run counts end up in numpy's
# fixed-width arrays, and unbounded draws rarely go that far
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63)
    | st.floats()
    | st.text(max_size=12)
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(KEYS, children, max_size=3),
    max_leaves=8,
)


def mutated(path: tuple, value, original=TINY_ODI) -> str:
    if not path:
        return json.dumps(value)
    doc = copy.deepcopy(original)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(doc)


@st.composite
def mutated_documents(draw, original=TINY_ODI, with_root=False) -> str:
    groups = node_groups(original, with_root)
    path = draw(st.sampled_from(groups).flatmap(st.sampled_from))
    return mutated(path, draw(JSON_VALUES), original)


def assert_parses_or_raises_rainrule_error(data) -> None:
    try:
        record = parse_match(data)
    except RainRuleError:
        return
    assert isinstance(record, MatchRecord)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    st.binary()
    | st.text()
    | st.text().map(lambda t: "{" + t)
    | st.text().map(lambda t: CSV_HEADER + "\n" + t)
)
def test_any_bytes_or_text_parse_or_raise_rainrule_error(data):
    assert_parses_or_raises_rainrule_error(data)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(mutated_documents())
def test_any_mutated_document_parses_or_raises_rainrule_error(text):
    assert_parses_or_raises_rainrule_error(text)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutated_corpus")
    for name in GOOD_FILES:
        (root / name).write_bytes(fixture_path(name).read_bytes())
    return root


@settings(derandomize=True, deadline=None, max_examples=150)
@given(text=mutated_documents())
def test_one_mutated_file_is_at_most_one_diagnostic(corpus_dir, text):
    (corpus_dir / "mutant.json").write_text(text, encoding="utf-8")
    corpus = load_corpus(corpus_dir)
    ids = {m.match_id for m in corpus}
    assert {"tiny_ipl", "tiny_t20i"} <= ids <= {"tiny_ipl", "tiny_t20i", "mutant"}
    assert [d.source for d in corpus.diagnostics] in ([], ["mutant.json"])


COMMANDS = [
    ["ingest"],
    ["stats"],
    ["curves", "--min-support", "1"],
    ["curves", "--format", "t20i", "--innings", "2", "--min-support", "1"],
]


RUNAWAY_BATTER = ("innings", 0, "overs", 0, "deliveries", 0, "runs", "batter")


@settings(derandomize=True, deadline=None, max_examples=150)
@given(text=mutated_documents(), command=st.sampled_from(COMMANDS))
# a delivery of 2**64 runs: past the run bound of one delivery, so the
# document is one diagnostic and the command runs on the other files
@example(text=mutated(RUNAWAY_BATTER, 2**64), command=["curves", "--min-support", "1"])
@example(text=mutated(RUNAWAY_BATTER, 2**64), command=["stats"])
def test_commands_exit_with_a_documented_code(corpus_dir, text, command):
    (corpus_dir / "mutant.json").write_text(text, encoding="utf-8")
    out = corpus_dir.parent / f"{corpus_dir.name}_out"
    argv = command + ["--data-dir", str(corpus_dir)]
    if command[0] != "ingest":
        argv += ["--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4)


SCENARIO = json.loads(fixture_path("example_scenario.json").read_text())
SINGLE_FIT = json.loads(fixture_path("example_fits.json").read_text())
FAMILY = {
    "format": "odi",
    "innings": 2,
    "degree": 3,
    "fits": {
        "3": {"a": -0.0029, "b": 1.01, "c": 0.2, "degree": 3},
        "4": SINGLE_FIT,
        "5": {"a": 0.0, "b": 0.0004, "c": 0.55, "degree": 2},
    },
}
TABLE = resource_table_csv(
    resource_table(
        fit_dl_family(exponential_profile_corpus(MatchFormat.ODI), MatchFormat.ODI, min_support=1),
        MatchFormat.ODI.scheduled_overs,
    )
)
# a replacement cell: numbers of every size and kind, or any text
CELLS = st.floats().map(repr) | st.integers().map(str) | st.text(max_size=8)


@st.composite
def mutated_tables(draw) -> str:
    rows = [line.split(",") for line in TABLE.splitlines()]
    row = draw(st.sampled_from(rows))
    row[draw(st.integers(0, len(row) - 1))] = draw(CELLS)
    return "\n".join(",".join(r) for r in rows) + "\n"


@st.composite
def decision_inputs(draw) -> dict[str, str]:
    """A scenario, a fits file (one fit or a family) and a table, one of them mutated."""
    fits = draw(st.sampled_from([SINGLE_FIT, FAMILY]))
    files = {
        "scenario.json": json.dumps(SCENARIO),
        "fits.json": json.dumps(fits),
        "table.csv": TABLE,
    }
    name = draw(st.sampled_from(sorted(files)))
    if name == "scenario.json":
        files[name] = draw(mutated_documents(SCENARIO, with_root=True))
    elif name == "fits.json":
        files[name] = draw(mutated_documents(fits, with_root=True))
    else:
        files[name] = draw(mutated_tables())
    return files


def strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-finite number {constant} in the output")

    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def decision_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("decision")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(files=decision_inputs(), command=st.sampled_from(["target", "compare"]))
def test_decision_commands_exit_with_a_documented_code(decision_dir, files, command):
    for name, text in files.items():
        (decision_dir / name).write_text(text, encoding="utf-8")
    argv = [command, "--scenario", str(decision_dir / "scenario.json"),
            "--fits", str(decision_dir / "fits.json")]
    if command == "compare":
        argv += ["--dl-table", str(decision_dir / "table.csv")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if code == 0:
        strict_json(out.getvalue())
