"""Property tests: no input makes a reader or a command fail outside its contract.

* ``parse_match`` returns a ``MatchRecord`` or raises a ``RainRuleError``;
* ``load_corpus`` turns one malformed file into at most one diagnostic and
  still returns every good match;
* ``ingest``, ``stats`` and ``curves`` exit with 0, 2, 3 or 4, never with a
  traceback;
* ``target`` and ``compare --dl-table`` exit with 0, 2, 3 or 4, and print
  strict JSON (no ``NaN`` or ``Infinity``) when they succeed;
* each record that holds arrays, and ``DLCurve``, either refuses its input
  with ``ValueError`` or builds a record that keeps README's rules for it,
  whose derived values read without an error or a warning.

The malformed documents are ``tiny_odi.json``, or a scenario, fits or
resource-table file, with one node (or one CSV cell) replaced by an
arbitrary value.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from rainrule import (  # noqa: E402
    CSV_HEADER,
    DLCurve,
    ExtrasKind,
    Histogram,
    InningsRecord,
    InningsTrajectory,
    MatchFormat,
    MatchRecord,
    RainRuleError,
    ResourceTable,
    WicketCurve,
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


# ---------------------------------------------------------------------------
# the records

I64 = np.iinfo(np.int64)
# shapes of 0, 1 and 2 dimensions, empty ones too, mostly 1-D
ROWS = hnp.array_shapes(min_dims=1, max_dims=1, min_side=0, max_side=4)
SHAPES = ROWS | ROWS | hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -1.0, 100.0, 1e308, -1e308, np.inf, -np.inf, np.nan]
FLOATS = st.floats(-1e3, 1e3) | st.sampled_from(SPECIAL_FLOATS) | st.floats()


def ints(lo: int, hi: int, *outside: int):
    """int64 values: mostly from ``lo`` to ``hi``, else one of ``outside`` (the values
    just past each bound), the least or the most int64, or anywhere in int64."""
    inside = st.integers(lo, hi)
    edges = st.sampled_from([*outside, I64.min, I64.max])
    return st.one_of(inside, inside, inside, edges, st.integers(I64.min, I64.max))


@st.composite
def columns(draw, specs: dict[str, tuple]) -> dict[str, np.ndarray]:
    """An array for each name of ``specs``, of its (dtype, elements): all of one shape
    but for at most one column, which draws a shape of its own."""
    shape, odd = draw(SHAPES), draw(st.sampled_from([None] * len(specs) + list(specs)))
    return {
        name: draw(hnp.arrays(dtype, draw(SHAPES) if name == odd else shape, elements=values))
        for name, (dtype, values) in specs.items()
    }


def built(build, *args, **kwargs):
    """What ``build`` returns, or ``None`` where it raises ``ValueError``; any other
    error, and any warning, fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return build(*args, **kwargs)
        except ValueError:
            return None


def derived(record, *names) -> list:
    """Each named property of ``record``, once it compares equal to itself and has a
    repr, all with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert record == record
        repr(record)
        return [getattr(record, name) for name in names]


def one_length(*arrays) -> int:
    assert all(a.ndim == 1 for a in arrays) and len({a.size for a in arrays}) == 1
    return arrays[0].size


INDICES = ints(1, 2, 0, 3)
INNINGS_COLUMNS = {
    "over": (np.int64, ints(0, 1, -1, I64.max - 1)),
    "ball_in_over": (np.int64, ints(1, 3, 0, I64.max - 1)),
    "batter_runs": (np.int64, ints(0, 6, -1, 100, 101)),
    "extras_runs": (np.int64, ints(0, 2, -1, 100, 101)),
    "kind": (np.int64, ints(0, len(ExtrasKind) - 1, -1, len(ExtrasKind))),
    "wicket": (bool, st.booleans()),
}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(index=INDICES, cols=columns(INNINGS_COLUMNS))
@example(index=1, cols={"over": np.array([0, 0]), "ball_in_over": np.array([1, 2]),
                        "batter_runs": np.array([4, 0]), "extras_runs": np.array([0, 1]),
                        "kind": np.array([0, ExtrasKind.WIDE.code]),
                        "wicket": np.array([False, True])})
def test_an_innings_record_keeps_its_rules_or_refuses(index, cols):
    inn = built(InningsRecord, index, "X", **cols)
    if inn is None:
        return
    legal, deliveries = derived(inn, "legal", "deliveries")
    over, ball_in_over, runs, extras, kind = (inn.over, inn.ball_in_over, inn.batter_runs,
                                              inn.extras_runs, inn.kind)
    assert len(deliveries) == one_length(over, ball_in_over, runs, extras, kind, inn.wicket)
    assert index in (1, 2) and inn.wicket.dtype == bool
    assert all(c.dtype == np.int64 for c in (over, ball_in_over, runs, extras, kind))
    assert (over >= 0).all() and (ball_in_over >= 1).all()
    assert ((runs <= 100) & (extras <= 100) & (runs >= 0) & (extras >= 0)).all()
    assert ((kind >= 0) & (kind < len(ExtrasKind))).all() and (extras[~legal] >= 1).all()
    order = list(zip(over.tolist(), ball_in_over.tolist()))
    assert order == sorted(order) and inn.wicket.sum() <= 10


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    cols=columns({"runs": (np.int64, ints(0, 300, -1)), "wickets": (np.int64, ints(0, 10, 11))}),
    completed=ints(0, 4, -1, 5),
)
@example(cols={"runs": np.array([1, 3]), "wickets": np.array([0, 1])}, completed=2)
@example(cols={"runs": np.array([2]), "wickets": np.array([0])}, completed=0)
@example(cols={"runs": np.array([5, 3]), "wickets": np.array([0, 11])}, completed=2)
def test_a_trajectory_keeps_its_rules_or_refuses(cols, completed):
    traj = built(InningsTrajectory, completed_balls=completed, **cols)
    if traj is None:
        return
    ball, total, points = derived(traj, "ball", "total", "points")
    n = one_length(traj.runs, traj.wickets)
    assert n >= 1 and (completed == n or (n, completed) == (1, 0))
    assert ball.tolist() == list(range(1, n + 1)) and ball.dtype == np.int64
    assert total == traj.runs[-1] and len(points) == n
    runs, wickets = traj.runs, traj.wickets
    assert runs[0] >= 0 and (runs[1:] >= runs[:-1]).all()
    assert wickets[0] >= 0 and wickets[-1] <= 10 and (wickets[1:] >= wickets[:-1]).all()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    wickets=ints(0, 10, -1, 11),
    cols=columns({"balls": (np.int64, ints(1, 300, 0, 120, 121, 301)), "means": (float, FLOATS),
                  "support": (np.int64, ints(1, 5, 0))}),
    format=st.sampled_from(MatchFormat),
    index=INDICES,
)
@example(wickets=3, cols={"balls": np.array([1, 300]), "means": np.array([0.5, 250.0]),
                          "support": np.array([1, 4])}, format=MatchFormat.ODI, index=2)
def test_a_wicket_curve_keeps_its_rules_or_refuses(wickets, cols, format, index):
    curve = built(WicketCurve, wickets, format=format, innings_index=index, **cols)
    if curve is None:
        return
    derived(curve)
    balls = curve.balls
    assert len(curve) == one_length(balls, curve.means, curve.support)
    assert 0 <= wickets <= 10 and index in (1, 2)
    assert ((balls >= 1) & (balls <= format.scheduled_balls)).all() and (np.diff(balls) > 0).all()
    assert (curve.support >= 1).all() and np.isfinite(curve.means).all()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    width=FLOATS,
    lowest=FLOATS,
    counts=hnp.arrays(float, SHAPES, elements=FLOATS)
    | hnp.arrays(np.int64, SHAPES, elements=ints(0, 5, -1)),
)
@example(width=10.0, lowest=-20.0, counts=np.array([1, 0, 2]))
@example(width=0.5, lowest=80.0, counts=np.array([0.5, 2.25]))
def test_a_histogram_keeps_its_rules_or_refuses(width, lowest, counts):
    hist = built(Histogram, width, lowest, counts)
    if hist is None:
        return
    edges, centers, n_samples = derived(hist, "bin_lower_edges", "centers", "n_samples")
    assert one_length(hist.counts, edges, centers) == counts.size
    assert 0 < width < np.inf and np.isfinite(lowest)
    assert np.isfinite(hist.counts).all() and (hist.counts >= 0).all()
    assert np.isfinite(centers).all() and edges[:1].tolist() in ([], [lowest])
    assert n_samples >= 0


TABLE_SHAPES = st.tuples(st.integers(0, 3), st.sampled_from([10, 11, 11, 11, 12]))


@st.composite
def grids(draw) -> np.ndarray:
    """Percentages in a grid of about the table's shape or of any shape, at most one
    cell replaced by any float."""
    shape = draw(st.one_of(TABLE_SHAPES, TABLE_SHAPES, SHAPES))
    grid = draw(hnp.arrays(float, shape, elements=st.floats(0.0, 100.0)))
    if grid.size and draw(st.booleans()):
        grid.flat[draw(st.integers(0, grid.size - 1))] = draw(FLOATS | st.floats(-1.0, 101.0))
    return grid


@settings(derandomize=True, deadline=None, max_examples=300)
@given(grid=grids())
@example(grid=np.linspace(0.0, 100.0, 22).reshape(2, 11))
def test_a_resource_table_keeps_its_rules_or_refuses(grid):
    table = built(ResourceTable, grid)
    if table is None:
        return
    (max_overs,) = derived(table, "max_overs")
    assert grid.shape == (max_overs + 1, 11)
    cells = [[table.percentage(u, w) for w in range(11)] for u in range(max_overs + 1)]
    assert np.array_equal(cells, grid) and 0 <= grid.min() and grid.max() <= 100


@settings(derandomize=True, deadline=None, max_examples=300)
@given(w=ints(0, 10, -1, 11), z0=FLOATS, decay=FLOATS, rss=FLOATS)
@example(w=0, z0=280.0, decay=0.035, rss=0.0)
def test_a_dl_curve_keeps_its_rules_or_refuses(w, z0, decay, rss):
    curve = built(DLCurve, w, z0, decay, rss)
    if curve is None:
        return
    derived(curve)
    assert 0 <= w <= 10 and 0 < z0 < np.inf and 0 < decay < np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = curve.value(np.arange(MatchFormat.ODI.scheduled_overs + 1))
        assert curve.value(0) == 0.0
    assert ((values >= 0) & (values <= z0)).all()
