"""Tests of the benchmark itself, run with ``python3 -m pytest perfbench``.

The tiny runs use corpora of a couple of dozen matches, so they check the
benchmark's plumbing and checkers, not rainrule's speed.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from rainrule import InterruptionScenario, PolyFit, revise_target, revision_to_json  # noqa: E402
from tracing import NullTracer  # noqa: E402
from workloads import IPL, ODI, T20I  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 5  # not the default seed, so no reference digests apply

TINY = {
    "json": dataclasses.replace(
        workloads.SPECS["target-revisions"],
        corpora=((ODI, 24), (T20I, 24)), target_calls=2, stream_len=40,
    ),
    "csv": dataclasses.replace(
        workloads.SPECS["t20-csv-roundtrip"],
        corpora=((T20I, 24), (IPL, 24)), target_calls=1, stream_len=40,
    ),
}


@pytest.fixture(scope="module")
def tiny_results():
    return {
        (kind, trace): bench.run_workload(spec, SEED, seconds=0, trace=trace)
        for kind, spec in TINY.items()
        for trace in (False, True)
    }


@pytest.mark.parametrize("kind", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_with_a_unit(tiny_results, kind, trace):
    result = tiny_results[(kind, trace)]
    assert result.failures == []
    wanted = CONFIG["per_layer" if trace else "end_to_end"]
    line = run.result_json(result, wanted)
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [entry["name"] for entry in wanted]
    for entry in wanted:
        metric = line["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert math.isfinite(metric["value"])
    json.loads(json.dumps(line))  # the line is plain JSON


def test_end_to_end_timings_are_never_zero(tiny_results):
    for kind in TINY:
        metrics = tiny_results[(kind, False)].metrics
        for entry in CONFIG["end_to_end"]:
            assert metrics[entry["name"]] > 0, entry["name"]


def test_same_seed_gives_the_same_corpus(tmp_path):
    spec = TINY["csv"]
    for name, seed in (("a", SEED), ("b", SEED), ("c", SEED + 1)):
        workloads.build_inputs(spec, seed, tmp_path / name, NullTracer())
    assert checks.tree_digest(tmp_path / "a") == checks.tree_digest(tmp_path / "b")
    assert checks.tree_digest(tmp_path / "a") != checks.tree_digest(tmp_path / "c")


def _session(tmp_path, references=None):
    return bench.Session(TINY["json"], SEED, tmp_path, launcher=None, references=references)


def _written(tmp_path) -> workloads.Step:
    out = tmp_path / "pass" / "curves"
    out.mkdir(parents=True)
    (out / "poly_odi_i1.json").write_text('{"fits": {}}\n')
    (out / "curve_odi_i1_w0.csv").write_text("ball,mean_score\n1,0.5\n")
    return workloads.Step("curves", "curves_s", (), out)


def test_a_tampered_output_file_is_flagged(tmp_path):
    session = _session(tmp_path)
    step = _written(tmp_path)
    session.verify_outputs(step.key, tmp_path / "pass", step, "CLI")
    session.verify_outputs(step.key, tmp_path / "pass", step, "CLI")
    assert session.failures == []
    (step.out / "curve_odi_i1_w0.csv").write_text("ball,mean_score\n1,0.6\n")
    session.verify_outputs(step.key, tmp_path / "pass", step, "CLI")
    assert len(session.failures) == 1 and "digest differs" in session.failures[0]


def test_a_reference_digest_mismatch_is_flagged(tmp_path):
    step = _written(tmp_path)
    files = sorted(p for p in step.out.iterdir())
    good = checks.files_digest(tmp_path / "pass", files)
    session = _session(tmp_path, references={"curves": good})
    session.verify_outputs(step.key, tmp_path / "pass", step, "CLI")
    assert session.failures == []
    (step.out / "poly_odi_i1.json").write_text('{"fits": {"0": {}}}\n')
    session.verify_outputs(step.key, tmp_path / "pass", step, "CLI")
    assert len(session.failures) == 1


FIT = PolyFit(a=-4.1e-6, b=0.0011, c=0.71, degree=3)
DOC = {"n": 120, "m": 180, "N": 300, "target_score": 275, "current_score": 100,
       "wickets": 4, "more_intervals": [[200, 230]]}


def _revision(doc):
    scenario = InterruptionScenario(
        n=doc["n"], m=doc["m"], N=doc["N"], target_score=doc["target_score"],
        current_score=doc["current_score"], wickets_at_stoppage=doc["wickets"],
        more_intervals=tuple(tuple(p) for p in doc["more_intervals"]),
    )
    return revision_to_json(revise_target(FIT, scenario))


def test_a_revised_total_off_by_one_is_flagged(tmp_path):
    expected = checks.expected_revision(FIT, DOC)
    assert expected is not None
    payload = _revision(DOC)
    assert expected.matches(payload)
    off = dict(payload, revised_total=payload["revised_total"] + 1,
               to_win=payload["to_win"] + 1)
    assert not expected.matches(off)
    session = _session(tmp_path)
    session.check_revision("revision", payload, expected)
    session.check_revision("revision", off, expected)
    assert len(session.failures) == 1 and "exact check" in session.failures[0]


def test_a_wrong_ratio_or_to_win_is_flagged():
    expected = checks.expected_revision(FIT, DOC)
    payload = _revision(DOC)
    assert not expected.matches(dict(payload, to_win=payload["revised_total"]))
    assert not expected.matches(dict(payload, ratio=payload["ratio"] * (1 + 1e-6)))


def test_exact_check_agrees_with_the_engine_on_many_scenarios():
    import numpy as np

    rng = np.random.default_rng(0)
    skipped = 0
    for _ in range(500):
        doc = workloads._scenario(rng, ODI, 300, [4], min_more=0)
        doc.setdefault("more_intervals", [])
        expected = checks.expected_revision(FIT, doc)
        if expected is None:
            skipped += 1
            continue
        assert expected.matches(_revision(doc)), doc
    assert skipped < 25


def test_an_exact_integer_is_skipped_not_judged():
    doc = dict(DOC, m=DOC["n"], more_intervals=[])  # nothing lost: ratio 1
    assert checks.expected_revision(FIT, doc) is None


def test_scenarios_fall_back_to_curves_revise_target_accepts():
    # a x^3 + b x^2 + c x on balls 1..120
    positive = PolyFit(a=0.0, b=0.0, c=1.0, degree=3)
    dips = PolyFit(a=-1e-4, b=0.0, c=1.0, degree=3)  # below zero after ball 100
    negative = PolyFit(a=0.0, b=0.0, c=-1.0, degree=3)
    family = workloads.Family(T20I, {0: positive, 1: dips, 2: negative})
    assert family.usable_states(120) == [0]
    family = workloads.Family(T20I, {1: dips, 2: negative})
    assert family.usable_states(120) == [1]


def test_a_nominal_time_scales_by_the_reference():
    call = bench.Call("ingest", "ingest_s", wall_s=0.6, ref_s=2 * bench.REFERENCE_S)
    assert call.nominal_s == pytest.approx(0.3)
    assert math.isnan(bench.Call("ingest", "ingest_s", wall_s=0.6).nominal_s)


def test_exits_without_a_result_where_there_is_no_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "odi-json-pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_spans_self_time_subtracts_children():
    from tracing import Tracer, self_seconds

    t = Tracer()
    with t.span("cli.curves"):
        with t.span("ball_log.load_corpus"):
            pass
        with t.span("run_curves.fit_poly"):
            pass
    own = self_seconds(t.spans)
    root, a, b = t.spans
    assert a.parent == root.span_id and b.parent == root.span_id
    assert own[root.span_id] == pytest.approx(root.seconds - a.seconds - b.seconds)
