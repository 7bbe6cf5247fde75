"""Runs one workload: set-up, measured passes or traced rounds, checks.

Set-up builds and writes the workload's inputs ``SETUP_ROUNDS`` times and
then makes one untimed warm-up pass; ``setup_s`` is the median build time
plus the warm-up time.  An untraced run then repeats the workload's pass
until ``seconds`` have gone by and reports the end-to-end metrics, its
timings scaled to a nominal machine speed (see ``Call.nominal_s``).  A
traced run sets up the same way, then repeats a round of an untraced
in-process replay, a traced replay, a CLI pass and the layer probes, and
reports the per-layer metrics.

Every CLI call's output files are digested.  With reference digests (the
default seed) each digest must equal its reference; otherwise it must
equal the digest of the first call with the same key in the run.  A
failure is a non-zero exit, a digest mismatch or a revision that fails
the exact check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from rainrule import RainRuleError, revise_target, revision_to_json, scenario_from_json

import checks
import reference
import replay
import workloads
from tracing import NullTracer, Tracer, self_seconds_by_layer
from workloads import Family, Spec, Step

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_ROUNDS = 3
# what the reference child (reference.py) and the in-process reference
# (reference.spin) take at the nominal machine speed
REFERENCE_S = 0.22
SPIN_NS = 700_000
SETUP_SPINS = 15  # spins before and after each corpus build
TRACED_STREAM = 2000  # scenarios per traced stream replay
IMPORT_SAMPLES = 3
PIPELINE = ("ingest_s", "stats_s", "curves_s", "compare_s")
LAYERS = ("ball_log", "score_stats", "run_curves", "dl_reference", "target_engine", "cli")
_IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import rainrule.cli; "
    "print(time.perf_counter() - start)"
)


class Launcher:
    """The small process that runs CLI children (see launcher.py)."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> dict:
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass(frozen=True)
class Call:
    """One CLI call of a pass; ``ref_s`` is the mean wall time of the
    reference child runs just before and just after it."""

    key: str
    metric: str
    wall_s: float
    ref_s: float | None = None

    @property
    def nominal_s(self) -> float:
        """The wall time at the nominal machine speed.

        The machine's speed drifts by up to about 1.6x over seconds to
        minutes, which moves wall times by a quarter between runs of the
        same code.  The reference child drifts with the machine but not
        with rainrule, and running it on both sides of the call measures
        the speed the call saw.
        """
        return self.wall_s * REFERENCE_S / self.ref_s if self.ref_s else math.nan


@dataclass
class PassRecord:
    """What one pass measured."""

    calls: list[Call] = field(default_factory=list)
    maxrss_kib: list[int] = field(default_factory=list)
    # each in-process revision at the nominal speed, its pool index, and
    # each chunk's revisions per second at the nominal speed
    revise_ns: list[float] = field(default_factory=list)
    revise_scenario: list[int] = field(default_factory=list)
    revise_chunks: list[float] = field(default_factory=list)
    revise_raw_ns: list[int] = field(default_factory=list)  # as measured
    reference_s: list[float] = field(default_factory=list)
    complete: bool = False

    @property
    def cli_by_key(self) -> dict[str, float]:
        """Wall time of each call, as measured."""
        return {c.key: c.wall_s for c in self.calls}

    def seconds(self, metric: str, nominal: bool = True) -> list[float]:
        """Time of each call that adds to ``metric``."""
        return [c.nominal_s if nominal else c.wall_s for c in self.calls if c.metric == metric]


@dataclass
class Result:
    metrics: dict[str, float]
    lines: list[str]
    attempted: int
    failed: int
    failures: list[str]
    digests: dict[str, str]


class Session:
    """State of one run: the launcher, digests, scenarios and the tally."""

    def __init__(self, spec: Spec, seed: int, work: Path, launcher: Launcher,
                 references: dict[str, str] | None):
        self.spec = spec
        self.seed = seed
        self.work = work
        self.launcher = launcher
        self.references = references
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.skipped = 0
        self.scenario_dir = work / "scenarios"
        self.scenarios = None
        self.families: list[Family] | None = None

    # -- tally and checks ---------------------------------------------------

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def verify(self, key: str, digest: str) -> bool:
        first = self.seen.setdefault(key, digest)
        return digest == (first if self.references is None else self.references.get(key))

    def verify_outputs(self, key: str, root: Path, step: Step, what: str) -> None:
        files = [p for p in step.out.rglob("*") if p.is_file()] if step.out.is_dir() else []
        digest = checks.files_digest(root, files + list(step.extra_outputs))
        if not self.verify(key, digest):
            self.fail(f"{what} {key}: output digest differs")

    def check_revision(self, what: str, payload: dict, expected) -> None:
        if expected is None:
            self.skipped += 1
        elif not expected.matches(payload):
            self.fail(f"{what}: revision {payload} fails the exact check, expected {expected}")

    # -- CLI ----------------------------------------------------------------

    def cli(self, step: Step, pass_dir: Path) -> dict | None:
        """Run one CLI call and check its outputs; None if it failed."""
        self.attempted += 1
        logs = pass_dir / "_logs"
        logs.mkdir(parents=True, exist_ok=True)
        for extra in step.extra_outputs:
            extra.parent.mkdir(parents=True, exist_ok=True)
        reply = self.launcher.run(
            [sys.executable, "-m", "rainrule.cli", *step.argv],
            logs / f"{step.key}.out", logs / f"{step.key}.err",
        )
        if reply["exit"] != 0:
            err = (logs / f"{step.key}.err").read_text(encoding="utf-8", errors="replace")
            self.fail(f"CLI {step.key}: exit {reply['exit']}: {err.strip()[-300:]}")
            return None
        before = len(self.failures)
        self.verify_outputs(step.key, pass_dir, step, "CLI")
        return reply if len(self.failures) == before else None

    def reference(self, pass_dir: Path) -> float | None:
        """Run the reference program once; its wall time, or None if it failed."""
        self.attempted += 1
        logs = pass_dir / "_logs"
        logs.mkdir(parents=True, exist_ok=True)
        reply = self.launcher.run(
            [sys.executable, str(HERE / "reference.py")],
            logs / "reference.out", logs / "reference.err",
        )
        if reply["exit"] != 0:
            self.fail(f"reference program: exit {reply['exit']}")
            return None
        return reply["wall_s"]

    # -- scenarios ----------------------------------------------------------

    def ensure_scenarios(self, pass_dir: Path) -> None:
        """Keep the run's first families and draw its scenarios from them."""
        if self.scenarios is not None:
            return
        families = _load_families(self.spec, pass_dir)
        s = workloads.make_scenarios(self.spec, self.seed, families)
        s.write(self.scenario_dir)
        fits = {f.format.value: f.fits for f in families}
        self.pool_expected = [
            checks.expected_revision(fits[d["format"]][d["wickets"]], d) for d in s.pool
        ]
        self.compare_expected = checks.expected_revision(
            families[0].fits[s.compare["wickets"]], s.compare
        )
        self.target_expected = [
            checks.expected_revision(families[i % len(families)].fits[d["wickets"]], d)
            for i, d in enumerate(s.targets)
        ]
        self.scenarios = s
        self.families = families


def _load_families(spec: Spec, pass_dir: Path) -> list[Family]:
    return [Family.load(p) for p in workloads.family_paths(spec, pass_dir)]


def _spin_ns() -> int:
    start = time.perf_counter_ns()
    reference.spin()
    return time.perf_counter_ns() - start


def _speed() -> float:
    """Nominal over current machine speed, from a few in-process spins."""
    return SPIN_NS / checks.median([_spin_ns() for _ in range(SETUP_SPINS)])


class Stream:
    """One pass's closed loop of in-process revisions, one scenario after
    another, run in chunks between the CLI calls so that its samples span
    the pass.  It uses the families of the run's first ``curves`` calls,
    which every later pass reproduces byte for byte.

    The in-process reference (``reference.spin``) is timed just before and
    just after each chunk, and the chunk's times are scaled to the nominal
    machine speed, where it takes ``SPIN_NS``."""

    def __init__(self, session: Session, n: int):
        self.session = session
        self.left = n
        self.next = 0
        self.durations: list[float] = []
        self.raw: list[int] = []
        self.indices: list[int] = []
        self.chunk_rates: list[float] = []

    def run(self, count: int) -> None:
        session = self.session
        if session.families is None:
            return  # the warm-up pass before its curves calls
        fits = {f.format.value: f.fits for f in session.families}
        pool, expected = session.scenarios.pool, session.pool_expected
        count = min(count, self.left)
        self.left -= count
        session.attempted += count
        chunk: list[int] = []
        before = _spin_ns()
        for i in range(self.next, self.next + count):
            doc = pool[i % len(pool)]
            start = time.perf_counter_ns()
            try:
                scenario = scenario_from_json(doc)
                fit = fits[doc["format"]][scenario.wickets_at_stoppage]
                out = revision_to_json(revise_target(fit, scenario))
            except (RainRuleError, KeyError) as e:
                session.fail(f"revision {i}: {type(e).__name__}: {e}")
                continue
            chunk.append(time.perf_counter_ns() - start)
            self.indices.append(i % len(pool))
            # checked at once: outputs kept alive would slow the garbage
            # collector and so the later revisions
            session.check_revision(f"revision {i}", out, expected[i % len(pool)])
        scale = SPIN_NS / ((before + _spin_ns()) / 2)
        self.next += count
        self.raw.extend(chunk)
        self.durations.extend(ns * scale for ns in chunk)
        if chunk:
            self.chunk_rates.append(len(chunk) / (sum(chunk) * scale / 1e9))

    def finish(self, rec: PassRecord) -> None:
        self.run(self.left)
        rec.revise_ns.extend(self.durations)
        rec.revise_raw_ns.extend(self.raw)
        rec.revise_scenario.extend(self.indices)
        rec.revise_chunks.extend(self.chunk_rates)


def run_pass(session: Session, corpus_dir: Path, pass_dir: Path,
             reference: bool = False) -> PassRecord:
    """One pass of the workload through the CLI with the in-process stream
    interleaved; a failed batch step ends the pass.  With ``reference``
    the reference child runs before the first CLI call and after every
    call, so that each call has one just before and one just after it."""
    spec = session.spec
    rec = PassRecord()
    batch = workloads.batch_steps(spec, corpus_dir, pass_dir)
    decision = workloads.decision_steps(spec, corpus_dir, pass_dir, session.scenario_dir)
    stream = Stream(session, spec.stream_len)
    chunk = math.ceil(spec.stream_len / (len(batch) + len(decision)))
    ok = True
    ref_before = session.reference(pass_dir) if reference else None
    if ref_before is not None:
        rec.reference_s.append(ref_before)
    for step in batch + decision:
        if step is decision[0]:
            if not ok:
                session.fail(f"pass {pass_dir.name} stopped before compare: a batch step failed")
                return rec
            session.ensure_scenarios(pass_dir)
        reply = session.cli(step, pass_dir)
        ok = ok and reply is not None
        ref_after = session.reference(pass_dir) if reference else None
        if reply is not None:
            refs = [r for r in (ref_before, ref_after) if r is not None]
            ref_s = sum(refs) / len(refs) if refs else None
            rec.calls.append(Call(step.key, step.metric, reply["wall_s"], ref_s))
            rec.maxrss_kib.append(reply["maxrss_kib"])
            if step in decision:
                _check_decision(session, step)
        if ref_after is not None:
            rec.reference_s.append(ref_after)
        ref_before = ref_after
        stream.run(chunk)
    stream.finish(rec)
    rec.complete = ok
    return rec


def _check_decision(session: Session, step: Step) -> None:
    if step.key == "compare":
        doc = json.loads((step.out / "comparison.json").read_text(encoding="utf-8"))
        session.check_revision("CLI compare", doc["area_ratio"], session.compare_expected)
    else:
        doc = json.loads((step.out / "revision.json").read_text(encoding="utf-8"))
        i = int(step.key.split(".")[1])
        session.check_revision(f"CLI {step.key}", doc, session.target_expected[i])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("RAINRULE_DATA_DIR", None)
    return env


# ---------------------------------------------------------------------------
# end-to-end metrics


def _describe(name: str, values: list[float], unit: str, value: float, how: str) -> str:
    line = f"  {name:<18} {value:>14.6g} {unit:<6} {how} of n={len(values)}"
    tail = checks.tail_percentile(len(values))
    if tail is not None:
        line += f", p{tail:g} = {checks.percentile(values, tail):.6g}"
    if len(values) > 1:
        line += f", min {min(values):.6g}, max {max(values):.6g}"
    return line


def end_to_end(setup_s: list[float], passes: list[PassRecord]):
    """The CLI and in-process timings are at the nominal machine speed (see
    ``Call.nominal_s`` and ``Stream``); the table also shows their medians
    as measured.  Set-up is as measured."""
    metrics: dict[str, float] = {}
    lines: list[str] = []

    def put(name, values, unit, how="median", value=None, measured=None):
        if not values:
            return
        metrics[name] = checks.median(values) if value is None else value
        line = _describe(name, values, unit, metrics[name], how)
        if measured is not None:
            line += f"; as measured {measured:.6g}"
        lines.append(line)

    done = [p for p in passes if p.complete]
    refs = [r for p in passes for r in p.reference_s]
    if refs:
        lines.append(_describe("(reference_s)", refs, "s", checks.median(refs), "median"))
    put("setup_s", setup_s, "s")

    def pipeline(p: PassRecord, names, nominal=True) -> float:
        return sum(sum(p.seconds(m, nominal)) for m in names)

    for name in PIPELINE + ("pipeline_s",):
        names = PIPELINE if name == "pipeline_s" else (name,)
        put(name, [pipeline(p, names) for p in done], "s",
            measured=checks.median([pipeline(p, names, False) for p in done]) if done else None)
    rss = [kib / 1024 for p in passes for kib in p.maxrss_kib]
    put("peak_rss_mb", rss, "MiB", "max", max(rss) if rss else None)
    # in-process revisions, every one of the run pooled
    rates = [r for p in done for r in p.revise_chunks]
    put("revisions_per_s", rates, "1/s", "median over chunks")
    calls = [ns / 1e3 for p in done for ns in p.revise_ns]
    if calls:
        raw = [ns / 1e3 for p in done for ns in p.revise_raw_ns]
        put("revise_p50_us", calls, "us", "p50", checks.percentile(calls, 50),
            measured=checks.percentile(raw, 50))
        # The slowest one per cent of calls is mostly the machine's jitter
        # (interrupts, the CLI child just gone), which moves that p99 by a
        # third from run to run.  The slowest one per cent of scenarios is
        # the program's: each pool scenario runs many times per run, so
        # take each one's median time, then the p99 over scenarios.
        by_scenario = defaultdict(list)
        for p in done:
            for i, ns in zip(p.revise_scenario, p.revise_ns):
                by_scenario[i].append(ns / 1e3)
        typical = [checks.median(v) for v in by_scenario.values()]
        put("revise_p99_us", typical, "us", "p99 over scenarios of each one's median",
            checks.percentile(typical, 99))
        lines.append(
            f"  {'(revise_us)':<18} {checks.percentile(calls, 99):>14.6g} us     "
            f"p99 of all n={len(calls)} calls; as measured {checks.percentile(raw, 99):.6g}"
        )
    targets = [t * 1e3 for p in done for t in p.seconds("target_cli_ms")]
    put("target_cli_ms", targets, "ms", measured=checks.median(
        [t * 1e3 for p in done for t in p.seconds("target_cli_ms", False)]) if targets else None)
    return metrics, lines


# ---------------------------------------------------------------------------
# traced rounds and per-layer metrics


def replay_pass(session: Session, t, corpus_dir: Path, pass_dir: Path, label: str):
    """Replay a whole pass in process; returns seconds per step key and facts."""
    spec = session.spec
    csv = spec.csv_roundtrip
    data = workloads.data_dir(spec, corpus_dir, pass_dir)
    seconds: dict[str, float] = {}
    facts: dict = {}

    def timed(key, fn, *args):
        t.run_id = f"{label}.{key}"
        start = time.perf_counter()
        result = fn(t, *args)
        seconds[key] = time.perf_counter() - start
        return result

    export = pass_dir / "csv" / "balls.csv" if csv else None
    facts["corpus"] = timed("ingest", replay.replay_ingest, corpus_dir, export)
    timed("stats", replay.replay_stats, data, pass_dir / "stats", csv)
    facts["curves"] = []
    for c in spec.curves:
        key = spec.curves_key(c)
        facts["curves"].append(
            (c, *timed(key, replay.replay_curves, data, pass_dir / key, c, csv))
        )
    fits_paths = workloads.family_paths(spec, pass_dir)
    facts["dl_family"] = timed(
        "compare", replay.replay_compare, data, pass_dir / "compare",
        session.scenario_dir / "compare.json", fits_paths[0], spec.compare, csv,
    )
    for i in range(spec.target_calls):
        timed(
            f"target.{i}", replay.replay_target, session.scenario_dir / f"target_{i}.json",
            fits_paths[i % len(fits_paths)], pass_dir / f"target.{i}",
        )
    fits = {f.format.value: f.fits for f in _load_families(spec, pass_dir)}
    docs = session.scenarios.pool[:TRACED_STREAM]
    outputs = timed("stream", replay.replay_stream, docs, fits)
    facts["stream"] = outputs
    return seconds, facts


def _durations(spans, name: str) -> list[float]:
    return [s.seconds for s in spans if s.name == name]


def _sum(spans, name: str) -> float:
    return sum(_durations(spans, name))


def _median(spans, name: str) -> float:
    values = _durations(spans, name)
    return checks.median(values) if values else float("nan")


def traced_round(session: Session, tracer: Tracer, corpus_dir: Path, rdir: Path,
                 index: int) -> dict[str, float]:
    spec = session.spec
    label = f"r{index}"
    plain, _ = replay_pass(session, NullTracer(), corpus_dir, rdir / "plain", label)
    mark = len(tracer.spans)
    traced, facts = replay_pass(session, tracer, corpus_dir, rdir / "traced", label)
    spans = tracer.spans[mark:]

    # the replay wrote what the CLI writes
    traced_dir = rdir / "traced"
    steps = workloads.batch_steps(spec, corpus_dir, traced_dir) + workloads.decision_steps(
        spec, corpus_dir, traced_dir, session.scenario_dir
    )
    for step in steps:
        session.attempted += 1
        session.verify_outputs(step.key, traced_dir, step, "replay")
    for i, out in enumerate(facts["stream"]):
        session.check_revision(f"replayed revision {i}", out, session.pool_expected[i])

    cli = run_pass(session, corpus_dir, rdir / "cli")

    mark = len(tracer.spans)
    tracer.run_id = f"{label}.probe"
    corpus = facts["corpus"]
    with tracer.span("bench.probe"):
        replay.probe_parse(tracer, corpus_dir)
        for c, curves_corpus, _ in facts["curves"]:
            replay.probe_trajectories(tracer, curves_corpus, c)
        fmt = spec.compare.scenario_format
        replay.probe_resource_fits(tracer, corpus, fmt)
        if not spec.csv_roundtrip:
            replay.probe_csv(tracer, corpus, rdir / "probe_csv" / "balls.csv")
    probes = tracer.spans[mark:]
    both = spans + probes

    imports = []
    for i in range(IMPORT_SAMPLES):
        out = rdir / f"import{i}.out"
        reply = session.launcher.run(
            [sys.executable, "-c", _IMPORT_PROBE], out, out.with_suffix(".err")
        )
        session.attempted += 1
        if reply["exit"] != 0:
            session.fail(f"importing rainrule.cli: exit {reply['exit']}")
            continue
        imports.append(float(out.read_text()))

    m: dict[str, float] = {}
    m["ball_log.load_corpus_s"] = _median(both, "ball_log.load_corpus")
    m["ball_log.json_decode_s"] = _sum(probes, "ball_log.json_decode")
    m["ball_log.record_build_s"] = (
        _sum(probes, "ball_log.parse_match") - m["ball_log.json_decode_s"]
    )
    m["ball_log.load_corpus_csv_s"] = _median(both, "ball_log.load_corpus_csv")
    m["ball_log.export_csv_s"] = _median(both, "ball_log.export_csv")
    parsed = len(corpus)
    kept = sum(len(cc) for _, cc, _ in facts["curves"])
    m["ball_log.format_kept_ratio"] = kept / (parsed * len(facts["curves"]))
    m["ball_log.trajectory_s"] = _sum(probes, "ball_log.trajectory")
    m["run_curves.wicket_curve_family_s"] = _sum(spans, "run_curves.wicket_curve")
    m["run_curves.curve_pass_ratio"] = (
        m["run_curves.wicket_curve_family_s"] / m["ball_log.trajectory_s"]
    )
    m["dl_reference.remaining_run_means_s"] = _sum(probes, "dl_reference.remaining_run_means")
    m["dl_reference.fit_dl_family_s"] = _sum(spans, "dl_reference.fit_dl_family")
    m["score_stats.totals_s"] = _sum(spans, "score_stats.totals")
    m["score_stats.build_histogram_ms"] = _sum(spans, "score_stats.build_histogram") * 1e3
    m["score_stats.fit_normal_ms"] = _sum(spans, "score_stats.fit_normal") * 1e3
    m["dl_reference.fit_dl_curve_ms"] = _sum(probes, "dl_reference.fit_dl_curve") * 1e3
    m["run_curves.fit_poly_us"] = _median(spans, "run_curves.fit_poly") * 1e6
    m["dl_reference.resource_table_us"] = _median(spans, "dl_reference.resource_table") * 1e6
    for call in ("scenario_from_json", "resource_ratio", "revise_target", "revision_to_json"):
        m[f"target_engine.{call}_us"] = _median(spans, f"target_engine.{call}") * 1e6
    m["cli.import_s"] = checks.median(imports) if imports else float("nan")
    if cli.complete:
        by_key = cli.cli_by_key
        for cmd in ("ingest", "stats", "compare"):
            m[f"cli.overhead_{cmd}_s"] = by_key[cmd] - plain[cmd]
        curves_keys = [spec.curves_key(c) for c in spec.curves]
        m["cli.overhead_curves_s"] = sum(by_key[k] - plain[k] for k in curves_keys)
        targets = [f"target.{i}" for i in range(spec.target_calls)]
        cli_target = checks.median([by_key[k] for k in targets])
        m["cli.overhead_target_s"] = cli_target - checks.median([plain[k] for k in targets])
    m["ball_log.matches"] = parsed
    m["ball_log.deliveries"] = sum(len(i.deliveries) for match in corpus for i in match.innings)
    m["ball_log.bytes_read"] = sum(p.stat().st_size for p in corpus_dir.iterdir())
    m["ball_log.files_failed"] = len(corpus.diagnostics)
    m["run_curves.states_fitted"] = sum(n for _, _, n in facts["curves"])
    m["dl_reference.states_fitted"] = len(facts["dl_family"].curves)
    own = self_seconds_by_layer(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = own.get(layer, 0.0)
    m["bench.trace_overhead_s"] = sum(traced.values()) - sum(plain.values())
    if index == 0:
        m["ball_log.load_corpus_alloc_mb"] = replay.load_corpus_alloc_mib(corpus_dir)
    return m


def per_layer(spans, rounds: list[dict[str, float]]):
    metrics: dict[str, float] = {}
    names = sorted({k for r in rounds for k in r})
    for name in names:
        values = [r[name] for r in rounds if name in r]
        metrics[name] = checks.median(values)
    for call in ("synthetic_corpus", "write_corpus"):
        per_round = defaultdict(float)
        for s in spans:
            if s.name == f"fixtures.{call}":
                per_round[s.run_id] += s.seconds
        metrics[f"fixtures.{call}_s"] = checks.median(list(per_round.values()))
    lines = [f"  {name:<40} {metrics[name]:>14.6g}" for name in sorted(metrics)]
    lines.append(f"  (median over {len(rounds)} traced round(s))")
    return metrics, lines


# ---------------------------------------------------------------------------


def run_workload(spec: Spec, seed: int, seconds: float, trace: bool,
                 references: dict[str, str] | None = None,
                 trace_file: Path | None = None) -> Result:
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=WORK_ROOT))
    tracer = Tracer() if trace else NullTracer()
    launcher = Launcher(child_env())
    try:
        session = Session(spec, seed, work, launcher, references)
        builds, nominal_builds = [], []
        for r in range(SETUP_ROUNDS):
            corpus_dir = work / f"corpus{r}"
            tracer.run_id = f"setup{r}"
            speed = _speed()
            start = time.perf_counter()
            workloads.build_inputs(spec, seed, corpus_dir, tracer)
            builds.append(time.perf_counter() - start)
            nominal_builds.append(builds[-1] * (speed + _speed()) / 2)
            session.attempted += 1
            if not session.verify("corpus", checks.tree_digest(corpus_dir)):
                session.fail(f"set-up {r}: corpus digest differs for the same seed")
            if r:
                shutil.rmtree(corpus_dir)
        corpus_dir = work / "corpus0"
        # the untimed warm-up pass fills caches and draws the scenarios;
        # its cost is its CLI calls and in-process revisions
        start = time.perf_counter()
        rec = run_pass(session, corpus_dir, work / "warmup", reference=not trace)
        warmup = time.perf_counter() - start
        shutil.rmtree(work / "warmup")
        nominal_warmup = sum(c.nominal_s for c in rec.calls) + sum(rec.revise_ns) / 1e9
        setup_s = [b + nominal_warmup for b in nominal_builds]

        # start another pass only if it should end by about ``seconds``
        start = time.perf_counter()
        measured = []
        last = 0.0
        while not measured or time.perf_counter() - start + last / 2 < seconds:
            began = time.perf_counter()
            pdir = work / f"pass{len(measured)}"
            if trace:
                measured.append(traced_round(session, tracer, corpus_dir, pdir, len(measured)))
            else:
                measured.append(run_pass(session, corpus_dir, pdir, reference=True))
            shutil.rmtree(pdir)
            last = time.perf_counter() - began
        elapsed = time.perf_counter() - start

        if trace:
            metrics, lines = per_layer(tracer.spans, measured)
            if trace_file is not None:
                tracer.dump(trace_file)
        else:
            metrics, lines = end_to_end(setup_s, measured)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = session.attempted, len(session.failures)
    kind = "traced rounds" if trace else "passes"
    head = [
        f"{spec.name} seed={seed}: {len(measured)} {kind} in {elapsed:.1f} s; set-up: "
        f"{SETUP_ROUNDS} builds, median {checks.median(builds):.3f} s, "
        f"then a {warmup:.3f} s warm-up pass",
    ]
    if not trace:
        head[0] += f" ({nominal_warmup:.3f} s of calls and revisions at the nominal speed)"
    tail = [
        f"  {'failed_ratio':<18} {failed / max(attempted, 1):>14.6g} ratio  "
        f"{failed} of {attempted} operations ({session.skipped} exact checks skipped "
        "at an integer boundary)",
    ]
    return Result(metrics, head + lines + tail, attempted, failed, session.failures,
                  dict(session.seen))
