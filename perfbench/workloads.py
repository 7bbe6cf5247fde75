"""The three benchmark workloads: their inputs, CLI calls and scenarios.

Every workload runs the same user flow, one pass at a time: ``ingest``,
``stats``, ``curves`` and ``compare`` through the CLI, then ``target``
calls, with a closed-loop stream of in-process revisions interleaved
between the calls.  The workloads differ in their
inputs and in how much of each pass is batch work and how much is decision
work; README.md says why each one exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rainrule import MatchFormat, PolyFit, fixtures, poly_eval
from rainrule.target_engine import area_full

ODI, T20I, IPL = MatchFormat.ODI, MatchFormat.T20I, MatchFormat.IPL

# distinct in-process scenarios per run; the stream cycles through them
POOL_SIZE = 1000


@dataclass(frozen=True)
class Curves:
    """One ``rainrule curves`` call; ``flag`` passes ``--format``."""

    format: MatchFormat
    innings: int
    degree: int
    flag: bool

    @property
    def family_file(self) -> str:
        return f"poly_{self.format.value}_i{self.innings}.json"


@dataclass(frozen=True)
class Compare:
    """The ``rainrule compare`` call; its fits come from ``Spec.curves[0]``."""

    scenario_format: MatchFormat
    format_flag: MatchFormat | None
    more_intervals: bool


@dataclass(frozen=True)
class Spec:
    name: str
    corpora: tuple[tuple[MatchFormat, int], ...]
    csv_roundtrip: bool
    curves: tuple[Curves, ...]
    compare: Compare
    target_calls: int
    stream_len: int

    def curves_key(self, c: Curves) -> str:
        return "curves" if len(self.curves) == 1 else f"curves.{c.format.value}"


SPECS = {
    s.name: s
    for s in (
        Spec(
            name="odi-json-pipeline",
            corpora=((ODI, 50),),
            csv_roundtrip=False,
            curves=(Curves(ODI, 1, 3, flag=False),),
            compare=Compare(ODI, None, more_intervals=False),
            target_calls=1,
            stream_len=10000,
        ),
        Spec(
            name="t20-csv-roundtrip",
            corpora=((T20I, 60), (IPL, 60)),
            csv_roundtrip=True,
            curves=(Curves(IPL, 2, 2, flag=True),),
            compare=Compare(T20I, T20I, more_intervals=True),
            target_calls=1,
            stream_len=10000,
        ),
        Spec(
            name="target-revisions",
            corpora=((ODI, 50), (T20I, 30)),
            csv_roundtrip=False,
            curves=(Curves(ODI, 1, 3, flag=True), Curves(T20I, 1, 2, flag=True)),
            compare=Compare(ODI, None, more_intervals=True),
            target_calls=2,
            stream_len=20000,
        ),
    )
}


def build_inputs(spec: Spec, seed: int, directory: Path, tracer) -> None:
    """Generate the workload's matches and write one JSON file per match."""
    for fmt, n in spec.corpora:
        with tracer.span("fixtures.synthetic_corpus"):
            matches = fixtures.synthetic_corpus(fmt, n, seed=seed)
        with tracer.span("fixtures.write_corpus"):
            fixtures.write_corpus(matches, directory)


# ---------------------------------------------------------------------------
# CLI calls of one pass


@dataclass(frozen=True)
class Step:
    """One CLI call.  ``key`` names its outputs for the digest check and
    ``metric`` the end-to-end timing it adds to."""

    key: str
    metric: str
    argv: tuple[str, ...]
    out: Path
    extra_outputs: tuple[Path, ...] = ()


def data_dir(spec: Spec, corpus_dir: Path, pass_dir: Path) -> Path:
    """Where ``stats``, ``curves`` and ``compare`` read the corpus."""
    return pass_dir / "csv" if spec.csv_roundtrip else corpus_dir


def batch_steps(spec: Spec, corpus_dir: Path, pass_dir: Path) -> list[Step]:
    data = str(data_dir(spec, corpus_dir, pass_dir))
    ingest = ["ingest", "--data-dir", str(corpus_dir), "--out", str(pass_dir / "ingest")]
    extra: tuple[Path, ...] = ()
    if spec.csv_roundtrip:
        export = pass_dir / "csv" / "balls.csv"
        ingest += ["--export-csv", str(export)]
        extra = (export,)
    steps = [
        Step("ingest", "ingest_s", tuple(ingest), pass_dir / "ingest", extra),
        Step(
            "stats", "stats_s",
            ("stats", "--data-dir", data, "--out", str(pass_dir / "stats")),
            pass_dir / "stats",
        ),
    ]
    for c in spec.curves:
        key = spec.curves_key(c)
        argv = ["curves", "--data-dir", data, "--out", str(pass_dir / key),
                "--innings", str(c.innings), "--degree", str(c.degree)]
        if c.flag:
            argv += ["--format", c.format.value]
        steps.append(Step(key, "curves_s", tuple(argv), pass_dir / key))
    return steps


def family_paths(spec: Spec, pass_dir: Path) -> list[Path]:
    return [pass_dir / spec.curves_key(c) / c.family_file for c in spec.curves]


def decision_steps(
    spec: Spec, corpus_dir: Path, pass_dir: Path, scenario_dir: Path
) -> list[Step]:
    families = family_paths(spec, pass_dir)
    argv = ["compare", "--data-dir", str(data_dir(spec, corpus_dir, pass_dir)),
            "--out", str(pass_dir / "compare"),
            "--scenario", str(scenario_dir / "compare.json"), "--fits", str(families[0])]
    if spec.compare.format_flag is not None:
        argv += ["--format", spec.compare.format_flag.value]
    steps = [Step("compare", "compare_s", tuple(argv), pass_dir / "compare")]
    for i in range(spec.target_calls):
        key = f"target.{i}"
        steps.append(
            Step(
                key, "target_cli_ms",
                ("target", "--scenario", str(scenario_dir / f"target_{i}.json"),
                 "--fits", str(families[i % len(families)]), "--out", str(pass_dir / key)),
                pass_dir / key,
            )
        )
    return steps


# ---------------------------------------------------------------------------
# fitted families and scenarios


@dataclass(frozen=True)
class Family:
    """A ``poly_*.json`` family file as the CLI wrote it."""

    format: MatchFormat
    fits: dict[int, PolyFit]

    @classmethod
    def load(cls, path: Path) -> "Family":
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        fits = {
            int(key): PolyFit(
                a=float(fit.get("a", 0.0)), b=float(fit["b"]), c=float(fit["c"]),
                degree=int(fit.get("degree", 3)),
            )
            for key, fit in doc["fits"].items()
        }
        return cls(MatchFormat.from_string(doc["format"]), fits)

    def usable_states(self, N: int) -> list[int]:
        """Wicket states whose curve is positive on every ball of 1..N, or
        else those with a positive full-innings area.

        A fit extrapolated from a few late balls can dip below zero, and
        ``revise_target`` rightly refuses a curve whose full-innings area
        is not positive.  The benchmark revises with curves a user could
        use; on the rare seed whose small corpus gives no curve positive
        everywhere, it falls back to the curves ``revise_target`` accepts.
        """
        balls = np.arange(1, N + 1, dtype=float)
        positive = [w for w, fit in self.fits.items() if np.all(poly_eval(fit, balls) > 0)]
        return sorted(positive or (w for w, fit in self.fits.items() if area_full(fit, N) > 0))


def _scenario(
    rng: np.random.Generator, label: MatchFormat, N: int, wickets: list[int], min_more: int
) -> dict:
    """Stoppages and restarts placed uniformly over the innings.

    Every restart comes before the last ball, so some of the innings is
    always left to play and the revision is well defined.
    """
    more = int(rng.integers(min_more, 3))
    marks = sorted(int(v) for v in rng.integers(0, N, size=2 * (more + 1)))
    target = int(rng.integers(N // 2, 2 * N))
    doc = {
        "format": label.value,
        "innings": 2,
        "wickets": int(rng.choice(wickets)),
        "n": marks[0],
        "m": marks[1],
        "N": N,
        "target_score": target,
        "current_score": int(rng.integers(0, target)),
    }
    if more:
        doc["more_intervals"] = [marks[i : i + 2] for i in range(2, len(marks), 2)]
    return doc


@dataclass(frozen=True)
class Scenarios:
    """The seeded scenarios of one run.

    ``pool`` feeds the in-process stream and its documents alternate over
    the families; ``compare`` and ``targets`` become files for the CLI, the
    i-th target paired with family ``i % len(families)``.
    """

    pool: tuple[dict, ...]
    compare: dict
    targets: tuple[dict, ...]

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        docs = {"compare.json": self.compare}
        docs.update({f"target_{i}.json": d for i, d in enumerate(self.targets)})
        for name, doc in docs.items():
            (directory / name).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def make_scenarios(spec: Spec, seed: int, families: list[Family]) -> Scenarios:
    """Scenarios that use only usable wicket states of their family."""
    rng = np.random.default_rng([seed, 7])

    def draw(family: Family, label: MatchFormat | None = None, min_more: int = 0) -> dict:
        label = label or family.format
        N = label.scheduled_balls
        return _scenario(rng, label, N, family.usable_states(N), min_more)

    pool = tuple(draw(families[i % len(families)]) for i in range(POOL_SIZE))
    compare = draw(
        families[0], spec.compare.scenario_format, 1 if spec.compare.more_intervals else 0
    )
    targets = tuple(draw(families[i % len(families)]) for i in range(spec.target_calls))
    return Scenarios(pool, compare, targets)
