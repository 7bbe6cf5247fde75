"""In-process replay of the CLI subcommands, for the traced run.

Each ``replay_*`` function makes the same public rainrule calls as the
subcommand of the same name and writes the same files, with a span around
every call into a layer.  The replay's files must match the CLI's byte
for byte, which shows the replay is faithful.  What the CLI costs beyond
the replay (interpreter start-up, imports, argument parsing, printing) is
its overhead.

The ``probe_*`` functions time layers the subcommands call only
indirectly: JSON decoding inside ``parse_match``, one trajectory pass,
the remaining-run grid and the per-state exponential fits.
"""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

from rainrule import (
    MatchFormat,
    PolyFit,
    dl_reference,
    export_csv,
    load_corpus,
    parse_match,
    run_curves,
    score_stats,
    target_engine,
    trajectory,
)
from rainrule.errors import DataError, FitError

from workloads import Compare, Curves, Family

FORMATS = (MatchFormat.ODI, MatchFormat.T20I, MatchFormat.IPL)
MIN_SUPPORT = 10  # the CLI's default
BIN_WIDTH = 10.0  # the CLI's default


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load(t, directory: Path, fmt: MatchFormat | None, csv: bool):
    with t.span("ball_log.load_corpus_csv" if csv else "ball_log.load_corpus"):
        return load_corpus(directory, fmt)


def replay_ingest(t, corpus_dir: Path, export: Path | None):
    with t.span("cli.ingest"):
        corpus = _load(t, corpus_dir, None, csv=False)
        if export is not None:
            export.parent.mkdir(parents=True, exist_ok=True)
            with t.span("ball_log.export_csv"):
                export_csv(corpus, export)
    return corpus


def replay_stats(t, data: Path, out: Path, csv: bool) -> None:
    with t.span("cli.stats"):
        corpus = _load(t, data, None, csv)
        out.mkdir(parents=True, exist_ok=True)
        for fmt in FORMATS:
            for innings in (1, 2):
                try:
                    with t.span("score_stats.totals"):
                        values = score_stats.totals(corpus, fmt, innings)
                    with t.span("score_stats.build_histogram"):
                        hist = score_stats.build_histogram(values, BIN_WIDTH)
                    with t.span("score_stats.fit_normal"):
                        fit = score_stats.fit_normal(hist)
                except (DataError, FitError):
                    continue
                tag = f"{fmt.value}_i{innings}"
                (out / f"hist_{tag}.csv").write_text(
                    score_stats.histogram_csv(hist, fit), encoding="utf-8"
                )
                summary = {"format": fmt.value, "innings": innings}
                summary.update(score_stats.fit_summary(fit, hist))
                _write_json(out / f"normal_{tag}.json", summary)


def replay_curves(t, data: Path, out: Path, c: Curves, csv: bool):
    """Returns the corpus read and the number of wicket states fitted."""
    with t.span("cli.curves"):
        corpus = _load(t, data, c.format if c.flag else None, csv)
        out.mkdir(parents=True, exist_ok=True)
        fits = {}
        for w in range(10):
            try:
                with t.span("run_curves.wicket_curve"):
                    curve = run_curves.wicket_curve(corpus, c.format, c.innings, w, MIN_SUPPORT)
                with t.span("run_curves.fit_poly"):
                    fit = run_curves.fit_poly(curve, c.degree)
            except FitError:
                continue
            tag = f"{c.format.value}_i{c.innings}_w{w}"
            (out / f"curve_{tag}.csv").write_text(
                run_curves.curve_csv(curve, fit), encoding="utf-8"
            )
            fits[str(w)] = run_curves.fit_summary(curve, fit)
        _write_json(
            out / c.family_file,
            {"format": c.format.value, "innings": c.innings, "degree": c.degree, "fits": fits},
        )
    return corpus, len(fits)


def replay_compare(
    t, data: Path, out: Path, scenario_path: Path, fits_path: Path, compare: Compare, csv: bool
):
    """Returns the fitted resource-model family."""
    with t.span("cli.compare"):
        doc = json.loads(scenario_path.read_text(encoding="utf-8"))
        with t.span("target_engine.scenario_from_json"):
            scenario = target_engine.scenario_from_json(doc)
        fit = Family.load(fits_path).fits[scenario.wickets_at_stoppage]
        with t.span("target_engine.revise_target"):
            revision = target_engine.revise_target(fit, scenario)
        with t.span("target_engine.revision_to_json"):
            payload = {"area_ratio": target_engine.revision_to_json(revision)}
        fmt = MatchFormat.from_string(doc["format"])
        corpus = _load(t, data, compare.format_flag, csv)
        with t.span("dl_reference.fit_dl_family"):
            family = dl_reference.fit_dl_family(corpus, fmt, min_support=MIN_SUPPORT)
        with t.span("dl_reference.resource_table"):
            table = dl_reference.resource_table(family, fmt.scheduled_overs)
        out.mkdir(parents=True, exist_ok=True)
        with t.span("dl_reference.resource_table_csv"):
            text = dl_reference.resource_table_csv(table)
        (out / f"resource_{fmt.value}.csv").write_text(text, encoding="utf-8")
        w = scenario.wickets_at_stoppage
        at_stop = table.percentage(min((scenario.N - scenario.n) // 6, table.max_overs), w)
        at_restart = table.percentage(min((scenario.N - scenario.m) // 6, table.max_overs), w)
        payload["resource_model"] = {
            "percent_at_stoppage": at_stop,
            "percent_at_restart": at_restart,
            "percent_lost": at_stop - at_restart,
        }
        _write_json(out / "comparison.json", payload)
    return family


def replay_target(t, scenario_path: Path, fits_path: Path, out: Path) -> None:
    with t.span("cli.target"):
        doc = json.loads(scenario_path.read_text(encoding="utf-8"))
        with t.span("target_engine.scenario_from_json"):
            scenario = target_engine.scenario_from_json(doc)
        fit = Family.load(fits_path).fits[scenario.wickets_at_stoppage]
        with t.span("target_engine.resource_ratio"):
            target_engine.resource_ratio(fit, scenario)
        with t.span("target_engine.revise_target"):
            revision = target_engine.revise_target(fit, scenario)
        with t.span("target_engine.revision_to_json"):
            payload = target_engine.revision_to_json(revision)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "revision.json", payload)


def replay_stream(t, docs, fits: dict[str, dict[int, PolyFit]]) -> list[dict]:
    """The in-process decision path, with ``resource_ratio`` timed apart."""
    outputs = []
    with t.span("bench.stream"):
        for doc in docs:
            with t.span("target_engine.scenario_from_json"):
                scenario = target_engine.scenario_from_json(doc)
            fit = fits[doc["format"]][scenario.wickets_at_stoppage]
            with t.span("target_engine.resource_ratio"):
                target_engine.resource_ratio(fit, scenario)
            with t.span("target_engine.revise_target"):
                revision = target_engine.revise_target(fit, scenario)
            with t.span("target_engine.revision_to_json"):
                outputs.append(target_engine.revision_to_json(revision))
    return outputs


# ---------------------------------------------------------------------------
# probes


def probe_parse(t, json_dir: Path) -> None:
    """``json.loads`` and ``parse_match`` on the same bytes of every file."""
    for path in sorted(json_dir.glob("*.json")):
        raw = path.read_bytes()
        with t.span("ball_log.json_decode"):
            json.loads(raw)
        with t.span("ball_log.parse_match"):
            parse_match(raw, match_id=path.stem)


def probe_trajectories(t, corpus, c: Curves) -> None:
    """One trajectory pass over the innings a ``curves`` call uses."""
    with t.span("ball_log.trajectory"):
        for match in corpus:
            if match.format is not c.format:
                continue
            for innings in match.innings:
                if innings.innings_index == c.innings:
                    trajectory(innings, c.format)


def probe_resource_fits(t, corpus, fmt: MatchFormat) -> None:
    """The remaining-run grid and the per-state fits ``fit_dl_family`` makes."""
    with t.span("dl_reference.remaining_run_means"):
        points = dl_reference.remaining_run_means(corpus, fmt, min_support=MIN_SUPPORT)
    for w, (u, means, _) in sorted(points.items()):
        if u.size >= 3:  # fit_dl_family's min_points
            with t.span("dl_reference.fit_dl_curve"):
                dl_reference.fit_dl_curve(u, means, w)


def probe_csv(t, corpus, path: Path) -> None:
    """Export the corpus as one CSV ball log and read it back."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with t.span("ball_log.export_csv"):
        export_csv(corpus, path)
    _load(t, path.parent, None, csv=True)


def load_corpus_alloc_mib(directory: Path) -> float:
    """Peak bytes allocated while ``load_corpus`` runs, from tracemalloc."""
    tracemalloc.start()
    try:
        load_corpus(directory)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
