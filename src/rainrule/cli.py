"""Command-line surface for the whole pipeline.

Subcommands:

* ``ingest``  - load a corpus, report per-format counts, optionally export CSV
* ``stats``   - totals histograms and normal fits per (format, innings)
* ``curves``  - wicket-conditioned mean curves and polynomial fits, w = 0..9
* ``target``  - revise an interrupted chase from a scenario file and a fit file
* ``compare`` - area-ratio revision next to exponential-model resource percentages

All outputs are plain CSV / JSON and deterministic: the same corpus bytes and
flags produce byte-identical files.  Exit codes: 0 success, 2 data or output
errors, 3 scenario errors, 4 fit errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import date
from pathlib import Path

# the batch modules, and numpy with them, are imported by the commands that
# use them, so ``target`` loads only target_engine, fits and errors
from . import target_engine
from .errors import (
    DataError,
    EmptySelectionError,
    FitError,
    InvalidScenarioError,
    ParseError,
    ScenarioError,
    UnsupportedFormatError,
)
from .fits import DEFAULT_DEGREE, DEFAULT_MIN_SUPPORT, family_summary, fit_from_json

EXIT_OK = 0
EXIT_DATA = 2
EXIT_SCENARIO = 3
EXIT_FIT = 4


def _data_dir(args: argparse.Namespace) -> str | Path | None:
    return args.data_dir or os.environ.get("RAINRULE_DATA_DIR") or None


def _corpus(args: argparse.Namespace) -> Corpus:
    from .ball_log import Corpus, load_corpus

    if args.fixture:
        from .fixtures import demo_corpus

        matches = sorted(demo_corpus(), key=lambda m: m.match_id)
        corpus = Corpus(tuple(matches), ())
    else:
        data_dir = _data_dir(args)
        if data_dir is None:
            raise EmptySelectionError(
                "no data source: pass --data-dir, set RAINRULE_DATA_DIR, or use --fixture"
            )
        corpus = load_corpus(data_dir, args.format)
    if args.until is not None:
        kept = tuple(m for m in corpus if m.date <= args.until)
        corpus = Corpus(kept, corpus.diagnostics)
    return corpus


def _output_dir(args: argparse.Namespace) -> Path:
    out = args.out or Path("rainrule_out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _read_json(path: Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, position=f"{path}:{e.lineno}:{e.colno}")
    except (RecursionError, ValueError) as e:  # bad UTF-8, an over-long integer, deep nesting
        raise ParseError(f"unreadable JSON: {e}", position=str(path))


def _emit(args: argparse.Namespace, name: str, payload: dict) -> int:
    """Write ``payload`` to ``--out``/``name`` when asked, then print it."""
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        _write_json(args.out / name, payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# ingest


def cmd_ingest(args: argparse.Namespace) -> int:
    from .ball_log import MatchFormat, export_csv

    corpus = _corpus(args)
    for diag in corpus.diagnostics:
        print(f"warning: {diag.source}: {diag.message}", file=sys.stderr)
    counts = {fmt: 0 for fmt in MatchFormat}
    for match in corpus:
        counts[match.format] += 1
    print(f"matches: {len(corpus)}")
    for fmt in MatchFormat:
        print(f"  {fmt.value}: {counts[fmt]}")
    print(f"diagnostics: {len(corpus.diagnostics)}")
    if len(corpus) == 0:
        print("error: corpus is empty", file=sys.stderr)
        return EXIT_DATA
    if args.export_csv is not None:
        rows = export_csv(corpus, args.export_csv)
        print(f"exported {rows} deliveries to {args.export_csv}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# stats


def cmd_stats(args: argparse.Namespace) -> int:
    from . import score_stats
    from .ball_log import MatchFormat

    corpus = _corpus(args)
    formats = (args.format,) if args.format else MatchFormat
    out = _output_dir(args)

    rows = []
    for fmt in formats:
        for innings in (1, 2):
            tag = f"{fmt.value}_i{innings}"
            try:
                values = score_stats.totals(corpus, fmt, innings)
                hist = score_stats.build_histogram(values, args.bin_width)
                fit = score_stats.fit_normal(hist)
            except (DataError, FitError) as e:
                print(f"warning: {fmt.value} innings {innings}: {e}", file=sys.stderr)
                continue
            (out / f"hist_{tag}.csv").write_text(
                score_stats.histogram_csv(hist, fit), encoding="utf-8"
            )
            summary = {"format": fmt.value, "innings": innings}
            summary.update(score_stats.fit_summary(fit, hist))
            _write_json(out / f"normal_{tag}.json", summary)
            rows.append((fmt.value, innings, hist.n_samples, fit))

    if not rows:
        print("error: no (format, innings) cell could be fitted", file=sys.stderr)
        return EXIT_FIT
    print(f"{'format':<8}{'innings':>8}{'n':>6}{'xi':>12}{'sigma':>12}{'amplitude':>14}")
    for fmt_name, innings, n, fit in rows:
        print(
            f"{fmt_name:<8}{innings:>8}{n:>6}"
            f"{fit.xi:>12.3f}{fit.sigma:>12.3f}{fit.amplitude:>14.3f}"
        )
    print(f"wrote {2 * len(rows)} files to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# curves


def cmd_curves(args: argparse.Namespace) -> int:
    from . import run_curves
    from .ball_log import MatchFormat

    corpus = _corpus(args)
    fmt = args.format or MatchFormat.ODI
    out = _output_dir(args)

    curves = run_curves.wicket_curves(corpus, fmt, args.innings, args.min_support)
    fitted = []
    for w in range(10):
        try:
            curve = run_curves.state_curve(curves, w, args.min_support)
            fit = run_curves.fit_poly(curve, args.degree)
        except FitError as e:
            print(f"warning: w={w}: {e}", file=sys.stderr)
            continue
        tag = f"{fmt.value}_i{args.innings}_w{w}"
        (out / f"curve_{tag}.csv").write_text(
            run_curves.curve_csv(curve, fit), encoding="utf-8"
        )
        fitted.append((curve, fit))
    if not fitted:
        print("error: no wicket state could be fitted", file=sys.stderr)
        return EXIT_FIT

    _write_json(out / f"poly_{fmt.value}_i{args.innings}.json", family_summary(fitted))
    print(f"fitted {len(fitted)} of 10 wicket curves")
    print(f"wrote {len(fitted) + 1} files to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# target


def _revise(args: argparse.Namespace) -> tuple:
    """(scenario document, scenario, revision); nothing left to chase exits 3."""
    doc = _read_json(args.scenario)
    scenario = target_engine.scenario_from_json(doc)
    fits_doc = _read_json(args.fits)
    fit = fit_from_json(fits_doc, scenario.wickets_at_stoppage, str(args.fits))
    revision = target_engine.revise_target(fit, scenario)
    if revision.ratio <= 0.0:
        print(json.dumps({"ratio": 0.0}, indent=2, sort_keys=True))
        raise InvalidScenarioError(
            "nothing to chase: every scheduled ball falls inside the lost interval"
        )
    return doc, scenario, revision


def cmd_target(args: argparse.Namespace) -> int:
    _, _, revision = _revise(args)
    return _emit(args, "revision.json", target_engine.revision_to_json(revision))


# ---------------------------------------------------------------------------
# compare


def _scenario_format(doc: dict, args: argparse.Namespace, scenario) -> MatchFormat:
    from .ball_log import MatchFormat

    if "format" in doc:
        return MatchFormat.from_string(str(doc["format"]))
    if args.format is not None:
        return args.format
    # fall back on the scheduled length
    return MatchFormat.ODI if scenario.N >= 300 else MatchFormat.T20I


def cmd_compare(args: argparse.Namespace) -> int:
    from . import dl_reference

    doc, scenario, revision = _revise(args)
    payload: dict = {"area_ratio": target_engine.revision_to_json(revision)}

    table = None
    if args.dl_table:
        table = dl_reference.load_resource_table(args.dl_table)
    elif args.fixture or _data_dir(args) is not None:
        # the format picks the corpus fit, so only this branch reads it
        fmt = _scenario_format(doc, args, scenario)
        corpus = _corpus(args)
        family = dl_reference.fit_dl_family(corpus, fmt, min_support=args.min_support)
        table = dl_reference.resource_table(family, fmt.scheduled_overs)
        table_path = _output_dir(args) / f"resource_{fmt.value}.csv"
        table_path.write_text(dl_reference.resource_table_csv(table), encoding="utf-8")
        print(f"wrote fitted resource table to {table_path}", file=sys.stderr)

    if table is None:
        print(
            "warning: no resource table (pass --dl-table, --data-dir or --fixture); "
            "emitting the area-ratio result only",
            file=sys.stderr,
        )
        payload["resource_model"] = None
    else:
        # a valid scenario has 0 <= n <= m <= N and 0..10 wickets, so both cells exist
        w = scenario.wickets_at_stoppage
        at_stop = table.percentage(min((scenario.N - scenario.n) // 6, table.max_overs), w)
        at_restart = table.percentage(min((scenario.N - scenario.m) // 6, table.max_overs), w)
        payload["resource_model"] = {
            "percent_at_stoppage": at_stop,
            "percent_at_restart": at_restart,
            "percent_lost": at_stop - at_restart,
        }
    return _emit(args, "comparison.json", payload)


# ---------------------------------------------------------------------------
# parser


def _format_arg(token: str) -> MatchFormat:
    from .ball_log import MatchFormat

    try:
        return MatchFormat.from_string(token)
    except UnsupportedFormatError as e:
        raise argparse.ArgumentTypeError(str(e))


def _date_arg(token: str) -> date:
    try:
        return date.fromisoformat(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad date {token!r}, expected YYYY-MM-DD")


def _positive_float(token: str) -> float:
    value = float(token)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _positive_int(token: str) -> int:
    value = int(token)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _add_corpus_flags(sp: argparse.ArgumentParser) -> None:
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
    sp.add_argument("--out", type=Path, default=None, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainrule",
        description="Rain-rule analytics for limited-overs cricket ball logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="load a corpus and report counts")
    _add_corpus_flags(p_ingest)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, DataError, FitError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, ScenarioError):
            return EXIT_SCENARIO
        return EXIT_FIT if isinstance(e, FitError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
