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
import math
import os
import sys
from pathlib import Path

# the batch modules and numpy are imported by the commands that use
# them, and target_engine by the two that revise, so ``target`` loads only
# target_engine, fits and errors
from .errors import (
    DataError,
    DegenerateCurveError,
    EmptySelectionError,
    FitError,
    InvalidScenarioError,
    ParseError,
    ScenarioError,
    UnsupportedFormatError,
)
from .fits import DEFAULT_DEGREE, DEFAULT_MIN_SUPPORT, family_summary, fit_from_json


def _data_dir(args: argparse.Namespace) -> str | Path | None:
    return args.data_dir or os.environ.get("RAINRULE_DATA_DIR") or None


def _corpus(args: argparse.Namespace) -> Corpus:
    """Every readable match of the source, by match id, dated up to ``--until``, after
    a warning on stderr for each file it could not use.

    Each command applies ``--format`` where it selects its matches or innings."""
    from .ball_log import Corpus, load_corpus

    if args.fixture:
        from .fixtures import demo_corpus

        source = Corpus(tuple(demo_corpus()))
    elif (data_dir := _data_dir(args)) is not None:
        source = load_corpus(data_dir)
    else:
        raise EmptySelectionError(
            "no data source: pass --data-dir, set RAINRULE_DATA_DIR, or use --fixture"
        )
    for diag in source.diagnostics:
        print(f"warning: {diag.source}: {diag.message}", file=sys.stderr)
    kept = sorted((m for m in source if args.until is None or m.date <= args.until),
                  key=lambda m: m.match_id)
    return Corpus(tuple(kept), source.diagnostics)


def _output_dir(args: argparse.Namespace) -> Path:
    out = args.out or Path("rainrule_out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _read_json(path: Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:  # its strerror alone, so the file is named once
        raise ParseError(f"cannot read {path}: {e.strerror or e}")
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, position=f"{path}:{e.lineno}:{e.colno}")
    except (RecursionError, ValueError) as e:  # bad UTF-8, an over-long integer, deep nesting
        raise ParseError(f"unreadable JSON: {e}", position=str(path))


def _emit(args: argparse.Namespace, name: str, payload: dict) -> None:
    """Write ``payload`` to ``--out``/``name`` when asked, then print it."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        (_output_dir(args) / name).write_text(text + "\n", encoding="utf-8")
    print(text)


# ---------------------------------------------------------------------------
# ingest


def cmd_ingest(args: argparse.Namespace) -> None:
    from .ball_log import MatchFormat

    corpus = _corpus(args)
    matches = [m for m in corpus if args.format in (None, m.format)]
    # the log is written before the report, so a failed export reports no success
    if matches and args.export_csv is not None:
        from .csv_log import export_csv

        rows = export_csv(matches, args.export_csv)
    print(f"matches: {len(matches)}")
    for fmt in MatchFormat:
        print(f"  {fmt.value}: {sum(m.format is fmt for m in matches)}")
    print(f"diagnostics: {len(corpus.diagnostics)}")
    if not matches:
        read = len(corpus)
        if not read:
            raise EmptySelectionError("corpus is empty")
        noun = "match" if read == 1 else "matches"
        raise EmptySelectionError(f"no {args.format.value} match among the {read} {noun} read")
    if args.export_csv is not None:
        print(f"exported {rows} deliveries to {args.export_csv}")


# ---------------------------------------------------------------------------
# stats


def cmd_stats(args: argparse.Namespace) -> None:
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
        raise FitError("no (format, innings) cell could be fitted")
    print(f"{'format':<8}{'innings':>8}{'n':>6}{'xi':>12}{'sigma':>12}{'amplitude':>14}")
    for fmt_name, innings, n, fit in rows:
        print(
            f"{fmt_name:<8}{innings:>8}{n:>6}"
            f"{fit.xi:>12.3f}{fit.sigma:>12.3f}{fit.amplitude:>14.3f}"
        )
    print(f"wrote {2 * len(rows)} files to {out}")


# ---------------------------------------------------------------------------
# curves


def cmd_curves(args: argparse.Namespace) -> None:
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
        raise FitError("no wicket state could be fitted")

    _write_json(out / f"poly_{fmt.value}_i{args.innings}.json", family_summary(fitted))
    print(f"fitted {len(fitted)} of 10 wicket curves")
    print(f"wrote {len(fitted) + 1} files to {out}")


# ---------------------------------------------------------------------------
# target


def _revise(args: argparse.Namespace) -> tuple:
    """(scenario document, scenario, revision JSON); nothing left to chase exits 3,
    and a ratio outside [0, 1], a curve negative over the lost balls, exits 4."""
    from . import target_engine

    doc = _read_json(args.scenario)
    scenario = target_engine.scenario_from_json(doc)
    fits_doc = _read_json(args.fits)
    fit = fit_from_json(fits_doc, scenario.wickets_at_stoppage, str(args.fits))
    revision = target_engine.revise_target(fit, scenario)
    if not 0.0 <= revision.ratio <= 1.0:
        raise DegenerateCurveError(
            f"area ratio is {revision.ratio!r}, outside [0, 1]: the fitted curve is "
            "negative over the lost balls; fit unusable for target revision"
        )
    if revision.ratio == 0.0:
        print(json.dumps({"ratio": 0.0}, indent=2, sort_keys=True))
        raise InvalidScenarioError(
            "nothing to chase: every scheduled ball falls inside the lost interval"
        )
    return doc, scenario, target_engine.revision_to_json(revision)


def cmd_target(args: argparse.Namespace) -> None:
    _, _, revision = _revise(args)
    _emit(args, "revision.json", revision)


# ---------------------------------------------------------------------------
# compare


def _scenario_format(doc: dict, args: argparse.Namespace, scenario) -> MatchFormat:
    from .ball_log import MatchFormat

    if "format" in doc:
        return MatchFormat.from_string(str(doc["format"]))
    # then --format, then the scheduled length
    return args.format or (MatchFormat.ODI if scenario.N >= 300 else MatchFormat.T20I)


def cmd_compare(args: argparse.Namespace) -> None:
    from . import dl_reference

    doc, scenario, revision = _revise(args)
    payload: dict = {"area_ratio": revision}

    table = fitted = None
    if args.dl_table:
        table = dl_reference.load_resource_table(args.dl_table)
    elif args.fixture or _data_dir(args) is not None:
        # the format picks the corpus fit, so only this branch reads it
        fmt = _scenario_format(doc, args, scenario)
        corpus = _corpus(args)
        family = dl_reference.fit_dl_family(corpus, fmt, min_support=args.min_support)
        table = fitted = dl_reference.resource_table(family, fmt.scheduled_overs)
    if table is not None and scenario.N // 6 > table.max_overs:
        raise DataError(
            f"the scenario's {scenario.N // 6} overs exceed the resource table's "
            f"{table.max_overs}"
        )
    if fitted is not None:
        table_path = _output_dir(args) / f"resource_{fmt.value}.csv"
        table_path.write_text(dl_reference.resource_table_csv(fitted), encoding="utf-8")
        print(f"wrote fitted resource table to {table_path}", file=sys.stderr)

    if table is None:
        print(
            "warning: no resource table (pass --dl-table, --data-dir or --fixture); "
            "emitting the area-ratio result only",
            file=sys.stderr,
        )
        payload["resource_model"] = None
    else:
        # a valid scenario has 0 <= n <= m <= N and 0..10 wickets, and N fits the
        # table, so both cells exist
        w = scenario.wickets_at_stoppage
        at_stop = table.percentage((scenario.N - scenario.n) // 6, w)
        at_restart = table.percentage((scenario.N - scenario.m) // 6, w)
        payload["resource_model"] = {
            "percent_at_stoppage": at_stop,
            "percent_at_restart": at_restart,
            "percent_lost": at_stop - at_restart,
        }
    _emit(args, "comparison.json", payload)


# ---------------------------------------------------------------------------
# parser


def _format_arg(token: str) -> MatchFormat:
    from .ball_log import MatchFormat

    try:
        return MatchFormat.from_string(token)
    except UnsupportedFormatError as e:
        raise argparse.ArgumentTypeError(str(e))


def _date_arg(token: str) -> date:
    from .ball_log import parse_date

    try:
        return parse_date(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad date {token!r}, expected YYYY-MM-DD")


def _positive_float(token: str) -> float:
    value = float(token)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be finite" if value > 0 else "must be positive")
    return value


def _positive_int(token: str) -> int:
    value = int(token)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


# each corpus command's flags, --out last
_CORPUS_FLAGS = {
    "--data-dir": {"type": Path, "help": "directory of match files (default: $RAINRULE_DATA_DIR)"},
    "--fixture": {"action": "store_true", "help": "use the bundled deterministic synthetic corpus"},
    "--format": {"type": _format_arg, "metavar": "{odi,t20i,ipl}",
                 "help": "restrict to one format"},
    "--until": {"type": _date_arg, "metavar": "YYYY-MM-DD",
                "help": "keep only matches dated on or before this day"},
    "--out": {"type": Path, "help": "output directory"},
}
_MIN_SUPPORT = {"--min-support": {"type": _positive_int, "default": DEFAULT_MIN_SUPPORT}}

# each command: its handler, its help and its flags, in the order help lists them
_COMMANDS = {
    "ingest": (cmd_ingest, "load a corpus and report counts", {
        **_CORPUS_FLAGS,
        "--out": {**_CORPUS_FLAGS["--out"], "help": "accepted, but ingest writes nothing there"},
        "--export-csv": {"type": Path, "metavar": "FILE",
                         "help": "write the normalized ball log CSV"},
    }),
    "stats": (cmd_stats, "totals histograms and normal fits", {
        **_CORPUS_FLAGS, "--bin-width": {"type": _positive_float, "default": 10.0},
    }),
    "curves": (cmd_curves, "wicket curves and polynomial fits", {
        **_CORPUS_FLAGS,
        "--innings": {"type": int, "choices": (1, 2), "default": 1},
        **_MIN_SUPPORT,
        "--degree": {"type": int, "choices": (2, 3), "default": DEFAULT_DEGREE},
    }),
    "target": (cmd_target, "revise an interrupted chase", {
        "--scenario": {"type": Path, "required": True, "help": "scenario JSON file"},
        "--fits": {"type": Path, "required": True, "help": "polynomial fit JSON file"},
        "--out": _CORPUS_FLAGS["--out"],
    }),
    "compare": (cmd_compare, "area-ratio revision next to resource-model percentages", {
        **_CORPUS_FLAGS,
        "--scenario": {"type": Path, "required": True},
        "--fits": {"type": Path, "required": True},
        "--dl-table": {"type": Path, "help": "resource table CSV (otherwise fitted from the "
                                             "corpus when available)"},
        **_MIN_SUPPORT,
    }),
}


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """Every command's subparser, with flags for ``command`` alone: of the others
    argparse shows only the name and help, which each one has."""
    parser = argparse.ArgumentParser(
        prog="rainrule",
        description="Rain-rule analytics for limited-overs cricket ball logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, flags) in _COMMANDS.items():
        subparser = sub.add_parser(name, help=summary)
        if name == command:
            for flag, options in flags.items():
                subparser.add_argument(flag, **options)
    return parser


# the exit code of each error family; any other exception is a bug and keeps its traceback
_EXIT_CODES = {DataError: 2, OSError: 2, ScenarioError: 3, FitError: 4}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argparse takes the first token that names a command as the command, since
    # no top-level flag takes a value
    args = build_parser(next((a for a in argv if a in _COMMANDS), None)).parse_args(argv)
    try:
        _COMMANDS[args.command][0](args)
    except tuple(_EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for family, code in _EXIT_CODES.items() if isinstance(e, family))
    return 0


if __name__ == "__main__":
    sys.exit(main())
