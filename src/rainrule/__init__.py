"""Rain-rule analytics for limited-overs cricket.

The package turns ball-by-ball match logs into: innings-total histograms
with a three-parameter normal fit, wicket-conditioned mean scoring curves
with zero-intercept polynomial fits, closed-form revised targets for
rain-interrupted chases, and an exponential remaining-resource baseline
for comparison.

Each public name is imported from its home module on first use (PEP 562),
so ``rainrule.cli target`` and ``from rainrule import revise_target`` load
no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# the one table of public names, by home module
_HOMES = {
    "ball_log": (
        "Corpus", "Delivery", "Diagnostic", "ExtrasKind", "InningsRecord", "InningsTrajectory",
        "MatchFormat", "MatchRecord", "ParseWarning", "innings_trajectories", "load_corpus",
        "parse_match", "qualifying_trajectories", "trajectory",
    ),
    "cricsheet": ("match_json_text", "match_to_json"),
    "csv_log": ("CSV_HEADER", "export_csv"),
    "dl_reference": (
        "DLCurve", "DLFamily", "ResourceTable", "fit_dl_curve", "fit_dl_family",
        "load_resource_table", "remaining_run_means", "resource_table", "resource_table_csv",
    ),
    "errors": (
        "DataError", "DegenerateCurveError", "DegenerateFitError", "EmptyCurveError",
        "EmptySelectionError", "FitError", "IncompleteFamilyError", "InsufficientDataError",
        "InvalidScenarioError", "ParseError", "RainRuleError", "ScenarioError",
        "SingularFitError", "UnsupportedFormatError",
    ),
    "fits": ("PolyFit", "family_summary", "fit_from_json", "poly_eval"),
    "run_curves": (
        "WicketCurve", "cell_means", "curve_csv", "fit_poly", "state_curve", "wicket_curve",
        "wicket_curves",
    ),
    "score_stats": (
        "Histogram", "NormalFit", "build_histogram", "fit_normal", "histogram_csv",
        "normal_curve", "totals",
    ),
    "target_engine": (
        "InterruptionScenario", "RevisedTarget", "area_full", "area_interrupted",
        "resource_ratio", "revise_target", "revision_to_json", "scenario_from_json",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF) + ["__version__"]


def __getattr__(name: str):
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
