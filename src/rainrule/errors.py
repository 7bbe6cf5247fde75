"""Exception types shared across the package.

Every error raised by the library derives from :class:`RainRuleError`, so
callers can catch one base class at pipeline boundaries.  The CLI maps the
three subfamilies to distinct exit codes (data / scenario / fit).
"""


class RainRuleError(Exception):
    """Base class for all rainrule errors."""


# -- data errors --------------------------------------------------------


class DataError(RainRuleError):
    """Problems with input data: unparsable files, empty selections."""


class ParseError(DataError):
    """A match, fits or resource-table document could not be parsed.

    ``position`` carries a human-readable location (line / byte offset /
    JSON path) when one is known.
    """

    def __init__(self, message: str, position: str | None = None):
        self.position = position
        if position:
            message = f"{message} (at {position})"
        super().__init__(message)


class UnsupportedFormatError(DataError):
    """Match type, competition or population not supported."""


class EmptySelectionError(DataError):
    """A filter matched no innings / no values."""


# -- scenario errors ----------------------------------------------------


class ScenarioError(RainRuleError):
    """Problems with an interruption scenario."""


class InvalidScenarioError(ScenarioError):
    """Scenario fields violate 0 <= n <= m <= N or score ordering."""


# -- fit errors ----------------------------------------------------------


class FitError(RainRuleError):
    """Problems while fitting or using a fitted model."""


class InsufficientDataError(FitError):
    """Too few points / bins to determine the model parameters."""


class DegenerateFitError(FitError):
    """The fit collapsed (e.g. sigma below the positivity floor)."""


class SingularFitError(FitError):
    """Rank-deficient design matrix in a linear least-squares fit."""


class EmptyCurveError(FitError):
    """No ball of the innings axis had enough supporting innings."""


class DegenerateCurveError(FitError):
    """Fitted curve has non-positive full-game area; unusable for targets."""


class IncompleteFamilyError(FitError):
    """A curve family is missing the wickets=0 member."""
