"""The fitted scoring curve and its JSON document, with no numpy import.

:class:`PolyFit` holds the zero-intercept polynomial that
:func:`rainrule.run_curves.fit_poly` fits, in raw ball units.  The fits
document has its one writer (:func:`family_summary`) and one reader
(:func:`fit_from_json`) here, so the decision path (``rainrule target``)
loads only the standard library.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence

from .errors import EmptyCurveError, ParseError

__all__ = ["PolyFit", "poly_eval", "fit_summary", "family_summary", "fit_from_json"]

DEFAULT_MIN_SUPPORT = 10
DEFAULT_DEGREE = 3


class Record:
    """Base of every rainrule record, whose fields are its ``__slots__``: equal and
    hashed by value, immutable, and shown with its field names.

    Plain classes, because ``dataclasses`` imports ``inspect`` and generates
    each record's methods at import time, on every command.  A subclass's
    ``__init__`` sets its fields, in slot order with :meth:`_set_fields`, and
    checks them; one that holds arrays sets ``__eq__`` to compare them by value,
    which leaves it unhashable.
    """

    __slots__ = ()

    def _set_fields(self, *values) -> None:
        """Set the fields to ``values``, in slot order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()


class PolyFit(Record):
    """Zero-intercept polynomial coefficients in raw ball units."""

    __slots__ = ("a", "b", "c", "degree", "rss")

    def __init__(self, a: float, b: float, c: float, degree: int, rss: float = 0.0):
        if degree not in (2, 3):
            raise ValueError(f"degree must be 2 or 3, got {degree!r}")
        if degree == 2 and a != 0.0:
            raise ValueError("degree-2 fit requires a = 0")
        self._set_fields(a, b, c, degree, rss)


def poly_eval(fit: PolyFit, x):
    """Evaluate the fitted polynomial; exactly zero at x = 0."""
    return ((fit.a * x + fit.b) * x + fit.c) * x


def fit_summary(curve, fit: PolyFit) -> dict:
    """JSON-ready fit summary of a ``run_curves.WicketCurve`` and its fit."""
    return {
        "format": curve.format.value,
        "innings": curve.innings_index,
        "wickets": curve.wickets,
        "degree": fit.degree,
        "a": fit.a,
        "b": fit.b,
        "c": fit.c,
        "rss": fit.rss,
    }


def family_summary(fitted: Sequence[tuple]) -> dict:
    """JSON-ready fits of one format, innings and degree, keyed by wickets down."""
    curve, fit = fitted[0]
    fits = {str(c.wickets): fit_summary(c, f) for c, f in fitted}
    return {"format": curve.format.value, "innings": curve.innings_index,
            "degree": fit.degree, "fits": fits}


def _finite(key: str, value) -> float:
    # float() keeps a revision's arithmetic as it was; nan fails the bound
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not -sys.float_info.max <= value <= sys.float_info.max):
        raise ValueError(f"{key}: expected a finite number, got {value!r}")
    return float(value)


def fit_from_json(doc, wickets: int, source: str) -> PolyFit:
    """The fit for ``wickets`` down from a decoded fits document, one fit or a
    :func:`family_summary` family: a :class:`ParseError` naming ``source`` and
    the entry if malformed, an :class:`EmptyCurveError` if the state is missing."""
    entry, key = source, str(wickets)
    try:
        if isinstance(doc, dict) and "fits" in doc:
            entry, family = f"{source}[fits]", doc["fits"]
            if key not in family.keys():  # AttributeError unless an object
                raise EmptyCurveError(
                    f"{source} has no fitted curve for wickets={wickets} "
                    f"(available: {', '.join(sorted(family))})"
                )
            entry, doc = f"{source}[fits][{key}]", family[key]
        return PolyFit(
            _finite("a", doc.get("a", 0.0)), _finite("b", doc["b"]), _finite("c", doc["c"]),
            degree=doc.get("degree", DEFAULT_DEGREE),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        detail = f"missing key {e}" if isinstance(e, KeyError) else str(e)
        raise ParseError(f"bad polynomial fit: {detail}", position=entry) from e
