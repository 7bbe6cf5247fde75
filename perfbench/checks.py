"""Output checks and the small statistics the benchmark reports.

* Digests: SHA-256 over every file a CLI call writes, so two calls agree
  only if their outputs are byte-identical.
* The exact revision check: the revised total recomputed from the
  closed-form areas in ``fractions.Fraction`` arithmetic on the fit's
  float coefficients (``fit.a``, ``fit.b``, ``fit.c``), which are exact
  binary fractions.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# a value this close to an integer may floor either way in floating point
BOUNDARY_TOLERANCE = 1e-9
RATIO_TOLERANCE = 1e-9


def files_digest(root: Path, files: list[Path]) -> str:
    """One digest over the given files' names relative to ``root`` and bytes."""
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(hashlib.sha256(path.read_bytes()).hexdigest().encode())
        h.update(b"\n")
    return h.hexdigest()


def tree_digest(root: Path) -> str:
    """Digest of every regular file below ``root``."""
    root = Path(root)
    return files_digest(root, [p for p in root.rglob("*") if p.is_file()])


def _area_full(a: Fraction, b: Fraction, c: Fraction, N: int) -> Fraction:
    return Fraction(N * N) * (N * (3 * a * N + 4 * b) + 6 * c) / 12


def _area_played(a: Fraction, b: Fraction, c: Fraction, n: int, m: int, N: int) -> Fraction:
    return (
        3 * a * (n**4 + N**4 - m**4)
        + 4 * b * (n**3 + N**3 - m**3)
        + 6 * c * (n**2 + N**2 - m**2)
    ) / 12


def exact_revision(fit, doc: dict) -> tuple[Fraction, Fraction]:
    """Exact (ratio, current score plus scaled remaining runs) for a scenario."""
    a, b, c = Fraction(fit.a), Fraction(fit.b), Fraction(fit.c)
    N = doc["N"]
    full = _area_full(a, b, c, N)
    ratio = Fraction(1)
    intervals = [(doc["n"], doc["m"])] + [tuple(p) for p in doc.get("more_intervals", ())]
    for start, restart in intervals:
        if restart != start:
            ratio *= _area_played(a, b, c, start, restart, N) / full
    current = doc["current_score"]
    return ratio, current + ratio * (doc["target_score"] - current)


@dataclass(frozen=True)
class Expected:
    """What a correct revision of one scenario reports."""

    ratio: float
    revised_total: int

    def matches(self, payload: dict) -> bool:
        ratio = payload.get("ratio")
        return (
            payload.get("revised_total") == self.revised_total
            and payload.get("to_win") == self.revised_total + 1
            and isinstance(ratio, float)
            and abs(ratio - self.ratio) <= RATIO_TOLERANCE * max(1.0, abs(self.ratio))
        )


def expected_revision(fit, doc: dict) -> Expected | None:
    """The exact answer, or None when the exact value lies within the
    boundary tolerance of an integer, where floating point may floor
    either way and the check is skipped."""
    ratio, value = exact_revision(fit, doc)
    if abs(value - round(value)) < BOUNDARY_TOLERANCE:
        return None
    return Expected(float(ratio), math.floor(value))


# ---------------------------------------------------------------------------
# summary statistics

_TAILS = (99.9, 99.0, 95.0, 90.0)


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    k = (len(ordered) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def tail_percentile(n: int) -> float | None:
    """The highest reported percentile with at least ten samples beyond it."""
    for p in _TAILS:
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return None


def median(values: list[float]) -> float:
    return statistics.median(values)
