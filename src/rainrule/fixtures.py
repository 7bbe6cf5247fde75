"""Deterministic fixture corpora: bundled tiny files plus synthetic generators.

The synthetic matches are not cricket simulations.  They are shaped so every
downstream stage has enough support with the default thresholds: most
innings run their full scheduled length, wickets fall at a realistic rate,
a few wides and no-balls exercise the legal-ball crediting rule, and first
innings score faster than second innings.
"""

from __future__ import annotations

import json
import math
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .ball_log import ExtrasKind, InningsRecord, MatchFormat, MatchRecord, match_to_json

__all__ = [
    "DEFAULT_SEED",
    "fixture_path",
    "synthetic_corpus",
    "demo_corpus",
    "exponential_profile_corpus",
    "write_corpus",
]

DEFAULT_SEED = 20190401

_DATA_DIR = Path(__file__).resolve().parent / "data"

_TEAMS = (
    "Northern Lights",
    "Harbour Kings",
    "Mountain XI",
    "River Rovers",
    "Lakeside CC",
    "Desert Stars",
)
_VENUES = ("Fixture Oval", "Synthetic Park", "Sample Gardens")

# scoring-ball run values and their conditional shape; the shape mean scales
# the probability of a scoring ball to hit a target mean per legal ball
_RUN_VALUES = np.array([0, 1, 2, 3, 4, 6])
_RUN_SHAPE = np.array([0.55, 0.14, 0.02, 0.22, 0.07])
_SHAPE_MEAN = float(np.array([1, 2, 3, 4, 6]) @ _RUN_SHAPE)

_MEAN_PER_BALL = {
    (MatchFormat.ODI, 1): 0.90,
    (MatchFormat.ODI, 2): 0.72,
    (MatchFormat.T20I, 1): 1.28,
    (MatchFormat.T20I, 2): 1.14,
    (MatchFormat.IPL, 1): 1.34,
    (MatchFormat.IPL, 2): 1.22,
}
_WICKET_HAZARD = {
    MatchFormat.ODI: 0.021,
    MatchFormat.T20I: 0.047,
    MatchFormat.IPL: 0.045,
}
_WIDE_RATE = 0.025
_NO_BALL_RATE = 0.008
_BYE_RATE = 0.012

_FORMAT_STREAM = {MatchFormat.ODI: 0, MatchFormat.T20I: 1, MatchFormat.IPL: 2}

# the planted remaining-run curve z0 * (1 - exp(-decay * u)) of exponential_profile_corpus
_Z0 = 250.0
_DECAY = 0.04


def fixture_path(name: str) -> Path:
    """Path of a bundled fixture file, e.g. ``tiny_odi.json`` or ``tiny_log.csv``."""
    path = _DATA_DIR / name
    if not path.is_file():
        have = ", ".join(sorted(p.name for p in _DATA_DIR.iterdir()))
        raise FileNotFoundError(f"no bundled fixture {name!r} (have: {have})")
    return path


def _run_probs(mean_per_ball: float) -> np.ndarray:
    p_score = mean_per_ball / _SHAPE_MEAN
    if not 0.0 < p_score < 1.0:
        raise ValueError(f"mean per ball {mean_per_ball} out of generator range")
    return np.concatenate(([1.0 - p_score], p_score * _RUN_SHAPE))


def _synthetic_innings(
    rng: np.random.Generator, format: MatchFormat, index: int, team: str
) -> InningsRecord:
    scheduled = format.scheduled_balls
    probs = _run_probs(_MEAN_PER_BALL[(format, index)])
    hazard = _WICKET_HAZARD[format]

    # one deterministic pre-draw per innings; the margin covers illegal balls
    draws = scheduled + 60
    kind_draw = rng.random(draws)
    wicket_draw = rng.random(draws)
    run_draw = rng.choice(_RUN_VALUES, size=draws, p=probs)
    bye_draw = rng.integers(1, 3, size=draws)

    # a delivery is illegal (wide or no-ball), else a wicket, else a bye or
    # leg-bye, else a scoring ball; the innings stops before the delivery
    # after the last scheduled legal ball or the tenth wicket
    illegal = kind_draw < _WIDE_RATE + _NO_BALL_RATE
    wicket = ~illegal & (wicket_draw < hazard)
    bye = ~illegal & ~wicket & (kind_draw > 1.0 - _BYE_RATE)
    legal_before = np.cumsum(~illegal) - ~illegal
    stop = (legal_before >= scheduled) | (np.cumsum(wicket) - wicket >= 10)
    n = int(stop.argmax()) if stop.any() else draws
    # an over ends after its sixth legal ball; ball_in_over counts every delivery
    over = legal_before // 6
    ball_in_over = np.arange(draws) - np.searchsorted(over, over) + 1
    kind = np.select(
        [kind_draw < _WIDE_RATE, illegal, bye & (kind_draw > 1.0 - _BYE_RATE / 2), bye],
        [k.code for k in (ExtrasKind.WIDE, ExtrasKind.NO_BALL, ExtrasKind.BYE, ExtrasKind.LEG_BYE)],
        ExtrasKind.NONE.code,
    )
    batter = np.where(illegal | wicket | bye, 0, run_draw)
    extras = np.select([illegal, bye], [1, bye_draw], 0)
    columns = (over, ball_in_over, batter, extras, kind, wicket)
    return InningsRecord(index, team, *(column[:n] for column in columns))


def synthetic_corpus(
    format: MatchFormat,
    n_matches: int,
    *,
    seed: int = DEFAULT_SEED,
) -> list[MatchRecord]:
    """Generate a deterministic corpus of full two-innings matches.

    The same (format, n_matches, seed) always yields byte-identical matches;
    match dates advance two days per match from 2019-01-05.
    """
    rng = np.random.default_rng([seed, _FORMAT_STREAM[format]])
    matches = []
    for i in range(n_matches):
        home = _TEAMS[i % len(_TEAMS)]
        away = _TEAMS[(i + 1 + i // len(_TEAMS)) % len(_TEAMS)]
        if home == away:
            away = _TEAMS[(i + 2) % len(_TEAMS)]
        matches.append(
            MatchRecord(
                match_id=f"{format.value}-{i:04d}",
                format=format,
                date=date(2019, 1, 5) + timedelta(days=2 * i),
                teams=(home, away),
                venue=_VENUES[i % len(_VENUES)],
                innings=(
                    _synthetic_innings(rng, format, 1, home),
                    _synthetic_innings(rng, format, 2, away),
                ),
            )
        )
    return matches


def demo_corpus() -> list[MatchRecord]:
    """Mixed-format corpus sized for the full pipeline with default thresholds."""
    return (
        synthetic_corpus(MatchFormat.ODI, 64)
        + synthetic_corpus(MatchFormat.T20I, 48)
        + synthetic_corpus(MatchFormat.IPL, 48)
    )


def exponential_profile_corpus(format: MatchFormat) -> list[MatchRecord]:
    """Single-innings matches whose remaining-run profile follows
    ``z0 * (1 - exp(-decay * u))`` (z0 = 250, decay = 0.04) at every
    whole-over mark, to nearest run.

    For each wicket state w = 0..9, one innings is produced with w wickets
    falling on the first w legal balls, so the (overs remaining, wickets)
    cell means reproduce the planted curve up to integer rounding.
    """
    max_overs = format.scheduled_overs
    remaining = [round(_Z0 * (1.0 - math.exp(-_DECAY * u))) for u in range(max_overs + 1)]
    over_runs = [
        remaining[max_overs - k] - remaining[max_overs - k - 1] for k in range(max_overs)
    ]
    balls = np.arange(6 * max_overs)
    over, ball_in_over = balls // 6, balls % 6 + 1
    batter = np.where(ball_in_over == 1, np.repeat(over_runs, 6), 0)
    zero = np.zeros_like(balls)  # no extras, every delivery legal
    return [
        MatchRecord(
            match_id=f"{format.value}-profile-w{w}-00",
            format=format,
            date=date(2019, 1, 1),
            teams=("Profile A", "Profile B"),
            venue="Profile Park",
            innings=(
                InningsRecord(
                    1, f"Profile {w} down", over, ball_in_over, batter, zero, zero, balls < w
                ),
            ),
        )
        for w in range(10)
    ]


def write_corpus(matches, directory: str | Path) -> list[Path]:
    """Write one ``<match_id>.json`` per match; returns the sorted paths."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    paths = []
    for match in matches:
        path = root / f"{match.match_id}.json"
        path.write_text(
            json.dumps(match_to_json(match), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        paths.append(path)
    return sorted(paths)
