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

from .ball_log import (
    DeliveryEvent,
    ExtrasKind,
    InningsRecord,
    MatchFormat,
    MatchRecord,
)

__all__ = [
    "DEFAULT_SEED",
    "fixture_path",
    "synthetic_corpus",
    "demo_corpus",
    "exponential_profile_corpus",
    "match_to_json",
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

    deliveries: list[DeliveryEvent] = []
    wickets = 0
    legal = 0
    over = 0
    ball_in_over = 0
    legal_in_over = 0
    for i in range(draws):
        if legal >= scheduled or wickets >= 10:
            break
        ball_in_over += 1
        kind = kind_draw[i]
        if kind < _WIDE_RATE + _NO_BALL_RATE:
            illegal = ExtrasKind.WIDE if kind < _WIDE_RATE else ExtrasKind.NO_BALL
            deliveries.append(DeliveryEvent(over, ball_in_over, 0, 1, illegal, False, False))
            continue
        if wicket_draw[i] < hazard:
            event = DeliveryEvent(
                over, ball_in_over, 0, 0, ExtrasKind.NONE, True, True
            )
            wickets += 1
        elif kind > 1.0 - _BYE_RATE:
            side = ExtrasKind.BYE if kind > 1.0 - _BYE_RATE / 2 else ExtrasKind.LEG_BYE
            event = DeliveryEvent(
                over, ball_in_over, 0, int(bye_draw[i]), side, False, True
            )
        else:
            event = DeliveryEvent(
                over, ball_in_over, int(run_draw[i]), 0, ExtrasKind.NONE, False, True
            )
        deliveries.append(event)
        legal += 1
        legal_in_over += 1
        if legal_in_over == 6:
            over += 1
            legal_in_over = 0
            ball_in_over = 0
    return InningsRecord(innings_index=index, batting_team=team, deliveries=tuple(deliveries))


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
    matches = []
    for w in range(10):
        deliveries: list[DeliveryEvent] = []
        fallen = 0
        for k in range(max_overs):
            for b in range(1, 7):
                wicket = fallen < w
                fallen += wicket
                deliveries.append(
                    DeliveryEvent(
                        over=k,
                        ball_in_over=b,
                        batter_runs=over_runs[k] if b == 1 else 0,
                        extras_runs=0,
                        extras_kind=ExtrasKind.NONE,
                        wicket=wicket,
                        legal=True,
                    )
                )
        matches.append(
            MatchRecord(
                match_id=f"{format.value}-profile-w{w}-00",
                format=format,
                date=date(2019, 1, 1),
                teams=("Profile A", "Profile B"),
                venue="Profile Park",
                innings=(InningsRecord(1, f"Profile {w} down", tuple(deliveries)),),
            )
        )
    return matches


# ---------------------------------------------------------------------------
# writing matches back out as ball-by-ball JSON documents

_MATCH_TYPE = {MatchFormat.ODI: "ODI", MatchFormat.T20I: "T20", MatchFormat.IPL: "T20"}
_EVENT_NAME = {
    MatchFormat.ODI: "Fixture ODI Series",
    MatchFormat.T20I: "Fixture T20 Internationals",
    MatchFormat.IPL: "Indian Premier League (fixture)",
}
_EXTRAS_KEY = {
    ExtrasKind.WIDE: "wides",
    ExtrasKind.NO_BALL: "noballs",
    ExtrasKind.BYE: "byes",
    ExtrasKind.LEG_BYE: "legbyes",
    ExtrasKind.PENALTY: "penalty",
}


def _delivery_doc(d: DeliveryEvent) -> dict:
    doc: dict = {
        "batter": "Batter",
        "bowler": "Bowler",
        "non_striker": "Runner",
        "runs": {
            "batter": d.batter_runs,
            "extras": d.extras_runs,
            "total": d.total_runs,
        },
    }
    if d.extras_kind is not ExtrasKind.NONE:
        doc["extras"] = {_EXTRAS_KEY[d.extras_kind]: d.extras_runs}
    if d.wicket:
        doc["wickets"] = [{"kind": "bowled", "player_out": "Batter"}]
    return doc


def match_to_json(match: MatchRecord) -> dict:
    """Match document in the ball-by-ball JSON layout accepted by the parser."""
    innings_docs = []
    for inn in match.innings:
        overs: dict[int, list[dict]] = {}
        for d in inn.deliveries:
            overs.setdefault(d.over, []).append(_delivery_doc(d))
        innings_docs.append(
            {
                "team": inn.batting_team,
                "overs": [
                    {"over": over, "deliveries": docs}
                    for over, docs in sorted(overs.items())
                ],
            }
        )
    return {
        "meta": {"data_version": "1.1.0", "revision": 1},
        "info": {
            "match_type": _MATCH_TYPE[match.format],
            "dates": [match.date.isoformat()],
            "teams": list(match.teams),
            "venue": match.venue,
            "event": {"name": _EVENT_NAME[match.format]},
        },
        "innings": innings_docs,
    }


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
