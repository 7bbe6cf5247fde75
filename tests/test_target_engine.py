"""Closed-form area and target-revision tests."""

from __future__ import annotations

from fractions import Fraction

import pytest

from rainrule import (
    DegenerateCurveError,
    InterruptionScenario,
    InvalidScenarioError,
    PolyFit,
    area_full,
    area_interrupted,
    resource_ratio,
    revise_target,
    revision_to_json,
    scenario_from_json,
)

WORKED_FIT = PolyFit(a=-0.0031, b=1.0298, c=0.0, degree=3)
WORKED = InterruptionScenario(n=120, m=180, N=300, target_score=275, current_score=100)

# frozen from exact rational evaluation of the closed forms
FULL_AREA = 2_990_700.0
INTERRUPTED_AREA = 2_234_793.6
EXACT_RATIO = Fraction(310_388, 415_375)


class TestClosedFormAreas:
    def test_worked_example_values(self):
        assert area_full(WORKED_FIT, 300) == pytest.approx(FULL_AREA, rel=1e-12)
        assert area_interrupted(WORKED_FIT, 120, 180, 300) == pytest.approx(
            INTERRUPTED_AREA, rel=1e-12
        )

    def test_exact_rational_ratio(self):
        fit = PolyFit(
            a=Fraction(-31, 10000), b=Fraction(10298, 10000), c=Fraction(0), degree=3
        )
        full = area_full(fit, 300)
        part = area_interrupted(fit, 120, 180, 300)
        assert isinstance(full, Fraction) and isinstance(part, Fraction)
        assert part / full == EXACT_RATIO

    def test_interrupted_with_empty_interval_is_full_bit_for_bit(self):
        fit = PolyFit(
            a=Fraction(-7, 2000), b=Fraction(21, 20), c=Fraction(3, 10), degree=3
        )
        for n in (0, 37, 150, 300):
            assert area_interrupted(fit, n, n, 300) == area_full(fit, 300)

    def test_bounds_validation(self):
        with pytest.raises(InvalidScenarioError):
            area_interrupted(WORKED_FIT, 100, 50, 300)
        with pytest.raises(InvalidScenarioError):
            area_interrupted(WORKED_FIT, 0, 350, 300)
        with pytest.raises(InvalidScenarioError):
            area_full(WORKED_FIT, 0)


class TestResourceRatio:
    def test_worked_example_ratio(self):
        ratio = resource_ratio(WORKED_FIT, WORKED)
        assert ratio == pytest.approx(float(EXACT_RATIO), abs=1e-12)
        assert 0.745 <= ratio <= 0.750

    def test_no_lost_balls_is_exactly_one(self):
        scenario = InterruptionScenario(
            n=150, m=150, N=300, target_score=275, current_score=100
        )
        assert resource_ratio(WORKED_FIT, scenario) == 1.0

    def test_everything_lost_is_exactly_zero(self):
        scenario = InterruptionScenario(
            n=0, m=300, N=300, target_score=275, current_score=100
        )
        assert resource_ratio(WORKED_FIT, scenario) == 0.0

    def test_multiple_intervals_multiply(self):
        double = InterruptionScenario(
            n=60, m=90, N=300, target_score=275, current_score=40,
            more_intervals=((180, 240),),
        )
        first = InterruptionScenario(n=60, m=90, N=300, target_score=275, current_score=40)
        second = InterruptionScenario(n=180, m=240, N=300, target_score=275, current_score=40)
        assert resource_ratio(WORKED_FIT, double) == pytest.approx(
            resource_ratio(WORKED_FIT, first) * resource_ratio(WORKED_FIT, second),
            rel=1e-15,
        )

    def test_degenerate_curve_rejected(self):
        flat = PolyFit(a=0.0, b=0.0, c=0.0, degree=3)
        with pytest.raises(DegenerateCurveError):
            resource_ratio(flat, WORKED)
        sinking = PolyFit(a=-1.0, b=0.0, c=0.0, degree=3)
        with pytest.raises(DegenerateCurveError):
            resource_ratio(sinking, WORKED)

    @pytest.mark.parametrize("b", [1e305, float("inf"), float("nan")])
    def test_non_finite_area_rejected(self, b):
        # 1e305 overflows the full area to inf, and inf / inf gave a nan ratio
        with pytest.raises(DegenerateCurveError, match="full-game area"):
            revise_target(PolyFit(a=0.0, b=b, c=0.0, degree=3), WORKED)

    @pytest.mark.parametrize(
        "fit, lost, label",
        [
            # the full area's inner sum cancels, the interrupted terms overflow
            (PolyFit(a=1e303, b=-2.25e305, c=1e300, degree=3), (0, 1), "area ratio"),
            (PolyFit(a=1e290, b=-2.25e292, c=1e-300, degree=3), (0, 150), "area ratio"),
            (PolyFit(a=1e290, b=-2.25e292, c=1.0, degree=3), (0, 150), "runs_remaining"),
        ],
    )
    def test_non_finite_ratio_and_runs_rejected(self, fit, lost, label):
        scenario = InterruptionScenario(
            n=lost[0], m=lost[1], N=300, target_score=2**53, current_score=0
        )
        with pytest.raises(DegenerateCurveError, match=label):
            revise_target(fit, scenario)


class TestReviseTarget:
    def test_worked_example_revision(self):
        revision = revise_target(WORKED_FIT, WORKED)
        assert revision.revised_total == 230
        assert revision.runs_remaining == pytest.approx(130.768, abs=1e-3)

    def test_no_interruption_returns_target(self):
        scenario = InterruptionScenario(
            n=120, m=120, N=300, target_score=275, current_score=100
        )
        assert revise_target(WORKED_FIT, scenario).revised_total == 275

    def test_revised_total_is_floor(self):
        revision = revise_target(WORKED_FIT, WORKED)
        assert revision.revised_total == int(100 + revision.runs_remaining // 1)
        assert 100 + revision.runs_remaining >= revision.revised_total


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(n=-1, m=10, N=300, target_score=275, current_score=0), "n/m"),
            (dict(n=20, m=10, N=300, target_score=275, current_score=0), "n/m"),
            (dict(n=10, m=310, N=300, target_score=275, current_score=0), "n/m"),
            (dict(n=10, m=20, N=0, target_score=275, current_score=0), "N"),
            (dict(n=10, m=20, N=300, target_score=0, current_score=0), "target_score"),
            (dict(n=10, m=20, N=300, target_score=275, current_score=-4), "current_score"),
            (dict(n=10, m=20, N=300, target_score=275, current_score=275), "current_score"),
            (
                dict(n=10, m=20, N=300, target_score=275, current_score=0,
                     wickets_at_stoppage=11),
                "wickets",
            ),
        ],
    )
    def test_field_level_messages(self, kwargs, field):
        with pytest.raises(InvalidScenarioError, match=field):
            InterruptionScenario(**kwargs)

    def test_intervals_must_be_ordered_and_disjoint(self):
        with pytest.raises(InvalidScenarioError, match="more_intervals"):
            InterruptionScenario(
                n=60, m=120, N=300, target_score=275, current_score=0,
                more_intervals=((100, 140),),
            )
        with pytest.raises(InvalidScenarioError, match="more_intervals"):
            InterruptionScenario(
                n=60, m=120, N=300, target_score=275, current_score=0,
                more_intervals=((240, 180),),
            )


class TestJsonInterface:
    def test_round_trip(self):
        doc = {
            "format": "odi",
            "innings": 2,
            "wickets": 4,
            "n": 120,
            "m": 180,
            "N": 300,
            "target_score": 275,
            "current_score": 100,
        }
        scenario = scenario_from_json(doc)
        assert scenario == InterruptionScenario(
            n=120, m=180, N=300, target_score=275, current_score=100,
            wickets_at_stoppage=4,
        )
        payload = revision_to_json(revise_target(WORKED_FIT, scenario))
        assert payload["revised_total"] == 230
        assert payload["to_win"] == 231
        assert set(payload) == {"ratio", "runs_remaining", "revised_total", "to_win"}

    def test_missing_field_named(self):
        with pytest.raises(InvalidScenarioError, match="target_score"):
            scenario_from_json({"n": 0, "m": 0, "N": 300, "current_score": 1})

    def test_integral_floats_accepted(self):
        scenario = scenario_from_json(
            {"n": 120.0, "m": 180.0, "N": 300, "target_score": 275, "current_score": 100}
        )
        assert scenario.n == 120

    def test_non_integral_rejected(self):
        with pytest.raises(InvalidScenarioError, match="m"):
            scenario_from_json(
                {"n": 120, "m": 180.5, "N": 300, "target_score": 275, "current_score": 100}
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("N", 1e300),
            ("N", 2**53 + 1),
            ("target_score", 10**400),
            ("current_score", True),
            ("n", "120"),
            ("m", float("nan")),
            ("more_intervals", [[1e400, 200]]),
            ("more_intervals", [[200.5, 220]]),
            ("more_intervals", [["200", 220]]),
            ("more_intervals", [[200, 2**64]]),
        ],
    )
    def test_every_integer_passes_one_rule(self, field, value):
        doc = {"n": 120, "m": 180, "N": 300, "target_score": 275, "current_score": 100}
        doc[field] = value
        with pytest.raises(InvalidScenarioError, match=f"{field}: expected an integer"):
            scenario_from_json(doc)

    def test_integers_up_to_2_53_accepted(self):
        scenario = scenario_from_json(
            {"n": 120, "m": 180, "N": 300, "target_score": 2**53, "current_score": 100.0,
             "more_intervals": [[200.0, 220]]}
        )
        assert scenario.target_score == 2**53
        assert scenario.intervals == ((120, 180), (200, 220))

    def test_more_intervals_parsed(self):
        scenario = scenario_from_json(
            {
                "n": 60, "m": 90, "N": 300, "target_score": 275, "current_score": 40,
                "more_intervals": [[180, 240]],
            }
        )
        assert scenario.intervals == ((60, 90), (180, 240))
