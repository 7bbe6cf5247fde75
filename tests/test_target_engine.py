"""Closed-form area and target-revision tests."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from rainrule import (
    DegenerateCurveError,
    InterruptionScenario,
    InvalidScenarioError,
    PolyFit,
    RevisedTarget,
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


class TestRecordContracts:
    """The decision path's three records: construction, defaults, validation,
    value equality, immutability and repr."""

    SCENARIO = dict(n=120, m=180, N=300, target_score=275, current_score=100)

    def records(self):
        return [
            PolyFit(-0.0031, 1.0298, 0.0, 3, 12.5),
            InterruptionScenario(120, 180, 300, 275, 100, 4, ((200, 230),)),
            RevisedTarget(0.75, 131.25, 231),
        ]

    def test_positional_and_keyword_construction_agree(self):
        by_keyword = [
            PolyFit(a=-0.0031, b=1.0298, c=0.0, degree=3, rss=12.5),
            InterruptionScenario(
                **self.SCENARIO, wickets_at_stoppage=4,
                more_intervals=tuple(tuple(p) for p in [[200, 230]]),
            ),
            RevisedTarget(ratio=0.75, runs_remaining=131.25, revised_total=231),
        ]
        assert by_keyword == self.records()
        fit, scenario, revision = by_keyword
        assert (fit.a, fit.b, fit.c, fit.degree, fit.rss) == (-0.0031, 1.0298, 0.0, 3, 12.5)
        assert (scenario.n, scenario.m, scenario.N) == (120, 180, 300)
        assert (scenario.target_score, scenario.current_score) == (275, 100)
        assert scenario.wickets_at_stoppage == 4
        assert scenario.more_intervals == ((200, 230),)
        assert (revision.ratio, revision.runs_remaining, revision.revised_total) == (
            0.75, 131.25, 231
        )

    def test_defaults(self):
        assert PolyFit(0.0, 1.0, 0.5, 2).rss == 0.0
        scenario = InterruptionScenario(**self.SCENARIO)
        assert scenario.wickets_at_stoppage == 0
        assert scenario.more_intervals == ()
        assert scenario.intervals == ((120, 180),)

    def test_more_intervals_become_a_tuple_of_tuples(self):
        for given in ([[200, 230], [240, 250]], ([200, 230], (240, 250)),
                      iter([(200, 230), [240, 250]])):
            scenario = InterruptionScenario(**self.SCENARIO, more_intervals=given)
            assert scenario.more_intervals == ((200, 230), (240, 250))
            pairs = scenario.more_intervals
            assert type(pairs) is tuple and all(type(p) is tuple for p in pairs)
        listed = InterruptionScenario(**self.SCENARIO, more_intervals=[[200, 230]])
        assert listed == InterruptionScenario(**self.SCENARIO, more_intervals=((200, 230),))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(a=0.0, b=1.0, c=0.0, degree=1), "degree must be 2 or 3, got 1"),
            (dict(a=0.0, b=1.0, c=0.0, degree=3.7), "degree must be 2 or 3, got 3.7"),
            (dict(a=0.1, b=1.0, c=0.0, degree=2), "degree-2 fit requires a = 0"),
        ],
    )
    def test_polyfit_messages(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            PolyFit(**kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(N=0), "N: scheduled balls must be positive"),
            (dict(N=0, target_score=0), "N: scheduled balls must be positive"),
            (dict(target_score=0, current_score=0), "target_score: must be positive"),
            (dict(current_score=-1), "current_score: must be non-negative"),
            (dict(current_score=275),
             "current_score: chase already complete (current_score >= target_score)"),
            (dict(wickets_at_stoppage=-1), "wickets_at_stoppage: must be in [0, 10]"),
            (dict(wickets_at_stoppage=11), "wickets_at_stoppage: must be in [0, 10]"),
            (dict(n=200), "n/m: intervals must satisfy 0 <= n <= m <= N in order"),
            (dict(m=301), "n/m: intervals must satisfy 0 <= n <= m <= N in order"),
            (dict(more_intervals=((170, 200),)),
             "more_intervals[0]: intervals must satisfy 0 <= n <= m <= N in order"),
            (dict(more_intervals=((200, 230), (250, 240))),
             "more_intervals[1]: intervals must satisfy 0 <= n <= m <= N in order"),
            (dict(more_intervals=((200, 310),)),
             "more_intervals[0]: intervals must satisfy 0 <= n <= m <= N in order"),
        ],
    )
    def test_scenario_messages(self, changes, message):
        with pytest.raises(InvalidScenarioError) as info:
            InterruptionScenario(**dict(self.SCENARIO, **changes))
        assert str(info.value) == message

    def test_value_equality_and_hashing(self):
        for one, two in zip(self.records(), self.records()):
            assert one is not two and one == two and not one != two
            assert hash(one) == hash(two)
        fit, scenario, revision = self.records()
        assert fit != PolyFit(-0.0031, 1.0298, 0.0, 3)
        assert scenario != InterruptionScenario(120, 180, 300, 275, 100, 4)
        assert revision != RevisedTarget(0.75, 131.25, 230)
        assert fit != (fit.a, fit.b, fit.c, fit.degree, fit.rss)
        assert len({fit, PolyFit(-0.0031, 1.0298, 0.0, 3, 12.5), scenario, revision}) == 3

    def test_immutable(self):
        for record, field in zip(self.records(), ("a", "n", "ratio")):
            for name in (field, "unknown"):
                with pytest.raises(AttributeError):
                    setattr(record, name, 1)
            with pytest.raises(AttributeError):
                delattr(record, field)
            assert getattr(record, field) != 1

    def test_repr_names_the_fields(self):
        fit, scenario, revision = self.records()
        assert repr(fit) == "PolyFit(a=-0.0031, b=1.0298, c=0.0, degree=3, rss=12.5)"
        assert repr(scenario) == (
            "InterruptionScenario(n=120, m=180, N=300, target_score=275, current_score=100, "
            "wickets_at_stoppage=4, more_intervals=((200, 230),))"
        )
        assert repr(revision) == (
            "RevisedTarget(ratio=0.75, runs_remaining=131.25, revised_total=231)"
        )

    def test_copies_and_pickles_equal(self):
        for record in self.records():
            assert copy.copy(record) == record
            assert copy.deepcopy(record) == record
            assert pickle.loads(pickle.dumps(record)) == record
