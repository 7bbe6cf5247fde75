"""Closed-form area and target-revision tests."""

from __future__ import annotations

import copy
import math
import pickle
import random
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


# ---------------------------------------------------------------------------
# the one-pass decision path against the layered one it replaced, kept here
# verbatim as the oracle of every float, every message and their precedence


def ref_scenario(n, m, N, target_score, current_score, wickets_at_stoppage=0,
                 more_intervals=()):
    """The fields the layered constructor stored, or the error it raised."""
    if N <= 0:
        raise InvalidScenarioError("N: scheduled balls must be positive")
    if target_score <= 0:
        raise InvalidScenarioError("target_score: must be positive")
    if current_score < 0:
        raise InvalidScenarioError("current_score: must be non-negative")
    if current_score >= target_score:
        raise InvalidScenarioError(
            "current_score: chase already complete (current_score >= target_score)"
        )
    if not 0 <= wickets_at_stoppage <= 10:
        raise InvalidScenarioError("wickets_at_stoppage: must be in [0, 10]")
    more_intervals = tuple(tuple(p) for p in more_intervals)
    last = 0
    for i, (start, restart) in enumerate(((n, m),) + more_intervals):
        label = "n/m" if i == 0 else f"more_intervals[{i - 1}]"
        if not last <= start <= restart <= N:
            raise InvalidScenarioError(
                f"{label}: intervals must satisfy 0 <= n <= m <= N in order"
            )
        last = restart
    return (n, m, N, target_score, current_score, wickets_at_stoppage, more_intervals)


def ref_as_int(value, label):
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not int or not -2**53 <= value <= 2**53:
        raise InvalidScenarioError(f"{label}: expected an integer, |n| <= 2**53, got {value!r}")
    return value


def ref_scenario_from_json(doc):
    if not isinstance(doc, dict):
        raise InvalidScenarioError("scenario document must be a JSON object")
    try:
        values = {key: ref_as_int(doc[key], key)
                  for key in ("n", "m", "N", "target_score", "current_score")}
    except KeyError as e:
        raise InvalidScenarioError(f"{e.args[0]}: missing required field") from None
    wickets = ref_as_int(doc.get("wickets", 0), "wickets")
    try:
        more_intervals = tuple(
            (ref_as_int(a, "more_intervals"), ref_as_int(b, "more_intervals"))
            for a, b in doc.get("more_intervals", ())
        )
    except (TypeError, ValueError) as e:
        raise InvalidScenarioError(f"more_intervals: expected [start, restart] pairs ({e})")
    return ref_scenario(**values, wickets_at_stoppage=wickets, more_intervals=more_intervals)


def ref_area_full(fit, N):
    if N <= 0:
        raise InvalidScenarioError("N: scheduled balls must be positive")
    a, b, c = fit.a, fit.b, fit.c
    return N * N * (N * (3 * a * N + 4 * b) + 6 * c) / 12


def ref_area_interrupted(fit, n, m, N):
    if not 0 <= n <= m <= N:
        raise InvalidScenarioError("n/m/N: must satisfy 0 <= n <= m <= N")
    if N <= 0:
        raise InvalidScenarioError("N: scheduled balls must be positive")
    a, b, c = fit.a, fit.b, fit.c
    return (
        3 * a * (n**4 + N**4 - m**4)
        + 4 * b * (n**3 + N**3 - m**3)
        + 6 * c * (n**2 + N**2 - m**2)
    ) / 12


def ref_usable(label, value, positive=False):
    if not (-math.inf < value < math.inf and (value > 0 or not positive)):
        raise DegenerateCurveError(f"{label} is {value!r}; fit unusable for target revision")
    return value


def ref_resource_ratio(fit, fields):
    n, m, N, _, _, _, more_intervals = fields
    full = ref_usable("full-game area", ref_area_full(fit, N), positive=True)
    ratio = None
    for start, restart in ((n, m),) + more_intervals:
        if restart == start:
            continue
        factor = ref_area_interrupted(fit, start, restart, N) / full
        ratio = factor if ratio is None else ratio * factor
    return 1.0 if ratio is None else ref_usable("area ratio", ratio)


def ref_revision_json(fit, fields):
    ratio = ref_resource_ratio(fit, fields)
    target_score, current_score = fields[3], fields[4]
    runs_remaining = ref_usable("runs_remaining", ratio * (target_score - current_score))
    revised_total = math.floor(current_score + runs_remaining)
    return {"ratio": ratio, "runs_remaining": runs_remaining,
            "revised_total": revised_total, "to_win": revised_total + 1}


def outcome(call, *args, **kwargs):
    """The repr of what ``call`` returns, or its error's type and message."""
    try:
        return repr(call(*args, **kwargs))
    except Exception as e:  # every error, so that a TypeError must match as well
        return f"{type(e).__name__}: {e}"


def fields_of(scenario):
    return tuple(getattr(scenario, name) for name in InterruptionScenario.__slots__)


def seeded_fits(rng):
    """Float and Fraction fits, sane and degenerate, for one grid."""
    fits = [WORKED_FIT, PolyFit(-4.06e-5, 5.13e-3, 0.826, 3), PolyFit(0.0, 0.0, 0.0, 3),
            PolyFit(-1.0, 0.0, 0.0, 3), PolyFit(0.0, 1e305, 0.0, 3),
            PolyFit(0.0, math.inf, 0.0, 3), PolyFit(0.0, math.nan, 0.0, 3),
            PolyFit(1e303, -2.25e305, 1e300, 3), PolyFit(1e290, -2.25e292, 1.0, 3)]
    for _ in range(12):
        a = 0.0 if rng.random() < 0.3 else rng.uniform(-1e-4, 1e-5)
        fits.append(PolyFit(a, rng.uniform(-2e-3, 1e-2), rng.uniform(-0.2, 1.5),
                            3 if a else 2))
        fits.append(PolyFit(Fraction(rng.randint(-400, 40), 10**7),
                            Fraction(rng.randint(-20, 100), 10**4),
                            Fraction(rng.randint(-2, 15), 10), 3))
    return fits


def seeded_scenarios(rng, N):
    """Valid scenario arguments: 0 to 2 more intervals, some of them empty,
    and the whole innings lost (n = 0, m = N)."""
    out = [(0, N, N, 250, 10, 0, ()), (0, 0, N, 250, 10, 0, ()), (N, N, N, 2**53, 0, 10, ()),
           (0, N // 2, N, 2**53, 0, 0, ())]
    for _ in range(60):
        marks = sorted(rng.randint(0, N) for _ in range(2 * (1 + rng.randint(0, 2))))
        if rng.random() < 0.3:  # an empty interval somewhere
            i = 2 * rng.randrange(len(marks) // 2)
            marks[i + 1] = marks[i]
        target = rng.randint(1, 3 * N)
        pairs = tuple(tuple(marks[i:i + 2]) for i in range(2, len(marks), 2))
        out.append((marks[0], marks[1], N, target, rng.randint(0, target - 1),
                    rng.randint(0, 10), pairs))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_every_revision_is_the_layered_one_bit_for_bit(seed):
    rng = random.Random(seed)
    fits = seeded_fits(rng)
    compared = 0
    for N in (120, 300):
        for args in seeded_scenarios(rng, N):
            scenario = InterruptionScenario(*args)
            assert repr(fields_of(scenario)) == repr(ref_scenario(*args))
            for fit in fits:
                want = outcome(ref_revision_json, fit, ref_scenario(*args))
                got = outcome(lambda: revision_to_json(revise_target(fit, scenario)))
                assert got == want, (fit, args)
                assert outcome(resource_ratio, fit, scenario) == outcome(
                    ref_resource_ratio, fit, ref_scenario(*args)
                )
                compared += 1
            for n, m in ((args[0], args[1]), (0, N), (N, N)):
                fit = fits[compared % len(fits)]
                assert outcome(area_interrupted, fit, n, m, N) == outcome(
                    ref_area_interrupted, fit, n, m, N
                )
            assert outcome(area_full, fit, N) == outcome(ref_area_full, fit, N)
    assert compared == 2 * 64 * len(fits)


def test_area_argument_checks_are_the_layered_ones():
    for args in ((100, 50, 300), (0, 350, 300), (-1, 5, 300), (0, 0, 0), (5, 5, -1)):
        assert outcome(area_interrupted, WORKED_FIT, *args) == outcome(
            ref_area_interrupted, WORKED_FIT, *args
        )
    for N in (0, -5, 1, 300):
        assert outcome(area_full, WORKED_FIT, N) == outcome(ref_area_full, WORKED_FIT, N)


BAD_VALUES = [None, "7", True, False, 7.5, math.nan, math.inf, -1, 0, 301, 2**53 + 1,
              1e300, [], {}, [7], 10**400]
BAD_INTERVALS = [None, 0, "", "ab", [], {}, {"a": 1}, [[1]], [[1, 2, 3]], [["a", 2]],
                 [[200, 220], [210, 230]], [[250, 240]], [[200, 310]], [5], [[200.0, 220]],
                 [[200.5, 220]], [[True, 220]], [[200, 220], None], [[200, 220], [230, 240]],
                 [(260, 270)], "12"]


@pytest.mark.parametrize("seed", range(4))
def test_every_malformed_document_fails_as_the_layered_path_did(seed):
    rng = random.Random(1000 + seed)
    keys = ["n", "m", "N", "target_score", "current_score", "wickets", "more_intervals"]
    for _ in range(400):
        doc = {"format": "odi", "n": 120, "m": 180, "N": 300, "target_score": 275,
               "current_score": 100}
        if rng.random() < 0.5:
            doc["wickets"] = rng.randint(0, 10)
        for _ in range(rng.randint(1, 3)):
            key = rng.choice(keys)
            roll = rng.random()
            if roll < 0.15:
                doc.pop(key, None)
            elif key == "more_intervals":
                doc[key] = rng.choice(BAD_INTERVALS)
            elif roll < 0.6:
                doc[key] = rng.choice(BAD_VALUES)
            else:
                doc[key] = rng.randint(-2, 320)
        want = outcome(ref_scenario_from_json, doc)
        got = outcome(lambda: fields_of(scenario_from_json(doc)))
        assert got == want, doc
    for doc in (None, [], "{}", 7):
        assert outcome(scenario_from_json, doc) == outcome(ref_scenario_from_json, doc)


@pytest.mark.parametrize("seed", range(2))
def test_every_malformed_constructor_call_fails_as_the_layered_one_did(seed):
    rng = random.Random(2000 + seed)
    values = BAD_VALUES + [3, 150, 2.5, Fraction(7, 2)]
    for _ in range(400):
        args = [120, 180, 300, 275, 100, 0, ((200, 230),)]
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(len(args))
            args[i] = rng.choice(BAD_INTERVALS if i == 6 else values)
        want = outcome(ref_scenario, *args)
        got = outcome(lambda: fields_of(InterruptionScenario(*args)))
        assert got == want, args
    # a one-shot iterator is read once, and its pairs kept as tuples
    args = (120, 180, 300, 275, 100, 0)
    assert outcome(lambda: fields_of(InterruptionScenario(*args, iter([[200, 230]])))) == (
        outcome(ref_scenario, *args, iter([[200, 230]]))
    )
