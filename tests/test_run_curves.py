"""Wicket-conditioned curve and constrained polynomial fit tests."""

from __future__ import annotations

import json

import numpy as np
import pytest

from rainrule import (
    EmptyCurveError,
    InningsRecord,
    MatchFormat,
    MatchRecord,
    ParseError,
    PolyFit,
    SingularFitError,
    WicketCurve,
    curve_csv,
    family_summary,
    fit_from_json,
    fit_poly,
    poly_eval,
    trajectory,
    wicket_curve,
    wicket_curves,
)
from datetime import date


def flat_innings(index, runs_per_ball, wicket_balls=()):
    """Innings of only legal deliveries with the given per-ball runs."""
    balls = np.arange(len(runs_per_ball))
    zero = np.zeros_like(balls)  # no extras, every delivery legal
    wicket = np.isin(balls + 1, list(wicket_balls))
    return InningsRecord(index, "X", balls // 6, balls % 6 + 1, runs_per_ball, zero, zero, wicket)


def one_innings_match(match_id, innings, format=MatchFormat.T20I):
    return MatchRecord(
        match_id=match_id,
        format=format,
        date=date(2019, 1, 1),
        teams=("A", "B"),
        venue="V",
        innings=(innings,),
    )


def planted_curve(a, b, c, balls, format=MatchFormat.ODI, support=None):
    balls = np.asarray(balls, dtype=np.int64)
    fit = PolyFit(a=a, b=b, c=c, degree=3 if a else 2)
    means = poly_eval(fit, balls.astype(float))
    support = np.ones_like(balls) if support is None else np.asarray(support)
    return WicketCurve(
        wickets=0, balls=balls, means=means, support=support,
        format=format, innings_index=1,
    )


class TestWicketCurve:
    def test_a_wicket_state_outside_0_to_10_is_refused(self, small_odi):
        for w in (-1, 11):
            with pytest.raises(ValueError, match=r"^wickets must be in \[0, 10\]$"):
                WicketCurve(w, np.array([1]), np.array([1.0]), np.array([1]), MatchFormat.ODI, 1)
            with pytest.raises(ValueError, match=r"^w must be in \[0, 10\]$"):
                wicket_curve(small_odi, MatchFormat.ODI, 1, w)

    def test_hand_computed_means(self):
        # two full T20 innings: constant 1 and constant 2 runs per ball
        first = one_innings_match("m1", flat_innings(1, [1] * 120))
        second = one_innings_match("m2", flat_innings(1, [2] * 120))
        curve = wicket_curve([first, second], MatchFormat.T20I, 1, 0, min_support=2)
        assert curve.balls.tolist() == list(range(1, 121))
        assert curve.means[0] == pytest.approx(1.5)
        assert curve.means[59] == pytest.approx(90.0)  # (60 + 120) / 2
        assert curve.support.tolist() == [2] * 120

    def test_conditions_on_exact_wicket_count(self):
        inn = flat_innings(1, [1] * 120, wicket_balls={41})
        match = one_innings_match("m1", inn)
        with_wicket = wicket_curve([match], MatchFormat.T20I, 1, 1, min_support=1)
        without = wicket_curve([match], MatchFormat.T20I, 1, 0, min_support=1)
        assert without.balls.tolist() == list(range(1, 41))
        assert with_wicket.balls.tolist() == list(range(41, 121))

    def test_shortened_innings_excluded(self):
        shortened = one_innings_match("m1", flat_innings(1, [1] * 30))
        with pytest.raises(EmptyCurveError):
            wicket_curve([shortened], MatchFormat.T20I, 1, 0, min_support=1)

    def test_all_out_innings_included(self):
        wickets = set(range(3, 13))  # ten wickets by ball 12
        all_out = one_innings_match("m1", flat_innings(1, [1] * 12, wickets))
        curve = wicket_curve([all_out], MatchFormat.T20I, 1, 0, min_support=1)
        assert curve.balls.tolist() == [1, 2]

    def test_min_support_filters_balls(self, small_odi):
        generous = wicket_curve(small_odi, MatchFormat.ODI, 1, 0, min_support=1)
        strict = wicket_curve(small_odi, MatchFormat.ODI, 1, 0, min_support=6)
        assert len(strict) < len(generous)
        assert np.all(strict.support >= 6)

    def test_duplicate_balls_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            WicketCurve(
                wickets=0,
                balls=np.array([5, 5]),
                means=np.array([1.0, 2.0]),
                support=np.array([1, 1]),
                format=MatchFormat.ODI,
                innings_index=1,
            )

    def test_unordered_balls_rejected(self):
        with pytest.raises(ValueError, match="unordered"):
            WicketCurve(0, np.array([2, 1]), np.ones(2), np.ones(2), MatchFormat.ODI, 1)

    def test_arrays_are_copies_of_the_callers_arrays(self):
        balls, means, support = np.arange(1, 4), np.array([1.0, 2.0, 3.0]), np.ones(3, int)
        curve = WicketCurve(0, balls, means, support, MatchFormat.ODI, 1)
        means[0] = 9.0
        assert all(a.flags.writeable for a in (balls, means, support))
        assert curve.means.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match="read-only"):
            curve.means[0] = 9.0

    @pytest.mark.parametrize("n_means", [2, 4])
    def test_columns_of_unequal_length_rejected(self, n_means):
        # a short means raised IndexError, and a long one was cut to the balls
        with pytest.raises(ValueError, match="columns differ in length"):
            WicketCurve(0, np.arange(1, 4), np.ones(n_means), np.ones(3), MatchFormat.ODI, 1)

    def test_negative_support_is_refused(self):
        # support -1 on every ball of an exact line was fitted, with rss=-9.5e-27
        with pytest.raises(ValueError, match="^every support must be at least 1$"):
            planted_curve(0.0, 1.0, 0.5, range(1, 11), support=[-1] * 10)

    def test_columns_must_be_1d(self):
        # 2-D columns built, and len() gave their number of rows
        ones = np.ones((2, 2))
        with pytest.raises(ValueError, match="^columns must be 1-D$"):
            WicketCurve(0, ones.astype(int), ones, ones.astype(int), MatchFormat.ODI, 1)

    @pytest.mark.parametrize(
        "format, ball", [(MatchFormat.ODI, 0), (MatchFormat.ODI, 301), (MatchFormat.ODI, 900),
                         (MatchFormat.T20I, 121), (MatchFormat.IPL, -5)]
    )
    def test_balls_must_lie_in_the_schedule(self, format, ball):
        # ball 0, and ball 900 of an ODI, built
        balls = np.sort([ball, 60])
        with pytest.raises(ValueError, match=f"^every ball must be in 1..{format.scheduled_balls}$"):
            WicketCurve(0, balls, np.ones(2), np.ones(2, int), format, 1)
        assert len(WicketCurve(0, [1, format.scheduled_balls], [1.0, 2.0], [1, 1], format, 2)) == 2

    @pytest.mark.parametrize("index", [0, 3, 5])
    def test_innings_index_must_be_1_or_2(self, index):
        # innings_index=5 built
        with pytest.raises(ValueError, match="^innings_index must be 1 or 2$"):
            WicketCurve(0, np.arange(1, 3), np.ones(2), np.ones(2, int), MatchFormat.ODI, index)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_means_must_be_finite(self, bad):
        # a NaN mean was reported as non-finite coefficients from the normal equations
        means = np.arange(1.0, 11.0)
        means[3] = bad
        with pytest.raises(ValueError, match="^every mean must be finite$"):
            WicketCurve(0, np.arange(1, 11), means, np.ones(10), MatchFormat.ODI, 1)


def reference_wicket_curve(corpus, format, innings_index, w, min_support):
    """(balls, means, support) for one wicket state, from its own corpus pass."""
    scheduled = format.scheduled_balls
    sums = np.zeros(scheduled + 1)
    count = np.zeros(scheduled + 1, dtype=np.int64)
    for match in corpus:
        if match.format is not format:
            continue
        for inn in match.innings:
            if inn.innings_index != innings_index:
                continue
            traj = trajectory(inn, format)
            if traj.completed_balls < scheduled and int(traj.wickets[-1]) != 10:
                continue
            mask = traj.wickets == w
            sums[traj.ball[mask]] += traj.runs[mask]
            count[traj.ball[mask]] += 1
    retained = np.nonzero(count[1:] >= min_support)[0] + 1
    return retained, sums[retained] / count[retained], count[retained]


@pytest.mark.parametrize("min_support", [1, 10])
@pytest.mark.parametrize("innings_index", [1, 2])
@pytest.mark.parametrize("fmt", list(MatchFormat))
def test_wicket_curves_match_per_state_reference(demo, fmt, innings_index, min_support):
    curves = wicket_curves(demo, fmt, innings_index, min_support)
    assert list(curves) == sorted(curves)
    for w in range(11):
        balls, means, support = reference_wicket_curve(demo, fmt, innings_index, w, min_support)
        if balls.size == 0:
            assert w not in curves
            continue
        curve = curves[w]
        assert (curve.wickets, curve.format, curve.innings_index) == (w, fmt, innings_index)
        assert np.array_equal(curve.balls, balls)
        assert np.array_equal(curve.means, means)
        assert np.array_equal(curve.support, support)


class TestFitPoly:
    def test_recovers_planted_cubic(self):
        curve = planted_curve(-0.0031, 1.0298, 0.4, range(1, 301))
        fit = fit_poly(curve, degree=3)
        assert fit.a == pytest.approx(-0.0031, rel=1e-9)
        assert fit.b == pytest.approx(1.0298, rel=1e-9)
        assert fit.c == pytest.approx(0.4, rel=1e-9)

    def test_recovers_planted_quadratic(self):
        curve = planted_curve(0.0, 0.9, 1.2, range(1, 121), format=MatchFormat.T20I)
        fit = fit_poly(curve, degree=2)
        assert fit.a == 0.0
        assert fit.b == pytest.approx(0.9, rel=1e-9)
        assert fit.c == pytest.approx(1.2, rel=1e-9)

    def test_zero_intercept_exact(self, small_odi):
        curve = wicket_curve(small_odi, MatchFormat.ODI, 1, 0, min_support=1)
        fit = fit_poly(curve)
        assert poly_eval(fit, 0.0) == 0.0
        assert poly_eval(fit, 0) == 0

    def test_weights_pull_toward_high_support_points(self):
        balls = np.arange(1, 61)
        means = balls.astype(float).copy()
        means[-1] = 500.0  # outlier at ball 60
        support = np.ones_like(balls)
        support[-1] = 10_000
        heavy = WicketCurve(
            wickets=0, balls=balls, means=means, support=support,
            format=MatchFormat.T20I, innings_index=1,
        )
        flat = WicketCurve(
            wickets=0, balls=balls, means=means, support=np.ones_like(balls),
            format=MatchFormat.T20I, innings_index=1,
        )
        weighted = fit_poly(heavy, degree=2)
        unweighted = fit_poly(flat, degree=2)
        assert poly_eval(weighted, 60.0) > poly_eval(unweighted, 60.0)

    def test_too_few_distinct_balls_is_singular(self):
        tiny = planted_curve(-0.001, 1.0, 0.5, [10, 20, 30])
        message = "^need at least {} distinct ball values for a degree-{} fit, have {}$"
        with pytest.raises(SingularFitError, match=message.format(4, 3, 3)):
            fit_poly(tiny, degree=3)
        single = planted_curve(0.0, 1.0, 0.5, [10])
        with pytest.raises(SingularFitError, match=message.format(3, 2, 1)):
            fit_poly(single, degree=2)

    def test_zero_support_is_refused_when_built(self):
        # it reached fit_poly and its singular normal equations before WicketCurve refused it
        with pytest.raises(ValueError, match="^every support must be at least 1$"):
            planted_curve(0.0, 1.0, 0.5, range(1, 11), support=[0] * 10)

    def test_overflowing_means_give_non_finite_coefficients(self):
        curve = planted_curve(0.0, 1.0, 0.5, range(1, 11))
        huge = WicketCurve(0, curve.balls, np.full(10, 1e308), curve.support, MatchFormat.ODI, 1)
        message = "^non-finite coefficients from normal equations$"
        with pytest.raises(SingularFitError, match=message):
            fit_poly(huge, degree=3)

    def test_degree_validation(self):
        curve = planted_curve(0.0, 1.0, 0.5, range(1, 20))
        with pytest.raises(ValueError):
            fit_poly(curve, degree=1)
        with pytest.raises(ValueError):
            PolyFit(a=0.1, b=1.0, c=0.0, degree=2)

    def test_rss_zero_on_exact_data(self):
        curve = planted_curve(-0.002, 1.1, 0.3, range(1, 301))
        fit = fit_poly(curve)
        assert fit.rss == pytest.approx(0.0, abs=1e-12)


class TestCurveCsv:
    def test_layout(self):
        curve = planted_curve(0.0, 1.0, 0.0, [1, 2, 3], format=MatchFormat.T20I)
        fit = fit_poly(curve, degree=2)
        lines = curve_csv(curve, fit).strip().split("\n")
        assert lines[0] == "ball,mean_score,n_contributing,fitted_value"
        assert lines[1].split(",")[0] == "1"
        assert len(lines) == 4


class TestFitsDocument:
    def test_family_round_trip(self):
        curves = [
            planted_curve(-0.002, 1.1, 0.3, range(1, 301)),
            planted_curve(-0.001, 0.9, 0.2, range(1, 301)),
        ]
        curves[1] = WicketCurve(
            wickets=4, balls=curves[1].balls, means=curves[1].means,
            support=curves[1].support, format=MatchFormat.ODI, innings_index=1,
        )
        fitted = [(curve, fit_poly(curve)) for curve in curves]
        doc = json.loads(json.dumps(family_summary(fitted)))
        assert (doc["format"], doc["innings"], doc["degree"]) == ("odi", 1, 3)
        assert sorted(doc["fits"]) == ["0", "4"]
        for curve, fit in fitted:
            assert fit_from_json(doc, curve.wickets, "family.json") == PolyFit(
                a=fit.a, b=fit.b, c=fit.c, degree=3
            )
        with pytest.raises(EmptyCurveError, match=r"wickets=5 \(available: 0, 4\)"):
            fit_from_json(doc, 5, "family.json")

    def test_single_fit_defaults(self):
        assert fit_from_json({"b": 1, "c": 0.5}, 7, "fit.json") == PolyFit(
            a=0.0, b=1.0, c=0.5, degree=3
        )

    @pytest.mark.parametrize(
        "doc, position",
        [
            ([], "fit.json"),
            ({"fits": []}, "fit.json[fits]"),
            ({"fits": {"4": "x"}}, "fit.json[fits][4]"),
            ({"b": 1.0}, "fit.json"),
            ({"b": True, "c": 0.0}, "fit.json"),
            ({"b": "1.0", "c": 0.0}, "fit.json"),
            ({"b": float("inf"), "c": 0.0}, "fit.json"),
            ({"b": float("nan"), "c": 0.0}, "fit.json"),
            ({"b": 10**400, "c": 0.0}, "fit.json"),
            ({"b": 1.0, "c": 0.0, "degree": 3.7}, "fit.json"),
            ({"b": 1.0, "c": 0.0, "degree": "3"}, "fit.json"),
            ({"fits": {"4": {"a": 0.1, "b": 1.0, "c": 0.0, "degree": 2}}}, "fit.json[fits][4]"),
        ],
    )
    def test_malformed_document_is_one_parse_error(self, doc, position):
        with pytest.raises(ParseError) as exc:
            fit_from_json(doc, 4, "fit.json")
        assert exc.value.position == position
