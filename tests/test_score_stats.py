"""Histogram construction and normal-curve fit tests."""

from __future__ import annotations

import math

import numpy as np
import pytest

from rainrule import (
    DataError,
    DegenerateFitError,
    EmptySelectionError,
    Histogram,
    InsufficientDataError,
    MatchFormat,
    build_histogram,
    fit_normal,
    histogram_csv,
    normal_curve,
    totals,
    trajectory,
)
from rainrule import leastsq, score_stats
from rainrule.cli import main
from rainrule.score_stats import fit_summary


def planted_histogram(xi, sigma, amplitude, lo, hi, width):
    """Histogram of the bins from ``lo`` below ``hi`` whose counts lie exactly on the
    normal curve at the centers the record derives."""
    bins = Histogram(float(width), float(lo), np.zeros(len(np.arange(lo, hi, width))))
    counts = normal_curve(bins.centers, xi, sigma, amplitude)
    return Histogram(bin_width=float(width), lowest_edge=float(lo), counts=counts)


class TestTotals:
    def test_matches_per_delivery_sum(self, small_odi):
        values = totals(small_odi, MatchFormat.ODI, 1)
        hand = [
            sum(d.batter_runs + d.extras_runs for d in inn.deliveries)
            for m in small_odi
            for inn in m.innings
            if inn.innings_index == 1
        ]
        assert values == hand

    def test_matches_trajectory_totals(self, small_odi):
        values = totals(small_odi, MatchFormat.ODI, 2)
        trajs = [
            trajectory(inn, m.format).total
            for m in small_odi
            for inn in m.innings
            if inn.innings_index == 2
        ]
        assert values == trajs

    def test_empty_selection(self, small_odi):
        with pytest.raises(EmptySelectionError):
            totals(small_odi, MatchFormat.IPL, 1)


class TestHistogram:
    def test_arrays_are_copies_of_the_callers_arrays(self):
        # the caller's own arrays were frozen in place
        counts = np.array([1.0, 2.0, 3.0, 4.0])
        hist = Histogram(1.0, 0.0, counts)
        counts[0] = 5.0
        assert counts.flags.writeable
        assert hist.counts.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert hist.counts.dtype == float  # kept as given
        with pytest.raises(ValueError, match="read-only"):
            hist.counts[0] = 5.0
        edges = hist.bin_lower_edges
        edges[0] = 5.0  # a derived array is built on each read
        assert hist.bin_lower_edges.tolist() == [0.0, 1.0, 2.0, 3.0]

    @pytest.mark.parametrize("width", [-10.0, 0.0, np.inf, np.nan])
    def test_bin_width_must_be_finite_and_above_0(self, width):
        # a width of -10 was fitted: xi=11.07, sigma=14.36
        with pytest.raises(ValueError, match="^bin_width must be finite and above 0$"):
            Histogram(width, 0.0, np.array([1.0, 5, 2, 3, 1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_counts_must_be_finite_and_at_least_0(self, bad):
        # a NaN count raised a bare "cannot convert float NaN to integer" from
        # n_samples, and an infinite one an OverflowError
        with pytest.raises(ValueError, match="^every count must be finite and at least 0$"):
            Histogram(10.0, 0.0, np.array([1.0, 5, bad, 3, 1]))


    def test_counts_must_be_1d(self):
        # Histogram(1.0, np.zeros((2, 2)), np.zeros((2, 2))) built
        with pytest.raises(ValueError, match="^columns must be 1-D$"):
            Histogram(1.0, 0.0, np.zeros((2, 2)))

    @pytest.mark.parametrize("lowest", [np.nan, np.inf, -np.inf])
    def test_lowest_edge_must_be_finite(self, lowest):
        with pytest.raises(ValueError, match="^lowest_edge and every bin center must be finite$"):
            Histogram(10.0, lowest, np.ones(3))

    def test_every_center_must_be_finite(self):
        # the second bin from 1e308 starts past the largest float
        with pytest.raises(ValueError, match="^lowest_edge and every bin center must be finite$"):
            Histogram(1e308, 1e308, np.ones(2))
        hist = Histogram(1e308, -1e308, np.ones(2))
        assert hist.bin_lower_edges.tolist() == [-1e308, 0.0]
        assert np.isfinite(hist.centers).all()

    @pytest.mark.parametrize(
        "counts", [np.array([1e308, 1e308]), np.array([2**62, 2**62], dtype=np.int64),
                   np.array([2.0**53])]
    )
    def test_counts_must_sum_below_2_to_the_53(self, counts):
        # float counts overflowed n_samples, and int64 ones wrapped it below 0
        with pytest.raises(ValueError, match=r"^the counts must sum to less than 2\*\*53$"):
            Histogram(1.0, 0.0, counts)
        assert Histogram(1.0, 0.0, np.array([2.0**52, 2.0**52 - 1])).n_samples == 2**53 - 1


class TestBuildHistogram:
    def test_mass_conserved(self, small_odi):
        values = totals(small_odi, MatchFormat.ODI, 1)
        hist = build_histogram(values, 10.0)
        assert int(hist.counts.sum()) == len(values) == hist.n_samples

    def test_single_bin(self):
        hist = build_histogram([12, 13, 19], 10.0)
        assert hist.counts.tolist() == [3]
        assert hist.bin_lower_edges.tolist() == [10.0]

    def test_left_closed_right_open_bins(self):
        hist = build_histogram([10, 19, 20], 10.0)
        assert hist.counts.tolist() == [2, 1]

    def test_fractional_width(self):
        hist = build_histogram([0, 7, 14], 7.5)
        assert hist.counts.tolist() == [2, 1]
        assert hist.bin_width == 7.5

    def test_rejects_empty_and_bad_width(self):
        with pytest.raises(EmptySelectionError):
            build_histogram([], 10.0)
        for width in (0.0, math.inf):  # inf made the lowest edge 0 * inf = nan
            with pytest.raises(ValueError, match="bin_width must be positive and finite"):
                build_histogram([1, 2], width)

    @pytest.mark.parametrize("width", [1e-300, 5e-324, 0.001])
    def test_rejects_a_width_needing_too_many_bins(self, width):
        # 1e-300 looped forever: the guard step cannot move a total-sized float
        with pytest.raises(DataError, match=f"bin width {width!r}"):
            build_histogram([150, 320], width)
        assert build_histogram([150, 320], 0.01).counts.sum() == 2  # 32,001 bins

    def test_negative_values_count_toward_the_bin_cap(self):
        # the cap measured only up from 0, so this built 150,006 bins
        with pytest.raises(DataError, match="over 100,000 bins"):
            build_histogram([-150_000, 0, 5], 1.0)
        hist = build_histogram([-15, 0, 5], 10.0)
        assert hist.bin_lower_edges.tolist() == [-20.0, -10.0, 0.0]
        assert hist.counts.tolist() == [1, 0, 2]

    def test_the_bin_cap_counts_from_the_lowest_edge(self):
        # the cap was measured up from 0, so six bins of large values were refused
        hist = build_histogram([1_000_000_000, 1_000_000_005], 1.0)
        assert hist.bin_lower_edges.tolist() == [1e9 + k for k in range(6)]
        assert hist.counts.tolist() == [1, 0, 0, 0, 0, 1]
        assert build_histogram([7, 100_006], 1.0).counts.size == 100_000
        with pytest.raises(DataError, match="over 100,000 bins from 7 to 100007$"):
            build_histogram([7, 100_007], 1.0)

    def test_the_bin_cap_message_names_both_ends(self):
        # it named only the largest value: "over 100,000 bins up to 5"
        with pytest.raises(DataError) as caught:
            build_histogram([-150_000, 0, 5], 1.0)
        assert str(caught.value) == "bin width 1.0: over 100,000 bins from -150000 to 5"

    def test_rejects_a_width_too_narrow_for_float_edges(self):
        # six bins, but no float edge between 1e18 and 1e18 + 5
        with pytest.raises(DataError, match="too narrow for values from 10{18} to 10{17}5$"):
            build_histogram([10**18, 10**18 + 5], 1.0)


class TestFitNormal:
    def test_recovers_planted_parameters(self):
        hist = planted_histogram(272.5, 45.8, 1202.9, 100.0, 460.0, 10.0)
        fit = fit_normal(hist)
        assert fit.xi == pytest.approx(272.5, abs=1e-6)
        assert fit.sigma == pytest.approx(45.8, abs=1e-6)
        assert fit.amplitude == pytest.approx(1202.9, abs=1e-6)
        assert fit.rss < 1e-12

    def test_symmetric_histogram_centers_xi_on_shared_edge(self):
        hist = Histogram(bin_width=10.0, lowest_edge=80.0, counts=np.array([5.0, 20.0, 20.0, 5.0]))
        fit = fit_normal(hist)
        assert fit.xi == pytest.approx(100.0, abs=1e-8)

    def test_needs_four_nonempty_bins(self):
        hist = build_histogram([5, 5, 25], 10.0)
        assert int(np.count_nonzero(hist.counts)) == 2
        with pytest.raises(InsufficientDataError):
            fit_normal(hist)

    def test_degenerate_sigma_rejected(self):
        # four bins 1e-12 apart start sigma far below the 1e-9 floor
        hist = Histogram(bin_width=1e-12, lowest_edge=200.0, counts=np.array([1.0, 3.0, 3.0, 1.0]))
        assert hist.n_samples == 8
        with pytest.raises(DegenerateFitError, match="sigma collapsed below 1e-09"):
            fit_normal(hist)

    def test_unconverged_run_is_not_a_fit(self, monkeypatch, tmp_path, capsys):
        def stalled(*args, **kwargs):
            outcome = leastsq.damped_gauss_newton(*args, **kwargs)
            return leastsq.FitOutcome(outcome.params, outcome.rss, 500, converged=False)

        monkeypatch.setattr(score_stats, "damped_gauss_newton", stalled)
        hist = planted_histogram(272.5, 45.8, 1202.9, 100.0, 460.0, 10.0)
        with pytest.raises(DegenerateFitError, match="no convergence in 500 iterations"):
            fit_normal(hist)
        # stats warns and skips each cell; with none left it is a fit error
        code = main(["stats", "--fixture", "--format", "ipl", "--out", str(tmp_path)])
        err = capsys.readouterr().err.splitlines()
        assert code == 4
        assert err[0].startswith("warning: ipl innings 1: no convergence")
        assert err[1].startswith("warning: ipl innings 2: no convergence")
        assert err[2:] == ["error: no (format, innings) cell could be fitted"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "sigma, amplitude, refused",
        [(45.8, 1202.9, False), (2e-9, 1e-300, False), (1e-9, 1202.9, True), (45.8, 0.0, True),
         (45.8, -1.0, True), (float("nan"), 1202.9, True), (45.8, float("nan"), True)],
    )
    def test_the_solvers_result_is_checked_by_the_rule_it_was_fitted_under(
        self, monkeypatch, sigma, amplitude, refused
    ):
        accepts = []

        def solver(residuals, jacobian, p0, *, accept):
            accepts.append(accept)
            return leastsq.FitOutcome(np.array([272.5, sigma, amplitude]), 1.0, 1, True)

        monkeypatch.setattr(score_stats, "damped_gauss_newton", solver)
        hist = planted_histogram(272.5, 45.8, 1202.9, 100.0, 460.0, 10.0)
        if refused:
            with pytest.raises(DegenerateFitError, match="^degenerate fit: sigma="):
                fit_normal(hist)
        else:
            fit = fit_normal(hist)
            assert (fit.xi, fit.sigma, fit.amplitude, fit.rss) == (272.5, sigma, amplitude, 1.0)
        assert bool(accepts[0](np.array([272.5, sigma, amplitude]))) is not refused

    def test_fit_is_deterministic(self, demo):
        values = totals(demo, MatchFormat.T20I, 1)
        hist = build_histogram(values, 10.0)
        first, second = fit_normal(hist), fit_normal(hist)
        assert (first.xi, first.sigma, first.amplitude) == (
            second.xi,
            second.sigma,
            second.amplitude,
        )


class TestExports:
    def test_histogram_csv_layout(self):
        hist = build_histogram([101, 109, 117, 125, 133, 141], 10.0)
        fit = fit_normal(
            planted_histogram(120.0, 15.0, 60.0, 90.0, 160.0, 10.0)
        )
        text = histogram_csv(hist, fit)
        lines = text.strip().split("\n")
        assert lines[0] == "bin_center,count,fitted_value"
        assert len(lines) == len(hist.counts) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 105.0
        assert first[1] == "2"

    def test_fit_summary_fields(self):
        hist = planted_histogram(150.0, 25.0, 400.0, 60.0, 250.0, 10.0)
        fit = fit_normal(hist)
        summary = fit_summary(fit, hist)
        assert set(summary) == {"xi", "sigma", "amplitude", "rss", "n_samples", "bin_width"}
        assert summary["bin_width"] == 10.0
