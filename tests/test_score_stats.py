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
    """Histogram whose counts lie exactly on the normal curve."""
    edges = np.arange(lo, hi, width, dtype=float)
    centers = edges + width / 2.0
    counts = normal_curve(centers, xi, sigma, amplitude)
    return Histogram(bin_width=float(width), bin_lower_edges=edges, counts=counts)


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
        edges, counts = np.arange(4.0), np.array([1.0, 2.0, 3.0, 4.0])
        hist = Histogram(1.0, edges, counts)
        counts[0] = 5.0
        assert edges.flags.writeable and counts.flags.writeable
        assert hist.counts.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert hist.counts.dtype == float  # kept as given
        with pytest.raises(ValueError, match="read-only"):
            hist.counts[0] = 5.0

    def test_edges_and_counts_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="columns differ in length"):
            Histogram(1.0, np.arange(5.0), np.ones(4))


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


class TestFitNormal:
    def test_recovers_planted_parameters(self):
        hist = planted_histogram(272.5, 45.8, 1202.9, 100.0, 460.0, 10.0)
        fit = fit_normal(hist)
        assert fit.xi == pytest.approx(272.5, abs=1e-6)
        assert fit.sigma == pytest.approx(45.8, abs=1e-6)
        assert fit.amplitude == pytest.approx(1202.9, abs=1e-6)
        assert fit.rss < 1e-12

    def test_symmetric_histogram_centers_xi_on_shared_edge(self):
        hist = Histogram(
            bin_width=10.0,
            bin_lower_edges=np.array([80.0, 90.0, 100.0, 110.0]),
            counts=np.array([5.0, 20.0, 20.0, 5.0]),
        )
        fit = fit_normal(hist)
        assert fit.xi == pytest.approx(100.0, abs=1e-8)

    def test_needs_four_nonempty_bins(self):
        hist = build_histogram([5, 5, 25], 10.0)
        assert int(np.count_nonzero(hist.counts)) == 2
        with pytest.raises(InsufficientDataError):
            fit_normal(hist)

    def test_degenerate_sigma_rejected(self):
        # four bins 1e-12 apart start sigma far below the 1e-9 floor
        hist = Histogram(
            bin_width=1e-12,
            bin_lower_edges=200.0 + 1e-12 * np.arange(4),
            counts=np.array([1.0, 3.0, 3.0, 1.0]),
        )
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
