"""Exponential resource model and resource table tests."""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest

from rainrule import (
    DLCurve,
    DLFamily,
    DegenerateFitError,
    IncompleteFamilyError,
    InsufficientDataError,
    MatchFormat,
    ParseError,
    ResourceTable,
    fit_dl_curve,
    fit_dl_family,
    load_resource_table,
    remaining_run_means,
    resource_table,
    resource_table_csv,
)
from rainrule import dl_reference, leastsq, score_stats
from rainrule.dl_reference import _pool_nonincreasing
from rainrule.errors import DegenerateCurveError, FitError
from test_run_curves import flat_innings, one_innings_match


class TestFitDlCurve:
    def test_recovers_planted_parameters_exactly(self):
        u = np.arange(1, 51, dtype=float)
        y = 250.0 * (1.0 - np.exp(-0.04 * u))
        curve = fit_dl_curve(u, y, w=0)
        assert curve.z0 == pytest.approx(250.0, abs=1e-4)
        assert curve.decay == pytest.approx(0.04, abs=1e-4)
        assert curve.rss < 1e-10

    def test_needs_two_distinct_points(self):
        message = "need at least 2 distinct overs-remaining points, have 1"
        for u in ([5.0], [5.0, 5.0]):
            with pytest.raises(InsufficientDataError, match=f"^{message}$"):
                fit_dl_curve(u, [100.0] * len(u), w=0)

    @pytest.mark.parametrize(
        "u, means, rule",
        [
            ([[1.0, 2.0]], [[1.0, 2.0]], "1-D arrays of the same length"),
            ([1.0, 2.0, 3.0], [1.0, 2.0], "1-D arrays of the same length"),
            ([-1.0, 0.0], [1.0, 2.0], "every u must be finite and above 0"),
            ([-2.0, -1.0], [1.0, 2.0], "every u must be finite and above 0"),
            ([1.0, np.inf], [1.0, 2.0], "every u must be finite and above 0"),
            ([1.0, np.nan], [1.0, 2.0], "every u must be finite and above 0"),
            ([1.0, 2.0], [np.nan, 2.0], "every mean must be finite"),
            ([1.0, 2.0], [1.0, -np.inf], "every mean must be finite"),
        ],
    )
    def test_input_outside_the_models_domain_is_refused(self, u, means, rule):
        with pytest.raises(ValueError, match=rule):
            fit_dl_curve(u, means, w=0)

    def test_every_mean_non_positive_is_refused(self):
        with pytest.raises(DegenerateFitError, match="^all mean remaining runs are non-positive$"):
            fit_dl_curve([1.0, 2.0, 3.0], [0.0, -1.0, 0.0], w=0)

    def test_a_start_the_solver_cannot_leave_is_refused(self):
        # z0 starts at 1.2 times the largest mean, here below the floor the solver keeps it above
        message = r"^exponential fit collapsed \(z0=3\.6e-12, decay=0\.666"
        with pytest.raises(DegenerateFitError, match=message):
            fit_dl_curve([1.0, 2.0, 3.0], [1e-12, 2e-12, 3e-12], w=0)

    @pytest.mark.parametrize(
        "z0, decay, refused",
        [(250.0, 0.04, False), (2e-9, 2e-12, False), (1e-9, 0.04, True), (250.0, 1e-12, True),
         (-1.0, 0.04, True), (float("nan"), 0.04, True), (250.0, float("nan"), True)],
    )
    def test_the_solvers_result_is_checked_by_the_rule_it_was_fitted_under(
        self, monkeypatch, z0, decay, refused
    ):
        accepts = []

        def solver(residuals, jacobian, p0, *, accept):
            accepts.append(accept)
            return leastsq.FitOutcome(np.array([z0, decay]), 1.0, 1, True)

        monkeypatch.setattr(dl_reference, "damped_gauss_newton", solver)
        u = np.arange(1.0, 6.0)
        if refused:
            with pytest.raises(DegenerateFitError, match="exponential fit collapsed"):
                fit_dl_curve(u, 10.0 * u, w=0)
        else:
            assert fit_dl_curve(u, 10.0 * u, w=0) == DLCurve(w=0, z0=z0, decay=decay, rss=1.0)
        assert bool(accepts[0](np.array([z0, decay]))) is not refused

    def test_value_properties(self):
        curve = DLCurve(w=0, z0=250.0, decay=0.04)
        assert float(curve.value(0.0)) == 0.0
        grid = np.linspace(0.0, 60.0, 500)
        z = curve.value(grid)
        assert np.all(np.diff(z) > 0)  # strictly increasing
        assert np.all(np.diff(z, 2) < 0)  # concave
        assert np.all(z < 250.0)  # approaches z0 from below

    def test_curve_invariants(self):
        with pytest.raises(ValueError):
            DLCurve(w=0, z0=-1.0, decay=0.04)
        with pytest.raises(ValueError):
            DLCurve(w=0, z0=100.0, decay=0.0)
        with pytest.raises(ValueError):
            DLCurve(w=11, z0=100.0, decay=0.1)

    @pytest.mark.parametrize("z0, decay, rule", [
        (math.inf, 1.0, "z0"), (math.nan, 1.0, "z0"),
        (10.0, math.inf, "decay"), (10.0, math.nan, "decay"),
    ])
    def test_z0_and_decay_must_be_finite(self, z0, decay, rule):
        # an infinite decay built, and value(0) then warned "invalid value in multiply"
        with pytest.raises(ValueError, match=f"^{rule} must be finite and positive, got"):
            DLCurve(0, z0, decay)

    def test_a_decay_too_steep_for_float_reaches_z0(self):
        # decay * u past the largest float warned "overflow encountered in multiply"
        curve = DLCurve(0, 1.0, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert curve.value(np.arange(3.0)).tolist() == [0.0, 1.0, 1.0]


class TestRemainingRunMeans:
    def test_hand_computed_cells(self):
        # one wicketless full T20 innings at one run per legal ball
        match = one_innings_match("m1", flat_innings(1, [1] * 120))
        points = remaining_run_means([match], MatchFormat.T20I, min_support=1)
        assert list(points) == [0]
        u, means, counts = points[0]
        assert u.tolist() == list(range(1, 21))
        # with u overs remaining, 6*u runs are still to come
        assert means.tolist() == [6.0 * k for k in range(1, 21)]
        assert counts.tolist() == [1] * 20

    def test_wickets_split_cells(self):
        match = one_innings_match("m1", flat_innings(1, [1] * 120, wicket_balls={3}))
        points = remaining_run_means([match], MatchFormat.T20I, min_support=1)
        assert set(points) == {0, 1}
        u0 = points[0][0]
        u1 = points[1][0]
        assert u0.max() == 20.0  # only the start-of-innings mark has no wickets
        assert u0.min() == 20.0
        assert u1.tolist() == [float(k) for k in range(1, 20)]

    def test_shortened_innings_excluded(self):
        match = one_innings_match("m1", flat_innings(1, [1] * 60))
        assert remaining_run_means([match], MatchFormat.T20I, min_support=1) == {}

    def test_min_support_filters_cells(self, demo):
        loose = remaining_run_means(demo, MatchFormat.ODI, min_support=1)
        tight = remaining_run_means(demo, MatchFormat.ODI, min_support=30)
        assert sum(v[0].size for v in tight.values()) < sum(
            v[0].size for v in loose.values()
        )
        for _, _, counts in tight.values():
            assert np.all(counts >= 30)


class TestFitDlFamily:
    def test_profile_corpus_recovery(self, profile_odi):
        family = fit_dl_family(profile_odi, MatchFormat.ODI, min_support=1)
        assert family.omitted == ()
        assert [c.w for c in family] == list(range(10))
        for curve in family:
            assert curve.z0 == pytest.approx(250.0, abs=1.5)
            assert curve.decay == pytest.approx(0.04, abs=2e-3)

    def test_z0_is_non_increasing(self, demo):
        family = fit_dl_family(demo, MatchFormat.ODI)
        z0s = [c.z0 for c in family]
        assert all(a >= b for a, b in zip(z0s, z0s[1:]))

    def test_insufficient_states_omitted(self):
        match = one_innings_match("m1", flat_innings(1, [1] * 120))
        family = fit_dl_family([match], MatchFormat.T20I, min_support=1)
        assert [c.w for c in family] == [0]
        assert family.omitted == tuple(range(1, 10))

    def test_empty_corpus_rejected(self):
        with pytest.raises(InsufficientDataError):
            fit_dl_family([], MatchFormat.ODI)

    @pytest.mark.parametrize("format", list(MatchFormat))
    def test_every_curve_reports_the_rss_of_its_own_parameters(self, demo, format):
        # a pooled curve kept the unpooled fit's rss: ODI w = 1 said 83.22
        family = fit_dl_family(demo, format)
        points = remaining_run_means(demo, format)
        assert family.adjusted
        for curve in family:
            u, means, _ = points[curve.w]
            own = float(np.sum((curve.value(u) - means) ** 2))
            assert curve.rss == pytest.approx(own, rel=1e-9), curve.w

    @pytest.mark.parametrize("ws", [(1, 0), (0, 0)], ids=["unsorted", "repeated"])
    def test_curves_must_be_sorted_by_w_without_repeats(self, ws):
        curves = [DLCurve(w=w, z0=250.0, decay=0.04) for w in ws]
        with pytest.raises(ValueError, match="^curves must be sorted by w without duplicates$"):
            DLFamily(MatchFormat.ODI, curves)

    def test_pool_adjacent_violators(self):
        assert _pool_nonincreasing([3.0, 5.0, 4.0]) == [4.0, 4.0, 4.0]
        assert _pool_nonincreasing([5.0, 4.0, 3.0]) == [5.0, 4.0, 3.0]
        assert _pool_nonincreasing([1.0, 9.0]) == [5.0, 5.0]


@pytest.fixture(scope="module")
def odi_table(profile_odi):
    family = fit_dl_family(profile_odi, MatchFormat.ODI, min_support=1)
    return resource_table(family, 50)


class TestResourceTable:
    def test_corners(self, odi_table):
        assert odi_table.percentage(50, 0) == 100.0
        assert odi_table.percentage(0, 3) == 0.0
        assert odi_table.percentage(31, 10) == 0.0

    def test_monotone_both_axes(self, odi_table):
        grid = odi_table.grid
        assert np.all(np.diff(grid, axis=0) >= 0)  # more overs, more resource
        assert np.all(np.diff(grid, axis=1) <= 0)  # more wickets, less resource

    def test_monotone_even_when_decay_crosses(self):
        family = [
            DLCurve(w=0, z0=200.0, decay=0.02),
            DLCurve(w=1, z0=199.0, decay=0.50),
        ]
        table = resource_table(family, 50)
        assert np.all(np.diff(table.grid, axis=1) <= 0)

    def test_missing_states_borrow_previous_curve(self):
        family = [DLCurve(w=0, z0=250.0, decay=0.04)]
        table = resource_table(family, 50)
        assert table.percentage(25, 7) == table.percentage(25, 0)

    @pytest.mark.parametrize("max_overs", [0, -1])
    def test_needs_a_positive_length(self, max_overs):
        with pytest.raises(ValueError, match=f"^max_overs must be positive, got {max_overs}$"):
            resource_table([DLCurve(w=0, z0=250.0, decay=0.04)], max_overs)

    def test_requires_wicketless_curve(self):
        with pytest.raises(IncompleteFamilyError):
            resource_table([DLCurve(w=1, z0=250.0, decay=0.04)], 50)

    @pytest.mark.parametrize("decay", [1e-300, 5e-324])
    def test_full_resources_must_be_positive(self, decay):
        # decay * max_overs below about 1e-16 leaves 1 - exp(-decay * u) at 0.0, so the
        # w=0 curve has no resources to share out, and no cell is divided by them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateCurveError, match=r"^full resources Z\(50, 0\) = 0\.0 "):
                resource_table([DLCurve(w=0, z0=1.0, decay=decay)], 50)

    def test_max_overs_is_the_last_row(self, odi_table):
        assert odi_table.max_overs == 50
        assert ResourceTable(np.zeros((1, 11))).max_overs == 0
        for shape in ((0, 11), (21, 10), (11,), (2, 11, 1)):
            with pytest.raises(ValueError, match="is not"):
                ResourceTable(np.zeros(shape))

    def test_grid_is_a_copy_of_the_callers_array(self):
        grid = np.zeros((2, 11), dtype=np.float32)
        table = ResourceTable(grid)
        grid[1, 0] = 100.0
        assert grid.flags.writeable
        assert (table.percentage(1, 0), table.grid.dtype) == (0.0, float)
        with pytest.raises(ValueError, match="read-only"):
            table.grid[1, 0] = 100.0

    @pytest.mark.parametrize("cell", [math.nan, math.inf, -5.0, -1e-9, 100.5])
    def test_cells_must_be_percentages(self, cell):
        # a NaN grid and a -5.0 grid built, and percentage returned their cells
        grid = np.zeros((2, 11))
        grid[1, 3] = cell
        with pytest.raises(ValueError, match=r"^every cell must be a percentage in \[0, 100\]$"):
            ResourceTable(grid)
        assert ResourceTable(np.full((2, 11), 100.0)).percentage(1, 3) == 100.0

    def test_out_of_range_lookup(self, odi_table):
        with pytest.raises(ValueError):
            odi_table.percentage(51, 0)
        with pytest.raises(ValueError):
            odi_table.percentage(10, 11)

    def test_csv_layout(self, odi_table):
        lines = resource_table_csv(odi_table).strip().split("\n")
        assert lines[0] == "overs_remaining," + ",".join(str(w) for w in range(11))
        assert len(lines) == 52
        first = lines[1].split(",")
        assert first[0] == "50"
        assert first[1] == "100.0"
        assert first[-1] == "0.0"
        last = lines[-1].split(",")
        assert last[0] == "0"
        assert set(last[1:]) == {"0.0"}

    def test_csv_round_trip(self, odi_table, tmp_path):
        path = tmp_path / "table.csv"
        text = resource_table_csv(odi_table)
        path.write_text(text)
        assert resource_table_csv(load_resource_table(path)) == text

    @pytest.mark.parametrize("cell", ["inf", "nan", "-0.5", "100.1", "1e308"])
    def test_cell_must_be_a_percentage(self, odi_table, tmp_path, cell):
        rows = resource_table_csv(odi_table).splitlines()
        rows[5] = ",".join(rows[5].split(",")[:-1] + [cell])
        path = tmp_path / "table.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError, match=r"\[0, 100\]") as exc:
            load_resource_table(path)
        assert exc.value.position == f"{path}:6"

    def test_unreadable_file_is_a_parse_error(self, tmp_path):
        for path, reason in [(tmp_path / "missing.csv", "No such file"), (tmp_path, "directory")]:
            message = f"^cannot read {re.escape(str(path))}: .*{reason}"
            with pytest.raises(ParseError, match=message):
                load_resource_table(path)
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"overs_remaining,\xe9\n")
        with pytest.raises(ParseError, match="^cannot read .*utf-8"):
            load_resource_table(path)

    def test_blank_lines_are_skipped(self, odi_table, tmp_path):
        rows = resource_table_csv(odi_table).splitlines()
        plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
        plain.write_text("\n".join(rows) + "\n")
        spaced.write_text("\n".join(rows[:3] + ["", "  "] + rows[3:] + [""]) + "\n")
        assert load_resource_table(spaced) == load_resource_table(plain)

    def test_huge_row_label_is_a_coverage_error(self, odi_table, tmp_path):
        rows = resource_table_csv(odi_table).splitlines()
        rows[1] = ",".join([str(10**12)] + rows[1].split(",")[1:])
        path = tmp_path / "table.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError, match="u = 0..max"):
            load_resource_table(path)

    def test_malformed_csv_rejected(self, odi_table, tmp_path):
        rows = resource_table_csv(odi_table).splitlines()
        path = tmp_path / "table.csv"
        path.write_text("\n".join(rows[:2] + [rows[2] + ",1.0"] + rows[3:]) + "\n")
        with pytest.raises(ParseError) as exc:
            load_resource_table(path)
        assert exc.value.position == f"{path}:3"
        # a repeated row label used to overwrite the first row silently
        path.write_text("\n".join(rows + ["30" + ",1.0" * 11]) + "\n")
        with pytest.raises(ParseError, match="repeated row u = 30") as exc:
            load_resource_table(path)
        assert exc.value.position == f"{path}:{len(rows) + 1}"
        path.write_text("\n".join(rows[:-1]) + "\n")
        with pytest.raises(ParseError, match="u = 0..max"):
            load_resource_table(path)


# ---------------------------------------------------------------------------
# the solver keeps the normal equations of a point across rejected steps


def reference_gauss_newton(residuals, jacobian, p0, *, accept):
    """The solver loop that rebuilds the normal equations on every iteration,
    kept as the oracle: (params, rss, iterations, converged)."""
    p = np.asarray(p0, dtype=float).copy()
    r = residuals(p)
    rss = float(r @ r)
    lam = 1e-3
    for iteration in range(1, 501):
        jac = jacobian(p)
        normal = jac.T @ jac
        gradient = jac.T @ r
        diag = np.diag(normal).copy()
        diag[diag <= 0.0] = 1.0
        try:
            step = np.linalg.solve(normal + lam * np.diag(diag), -gradient)
        except np.linalg.LinAlgError:
            lam = min(lam * 10.0, 1e12)
            continue
        candidate = p + step
        if not accept(candidate):
            lam = min(lam * 10.0, 1e12)
            if lam >= 1e12:
                return p, rss, iteration, False
            continue
        r_new = residuals(candidate)
        rss_new = float(r_new @ r_new)
        if rss_new <= rss:
            change = rss - rss_new
            p, r, rss = candidate, r_new, rss_new
            lam = lam / 10.0
            if change <= 1e-10 * max(rss, np.finfo(float).tiny):
                return p, rss, iteration, True
        else:
            lam = min(lam * 10.0, 1e12)
            if lam >= 1e12:
                return p, rss, iteration, True
    return p, rss, 500, False


def test_a_jacobian_of_the_wrong_sign_stays_at_the_start():
    # every step leads uphill, so the damping grows tenfold from 1e-3 to its 1e12 cap
    def residuals(p):
        return p - 1.0

    def jacobian(p):
        return -np.eye(2)

    p0 = np.array([0.0, 3.0])
    outcome = leastsq.damped_gauss_newton(residuals, jacobian, p0, accept=lambda p: True)
    assert outcome.params.tolist() == p0.tolist()
    assert (outcome.rss, outcome.iterations, outcome.converged) == (5.0, 15, True)


def test_solver_matches_the_rebuilding_loop_on_every_fixture_fit(demo, monkeypatch):
    problems = []

    def record(residuals, jacobian, p0, *, accept):
        problems.append((residuals, jacobian, np.array(p0, dtype=float), accept))
        return leastsq.damped_gauss_newton(residuals, jacobian, p0, accept=accept)

    monkeypatch.setattr(dl_reference, "damped_gauss_newton", record)
    monkeypatch.setattr(score_stats, "damped_gauss_newton", record)
    for fmt in MatchFormat:
        fit_dl_family(demo, fmt)
        for innings in (1, 2):
            values = score_stats.totals(demo, fmt, innings)
            for width in (5.0, 10.0):
                try:
                    score_stats.fit_normal(score_stats.build_histogram(values, width))
                except FitError:
                    pass
    assert len(problems) == 18 + 12  # every exponential state of the fixture, then the normals

    rejected = 0
    for residuals, jacobian, p0, accept in problems:
        points = []

        def counted(p):
            points.append(p.tobytes())
            return jacobian(p)

        got = leastsq.damped_gauss_newton(residuals, counted, p0, accept=accept)
        params, rss, iterations, converged = reference_gauss_newton(
            residuals, jacobian, p0, accept=accept
        )
        assert got.params.tobytes() == params.tobytes()
        assert repr(got.rss) == repr(rss)
        assert (got.iterations, got.converged) == (iterations, converged)
        assert len(points) == len(set(points))  # one Jacobian for each point visited
        rejected += got.iterations - len(points)
    assert rejected > 0
