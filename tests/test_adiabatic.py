"""Square-well critical half-width, the numerical chi_c search, the
closed-form surface, sweeps and their calibration, and the accept/reject
check.
"""

import math
from itertools import product

import numpy as np
import pytest

import smilecal.adiabatic
from smilecal import (
    DEFAULT_CRITICAL_FIT,
    ChiSearchSettings,
    CriticalFitParams,
    CriticalSearchError,
    DomainError,
    IdentifiabilityError,
    SmileParams,
    SweepRow,
    adiabatic_check,
    analyze,
    calibrate_critical_fit,
    chi_critical_formula,
    chi_critical_numeric,
    default_sweep_axes,
    density_curve,
    gaussian_return_density,
    sweep,
    sweep_points,
)

FIG1 = dict(g=0.1, n=0.04, maturity=0.5)
FIG2_PARAMS = SmileParams(g=0.1758, chi=1.20, n=0.00030, maturity=1.0 / 365.0)


def _intersection_by_bisection(sigma1: float, chi: float, t: float) -> float:
    # oracle: root of the log-density difference of the two centered
    # Gaussians, N(0, sigma1^2 T) vs N(0, (chi sigma1)^2 T)
    sigma2 = chi * sigma1

    def diff(x):
        a = -math.log(sigma1) - x * x / (2 * sigma1 * sigma1 * t)
        b = -math.log(sigma2) - x * x / (2 * sigma2 * sigma2 * t)
        return a - b

    lo, hi = 0.0, 10.0 * sigma2 * math.sqrt(t)
    assert diff(lo) > 0.0 > diff(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if diff(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSquareWell:
    def test_matches_gaussian_intersection(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            sigma1 = rng.uniform(0.02, 0.8)
            chi = rng.uniform(1.01, 8.0)
            t = rng.uniform(1.0 / 365.0, 4.0)
            from smilecal import square_well_critical_x

            expected = _intersection_by_bisection(sigma1, chi, t)
            assert square_well_critical_x(sigma1, chi, t) == pytest.approx(
                expected, abs=1e-10
            )

    def test_chi_to_one_limit(self):
        from smilecal import square_well_critical_x

        assert square_well_critical_x(0.01, 1.0, 1.0) == 0.01
        drift = abs(square_well_critical_x(0.01, 1.0 + 1e-4, 1.0) - 0.01)
        assert drift < 1e-6

    def test_homogeneity_in_sigma1(self):
        from smilecal import square_well_critical_x

        for lam in (0.5, 2.0, 7.0):
            a = square_well_critical_x(lam * 0.1, 2.0, 0.5)
            b = lam * square_well_critical_x(0.1, 2.0, 0.5)
            assert a == pytest.approx(b, rel=1e-15)

    def test_domain(self):
        from smilecal import square_well_critical_x

        with pytest.raises(DomainError):
            square_well_critical_x(0.1, 0.99, 1.0)
        with pytest.raises(DomainError):
            square_well_critical_x(-0.1, 2.0, 1.0)


class TestChiCriticalNumeric:
    def test_below_fig1_ratio(self):
        chi_c = chi_critical_numeric(**FIG1)
        assert 1.0 < chi_c < 2.7

    def test_brackets_the_transition(self):
        chi_c = chi_critical_numeric(**FIG1)
        below = SmileParams(g=FIG1["g"], chi=0.99 * chi_c, n=FIG1["n"], maturity=FIG1["maturity"])
        above = SmileParams(g=FIG1["g"], chi=1.01 * chi_c, n=FIG1["n"], maturity=FIG1["maturity"])
        assert analyze(density_curve(below)).unimodal
        assert not analyze(density_curve(above)).unimodal

    def test_grid_stable(self):
        base = chi_critical_numeric(**FIG1)
        fine = chi_critical_numeric(
            **FIG1, settings=ChiSearchSettings(grid_points=8001)
        )
        assert abs(fine - base) < 1e-3

    def test_agrees_with_formula(self):
        chi_c = chi_critical_numeric(**FIG1)
        formula = chi_critical_formula(FIG1["g"], FIG1["n"], FIG1["maturity"])
        assert abs(formula - chi_c) / chi_c < 0.05

    def test_out_of_range_reported(self):
        # an essentially flat, enormous ratio range is cut off by chi_max
        with pytest.raises(CriticalSearchError):
            chi_critical_numeric(0.1, 0.04, 0.5, ChiSearchSettings(chi_max=1.5))

    def test_unimodal_everywhere_below_chi_c(self):
        # the bisection assumes the verdict is monotone in chi but re-checks
        # only the low end of its bracket; check the whole of (1, chi_c)
        fractions = np.arange(1, 13) / 13.0
        for g, rho, t in product(*default_sweep_axes(3, 3, 3)):
            n = rho * g * g * t
            chi_c = chi_critical_numeric(g, n, t)
            for frac in fractions:
                chi = 1.0 + frac * (chi_c - 1.0)
                params = SmileParams(g=g, chi=chi, n=n, maturity=t)
                assert analyze(density_curve(params)).unimodal, (g, rho, t, chi)


class TestChiCriticalFormula:
    def test_rho_one_specialization(self):
        g, t = 0.2, 0.5
        p = DEFAULT_CRITICAL_FIT
        expected = p.alpha + p.gamma * math.sqrt(t) * g
        assert chi_critical_formula(g, g * g * t, t) == pytest.approx(expected, rel=1e-15)

    def test_fig1_value_by_independent_arithmetic(self):
        rho = FIG1["n"] / (FIG1["g"] ** 2 * FIG1["maturity"])
        assert rho == pytest.approx(8.0)
        expected = 1.4373 * 8.0**0.2787 + (-0.1738) * math.sqrt(0.5) * 0.1 * 8.0**0.4683
        got = chi_critical_formula(FIG1["g"], FIG1["n"], FIG1["maturity"])
        assert got == pytest.approx(expected, rel=1e-15)

    def test_matches_numeric_inside_the_box(self):
        # 3x3x3 interior lattice of the swept ranges
        gs = np.geomspace(0.03, 0.5, 5)[1:-1]
        rhos = np.geomspace(2.5, 10.0, 5)[1:-1]
        ts = np.geomspace(1.0 / 365.0, 4.0, 5)[1:-1]
        for g in gs:
            for rho in rhos:
                for t in ts:
                    n = rho * g * g * t
                    numeric = chi_critical_numeric(g, n, t)
                    formula = chi_critical_formula(g, n, t)
                    assert abs(formula - numeric) / numeric < 0.05

    def test_custom_constants(self):
        fit = CriticalFitParams(alpha=2.0, beta=0.0, gamma=0.0, delta=1.0)
        assert chi_critical_formula(0.1, 0.04, 0.5, fit) == pytest.approx(2.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            chi_critical_formula(-0.1, 0.04, 0.5)


class TestSweep:
    def test_small_lattice(self):
        rows = sweep([0.05, 0.2], [3.0, 8.0], [0.25, 1.0])
        assert len(rows) == 8
        assert all(r.status == "ok" for r in rows)
        assert all(1.0 < r.chi_c < 20.0 for r in rows)
        # order: g outermost, T innermost
        assert [(r.g, r.rho, r.maturity) for r in rows] == [
            (g, rho, t) for g in (0.05, 0.2) for rho in (3.0, 8.0) for t in (0.25, 1.0)
        ]
        assert all(r.n == pytest.approx(r.rho * r.g**2 * r.maturity) for r in rows)

    def test_chi_c_increases_with_width(self):
        rows = sweep([0.1], np.geomspace(2.5, 10.0, 5), [0.5])
        chi_cs = [r.chi_c for r in rows]
        assert all(a < b for a, b in zip(chi_cs, chi_cs[1:]))

    def test_chi_c_decreases_with_maturity_at_fixed_width(self):
        # fixed (g, n): longer maturities lower the critical ratio
        g, n = 0.1, 0.01
        chi_cs = [chi_critical_numeric(g, n, t) for t in (0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(chi_cs, chi_cs[1:]))

    def test_parallel_matches_serial(self):
        axes = ([0.08, 0.3], [4.0], [0.5, 2.0])
        serial = sweep(*axes, workers=1)
        parallel = sweep(*axes, workers=2)
        assert serial == parallel

    def test_point_generator_keeps_input_order(self):
        # not a lattice: repeated g, unsorted rho and T
        points = [(0.2, 8.0, 1.0), (0.05, 3.0, 0.25), (0.2, 3.0, 0.25), (0.05, 8.0, 1.0)]
        serial = list(sweep_points(points, workers=1))
        assert [(r.g, r.rho, r.maturity) for r in serial] == points
        assert list(sweep_points(iter(points), workers=2)) == serial
        axes = ([0.05, 0.2], [3.0, 8.0], [0.25, 1.0])
        assert sweep(*axes) == list(sweep_points(product(*axes)))

    def test_failures_recorded_not_raised(self):
        rows = sweep([0.1], [8.0], [0.5], settings=ChiSearchSettings(chi_max=1.5))
        assert len(rows) == 1
        assert rows[0].status.startswith("error")
        assert math.isnan(rows[0].chi_c)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args):
            raise TypeError("bug in the search")

        monkeypatch.setattr(smilecal.adiabatic, "chi_critical_numeric", broken)
        with pytest.raises(TypeError, match="bug in the search"):
            sweep([0.1], [8.0], [0.5])

    def test_arithmetic_error_recorded(self, monkeypatch):
        def overflow(*args):
            raise OverflowError("math range error")

        monkeypatch.setattr(smilecal.adiabatic, "chi_critical_numeric", overflow)
        (row,) = sweep([0.1], [8.0], [0.5])
        assert row.status == "error: math range error"
        assert math.isnan(row.chi_c)

    def test_default_axes(self):
        gs, rhos, ts = default_sweep_axes()
        assert len(gs) == len(rhos) == len(ts) == 6
        assert gs[0] == pytest.approx(0.03) and gs[-1] == pytest.approx(0.5)
        assert rhos[0] == pytest.approx(2.5) and rhos[-1] == pytest.approx(10.0)
        assert ts[0] == pytest.approx(1.0 / 365.0) and ts[-1] == pytest.approx(4.0)


def _synthetic_rows(fit: CriticalFitParams, jitter: float = 0.0, seed: int = 0):
    rng = np.random.default_rng(seed)
    rows = []
    for g in np.geomspace(0.03, 0.5, 4):
        for rho in np.geomspace(2.5, 10.0, 4):
            for t in np.geomspace(1.0 / 365.0, 4.0, 4):
                n = rho * g * g * t
                chi_c = (
                    fit.alpha * rho**fit.beta
                    + fit.gamma * math.sqrt(t) * g * rho**fit.delta
                )
                if jitter:
                    chi_c += rng.normal(0.0, jitter)
                rows.append(
                    SweepRow(g=g, maturity=t, n=n, rho=rho, chi_c=chi_c)
                )
    return rows


class TestCalibrate:
    def test_exact_generative_round_trip(self):
        rows = _synthetic_rows(DEFAULT_CRITICAL_FIT)
        start = CriticalFitParams(alpha=1.3, beta=0.25, gamma=-0.1, delta=0.52)
        result = calibrate_critical_fit(rows, init=start)
        assert result.params.alpha == pytest.approx(DEFAULT_CRITICAL_FIT.alpha, abs=1e-8)
        assert result.params.beta == pytest.approx(DEFAULT_CRITICAL_FIT.beta, abs=1e-8)
        assert result.params.gamma == pytest.approx(DEFAULT_CRITICAL_FIT.gamma, abs=1e-8)
        assert result.params.delta == pytest.approx(DEFAULT_CRITICAL_FIT.delta, abs=1e-8)
        assert result.mse < 1e-16

    def test_stderr_scales_with_noise(self):
        noisy = calibrate_critical_fit(_synthetic_rows(DEFAULT_CRITICAL_FIT, jitter=0.01))
        assert all(e > 0.0 for e in noisy.stderr)
        assert noisy.params.alpha == pytest.approx(DEFAULT_CRITICAL_FIT.alpha, abs=0.05)
        assert noisy.mse < 1e-3

    def test_requires_enough_rows(self):
        rows = _synthetic_rows(DEFAULT_CRITICAL_FIT)[:10]
        with pytest.raises(DomainError):
            calibrate_critical_fit(rows)

    def test_requires_rho_spread(self):
        rows = [r for r in _synthetic_rows(DEFAULT_CRITICAL_FIT) if 3.5 < r.rho < 7.0]
        assert len(rows) >= 20
        with pytest.raises(DomainError):
            calibrate_critical_fit(rows)

    def test_rank_deficiency_reported(self):
        # constant g and T: the g*sqrt(T) direction never varies
        g, t = 0.1, 1.0
        rows = []
        for rho in np.geomspace(1.0, 30.0, 25):
            n = rho * g * g * t
            rows.append(
                SweepRow(
                    g=g, maturity=t, n=n, rho=rho,
                    chi_c=1.4 * rho**0.28,
                )
            )
        with pytest.raises(IdentifiabilityError):
            calibrate_critical_fit(rows)

    def test_skips_failed_rows(self):
        rows = _synthetic_rows(DEFAULT_CRITICAL_FIT)
        rows[0] = SweepRow(
            g=rows[0].g, maturity=rows[0].maturity, n=rows[0].n, rho=rows[0].rho,
            chi_c=math.nan, status="error: no transition",
        )
        result = calibrate_critical_fit(rows)
        assert result.n_rows == len(rows) - 1


class TestAdiabaticCheck:
    def test_fig1_rejected(self):
        params = SmileParams(g=0.1, chi=2.7, n=0.04, maturity=0.5)
        for mode in ("formula", "numeric"):
            verdict = adiabatic_check(params, mode=mode)
            assert not verdict.adiabatic
            assert verdict.chi_opt == 2.7
            assert verdict.chi_c < 2.7
            assert verdict.source == mode

    def test_flat_smile_always_passes(self):
        params = SmileParams(g=0.25, chi=1.0, n=0.001, maturity=2.0)
        verdict = adiabatic_check(params)
        assert verdict.adiabatic

    def test_market_like_fit_passes(self):
        # a realistic short-dated FX fit sits comfortably inside the bound
        for mode in ("formula", "numeric"):
            verdict = adiabatic_check(FIG2_PARAMS, mode=mode)
            assert verdict.adiabatic
        # and its density is indeed clean
        assert analyze(density_curve(FIG2_PARAMS)).unimodal

    def test_verdict_consistency(self):
        params = SmileParams(g=0.1, chi=2.0, n=0.04, maturity=0.5)
        verdict = adiabatic_check(params)
        assert verdict.adiabatic == (verdict.chi_opt < verdict.chi_c)

    def test_bad_mode(self):
        with pytest.raises(DomainError):
            adiabatic_check(FIG2_PARAMS, mode="guess")
