"""Square-well critical half-width, the numerical chi_c search, the
closed-form surface, sweeps and their calibration, and the accept/reject
check.
"""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smilecal.adiabatic
from smilecal import (
    DEFAULT_CRITICAL_FIT,
    AdiabaticVerdict,
    ChiSearchSettings,
    CriticalFitParams,
    CriticalSearchError,
    DomainError,
    GridError,
    IdentifiabilityError,
    SmileParams,
    SweepRow,
    VolQuote,
    adiabatic_check,
    adiabatic_refit,
    analyze,
    calibrate_critical_fit,
    chi_critical_formula,
    chi_critical_numeric,
    constrained_fit_smile,
    default_sweep_axes,
    density_curve,
    fit_smile,
    gaussian_return_density,
    return_density,
    sigma_of_x,
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

    @pytest.mark.parametrize(
        "g, n, t, message",
        [
            (0.0, 0.04, 0.5, "g must be positive, got 0.0"),
            (math.nan, 0.04, 0.5, "g must be positive, got nan"),
            (0.1, 0.04, -0.5, "maturity must be positive, got -0.5"),
            (1e-200, 1e-300, 0.5, "ps must be finite"),  # g*g*T underflows to 0
        ],
    )
    def test_domain(self, g, n, t, message, recwarn):
        # a point with no (rho, s) gets no fold, and its first verdict raises
        with pytest.raises(DomainError) as exc:
            chi_critical_numeric(g, n, t)
        assert str(exc.value) == message
        assert not recwarn.list

    def test_unimodal_everywhere_below_chi_c(self):
        # the search assumes the verdict is monotone in chi and makes no
        # verdicts below the surface; check the whole of (1, chi_c)
        fractions = np.arange(1, 13) / 13.0
        for g, rho, t in product(*default_sweep_axes(3, 3, 3)):
            n = rho * g * g * t
            chi_c = chi_critical_numeric(g, n, t)
            for frac in fractions:
                chi = 1.0 + frac * (chi_c - 1.0)
                params = SmileParams(g=g, chi=chi, n=n, maturity=t)
                assert analyze(density_curve(params)).unimodal, (g, rho, t, chi)


def _reference_chi_critical_numeric(g, n, maturity, opts=None):
    # the full upward scan from SCAN_START with a verdict at every scan
    # and bisection point, kept as the oracle for the fold-guided search
    opts = opts or ChiSearchSettings()

    def non_unimodal(chi):
        params = SmileParams(g=g, chi=chi, n=n, maturity=maturity)
        curve = density_curve(params, points=opts.grid_points, span=opts.span)
        return not analyze(curve).unimodal

    lo = 1.0
    chi = smilecal.adiabatic.SCAN_START
    hi = None
    while chi <= opts.chi_max:
        if non_unimodal(chi):
            hi = chi
            break
        lo = chi
        chi += smilecal.adiabatic.SCAN_STEP
    assert hi is not None
    while hi - lo > opts.tol:
        mid = 0.5 * (lo + hi)
        if non_unimodal(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _record_search_chis(monkeypatch):
    # the chi of every verdict the search makes, in order
    chis = []
    real = smilecal.adiabatic.density_curve

    def recording(params, **kwargs):
        chis.append(params.chi)
        return real(params, **kwargs)

    monkeypatch.setattr(smilecal.adiabatic, "density_curve", recording)
    return chis


def _table1_points():
    # (g, n, T) with n computed as the sweep computes it
    return [(g, rho * g * g * t, t) for g, rho, t in product(*default_sweep_axes())]


class TestJumpedStart:
    # the fold-guided search, which makes its verdicts next to the fold
    def test_table1_lies_in_the_box(self):
        # rounding puts some lattice points just outside the exact bounds
        assert all(
            smilecal.adiabatic._in_calibrated_box(*p) for p in _table1_points()
        )

    @pytest.mark.parametrize(
        "g, n, t",
        [
            (1e-200, 1e-300, 0.5),  # g*g*T underflows to 0
            (math.nan, 0.04, 0.5),
            (0.1, math.inf, 0.5),
            (0.1, 0.04, -0.5),
            (0.1, 0.2, 0.5),  # rho = 40
            (3.0, 9.0, 0.5),  # s = 2.1
        ],
    )
    def test_box_rejects(self, g, n, t):
        assert not smilecal.adiabatic._in_calibrated_box(g, n, t)

    @pytest.mark.parametrize(
        "rho, s, guided",
        [
            (1.2, 0.05, True),
            (30.0, 0.8, True),
            (0.6, 3.0, True),
            # the fold's Newton gives no prediction here, so the full scan runs
            (0.3, 0.01, False),
            (60.0, 0.8, False),
            (8.0, 3.0, False),
        ],
    )
    def test_outside_the_box_matches_full_scan(self, monkeypatch, rho, s, guided):
        g, t = s, 1.0
        n = rho * g * g * t
        assert not smilecal.adiabatic._in_calibrated_box(g, n, t)
        expected = _reference_chi_critical_numeric(g, n, t)
        chis = _record_search_chis(monkeypatch)
        assert chi_critical_numeric(g, n, t) == expected
        if guided:
            assert smilecal.adiabatic.SCAN_START not in chis


class TestFoldGuidedSearch:
    # how few verdicts the fold's band leaves the search; counts are exact
    def test_fig1_verdict_count(self, monkeypatch):
        calls = []
        real = smilecal.adiabatic.analyze

        def counting(curve):
            calls.append(curve)
            return real(curve)

        monkeypatch.setattr(smilecal.adiabatic, "analyze", counting)
        chi_critical_numeric(**FIG1)
        assert len(calls) <= 3

    def test_table1_verdict_count(self, monkeypatch):
        chis = _record_search_chis(monkeypatch)
        verdicts = []
        for p in _table1_points():
            del chis[:]
            chi_critical_numeric(*p)
            assert smilecal.adiabatic.SCAN_START not in chis  # no fallback
            verdicts.append(len(chis))
        assert sum(verdicts) <= 3.3 * len(verdicts)

    def test_table1_identical_to_full_scan(self):
        points = _table1_points()
        fast = [repr(chi_critical_numeric(*p)) for p in points]
        full = [repr(_reference_chi_critical_numeric(*p)) for p in points]
        assert fast == full

    def test_outside_the_box_is_fold_guided(self, monkeypatch):
        g, t = 0.1, 0.5
        n = 40.0 * g * g * t
        expected = _reference_chi_critical_numeric(g, n, t)
        chis = _record_search_chis(monkeypatch)
        assert chi_critical_numeric(g, n, t) == expected
        assert smilecal.adiabatic.SCAN_START not in chis

    def test_outside_the_box_probe_lattice(self, monkeypatch):
        # rho in geomspace(0.3, 60, 9) by s in geomspace(3e-4, 3, 8) at
        # T = 1, less the box. A worse fold here moves no chi_c, as the
        # search keeps the full scan's result, but it costs verdicts
        points = [
            (s, rho * s * s, 1.0)
            for rho, s in product(np.geomspace(0.3, 60, 9), np.geomspace(3e-4, 3, 8))
            if not smilecal.adiabatic._in_calibrated_box(s, rho * s * s, 1.0)
        ]
        assert len(points) == 62
        expected = [_reference_chi_critical_numeric(*p) for p in points]
        reduced = [smilecal.adiabatic._reduced(*p) for p in points]
        assert [smilecal.adiabatic._fold_chi(*r) for r in reduced].count(None) <= 18
        chis = _record_search_chis(monkeypatch)
        assert [chi_critical_numeric(*p) for p in points] == expected
        assert len(chis) <= 14.2 * len(points)

    def test_fallback_when_first_verdict_is_non_unimodal(self, monkeypatch):
        # a fold past the transition declares unimodal verdicts where the
        # real ones are not, so the bracket's lower end is declared
        expected = _reference_chi_critical_numeric(**FIG1)
        monkeypatch.setattr(smilecal.adiabatic, "_fold_chi", lambda rho, s: expected + 0.01)
        chis = _record_search_chis(monkeypatch)
        assert chi_critical_numeric(**FIG1) == expected
        full = chis.index(smilecal.adiabatic.SCAN_START)
        assert full > 0 and all(chi > expected for chi in chis[:full])

    def test_low_surface_still_matches(self, monkeypatch):
        expected = _reference_chi_critical_numeric(**FIG1)
        fold = smilecal.adiabatic._fold_chi
        monkeypatch.setattr(smilecal.adiabatic, "_fold_chi", lambda rho, s: 0.5 * fold(rho, s))
        chis = _record_search_chis(monkeypatch)
        assert chi_critical_numeric(**FIG1) == expected
        assert smilecal.adiabatic.SCAN_START in chis  # the full scan ran

    def test_bisects_through_the_shared_helper(self, monkeypatch):
        brackets = []
        real = smilecal.adiabatic._bisect

        def recording(non_unimodal, lo, hi, tol):
            brackets.append(real(non_unimodal, lo, hi, tol))
            return brackets[-1]

        monkeypatch.setattr(smilecal.adiabatic, "_bisect", recording)
        assert chi_critical_numeric(**FIG1) == _reference_chi_critical_numeric(**FIG1)
        assert len(brackets) == 1
        lo, hi = brackets[0]
        assert 0.0 < hi - lo <= ChiSearchSettings().tol


def _fake_fold_terms(y_root):
    # q = (y - y_root)^2 + chi - 2, whose fold is at (y_root, 2)
    return lambda y, chi, rho, s: ((y - y_root) ** 2 + chi - 2.0, 2.0 * (y - y_root),
                                   2.0, 1.0, 0.0)


class TestFold:
    SMILE = SmileParams(g=0.2, chi=2.1, n=0.05, maturity=0.7)

    def _sigma(self, k, x):
        # the k-th x-derivative of the smile, in closed form
        p = self.SMILE
        h = smilecal.adiabatic._well_derivatives(x + 0.5 * p.g * p.g * p.maturity, p.n)
        if k == 0:
            return p.g * (1.0 + (p.chi - 1.0) * (1.0 - h[0]))
        return -p.g * (p.chi - 1.0) * h[k]

    @pytest.mark.parametrize("x", [-0.6, -0.25, -0.014, 0.0, 0.3])
    def test_sigma_derivatives_match_central_differences(self, x):
        p = self.SMILE
        assert self._sigma(0, x) == pytest.approx(sigma_of_x(p, x), rel=1e-14)
        step = 1e-4 * math.sqrt(p.n)
        for k in range(1, 6):
            central = (self._sigma(k - 1, x + step) - self._sigma(k - 1, x - step)) / (2 * step)
            scale = p.g * (p.chi - 1.0) * math.factorial(k) * p.n ** (-k / 2)
            assert abs(self._sigma(k, x) - central) <= 1e-7 * scale, k

    @pytest.mark.parametrize("y", [-3.0, -2.2, -1.0, 0.5])
    def test_q_terms_match_central_differences(self, y):
        rho, s, chi = 5.0, 0.3, 2.0

        def terms(y, chi):
            return smilecal.adiabatic._fold_terms(y, chi, rho, s)

        def log_p(y):  # the smile g = s, T = 1 has these (rho, s), and x = s y
            params = SmileParams(g=s, chi=chi, n=rho * s * s, maturity=1.0)
            return math.log(return_density(params, s * y))

        step = 1e-5
        q, q_y, q_yy, q_c, q_yc = terms(y, chi)
        by_y = [(a - b) / (2 * step) for a, b in zip(terms(y + step, chi), terms(y - step, chi))]
        by_c = [(a - b) / (2 * step) for a, b in zip(terms(y, chi + step), terms(y, chi - step))]
        assert q == pytest.approx((log_p(y + step) - log_p(y - step)) / (2 * step), abs=1e-7)
        assert q_y == pytest.approx(by_y[0], abs=1e-7)
        assert q_yy == pytest.approx(by_y[1], abs=1e-7)
        assert q_c == pytest.approx(by_c[0], abs=1e-7)
        assert q_yc == pytest.approx(by_c[1], abs=1e-7)

    def test_newton_finds_a_left_wing_fold(self, monkeypatch):
        monkeypatch.setattr(smilecal.adiabatic, "_fold_terms", _fake_fold_terms(-3.0))
        assert smilecal.adiabatic._fold_chi(8.0, 0.07) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize(
        "terms",
        [
            _fake_fold_terms(1.0),  # right of the smile minimum
            lambda *args: (math.nan,) * 5,
            lambda *args: (1.0, 0.0, 0.0, 0.0, 0.0),  # singular Jacobian
            lambda *args: math.log(-1.0),
        ],
        ids=["right-wing", "nan", "singular", "value-error"],
    )
    def test_no_prediction(self, monkeypatch, terms):
        monkeypatch.setattr(smilecal.adiabatic, "_fold_terms", terms)
        assert smilecal.adiabatic._fold_chi(8.0, 0.07) is None

    def test_no_prediction_past_the_step_limit(self, monkeypatch):
        monkeypatch.setattr(smilecal.adiabatic, "_FOLD_MAX_STEPS", 2)
        assert smilecal.adiabatic._fold_chi(8.0, 0.07) is None

    @pytest.mark.parametrize(
        "rho, s",
        [
            (2.0, 1e-170),  # rho * s * s underflows to 0, which the seed rejects
            (1e-300, 1.0),
            (1e300, 1.0),
            (1.0, 1e300),
        ],
    )
    def test_no_prediction_at_extreme_points(self, rho, s):
        # the search consults the fold at every point, so it must never raise
        assert smilecal.adiabatic._fold_chi(rho, s) is None

    def test_log_of_a_negative_curvature_factor_raises(self):
        # F < 0 here; cmath.log would not raise, so _Jet.log must
        with pytest.raises(ValueError):
            smilecal.adiabatic._fold_terms(-2.0, 4.0, 5.0, 0.3)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(rho_exp=st.floats(-300.0, 300.0), s_exp=st.floats(-300.0, 300.0))
    def test_fold_never_raises(self, rho_exp, s_exp):
        # rho and s log-uniform over [1e-300, 1e300]
        chi = smilecal.adiabatic._fold_chi(10.0**rho_exp, 10.0**s_exp)
        assert chi is None or (math.isfinite(chi) and chi > 1.0)

    def test_table1_guidance(self, monkeypatch):
        # the fold is close to the grid chi_c, Newton is short, no search
        # falls back to the full scan and few verdicts are real
        steps = []
        terms = smilecal.adiabatic._fold_terms

        def counting(*args):
            steps[-1] += 1
            return terms(*args)

        monkeypatch.setattr(smilecal.adiabatic, "_fold_terms", counting)
        fold = smilecal.adiabatic._fold_chi

        def recording(rho, s):
            steps.append(0)
            folds.append(fold(rho, s))
            return folds[-1]

        folds = []
        monkeypatch.setattr(smilecal.adiabatic, "_fold_chi", recording)
        chis = _record_search_chis(monkeypatch)
        points = _table1_points()
        found = [chi_critical_numeric(*p) for p in points]
        assert len(folds) == len(points)
        assert max(abs(f - c) for f, c in zip(folds, found)) <= 2e-4
        assert max(steps) <= 5
        assert smilecal.adiabatic.SCAN_START not in chis
        assert len(chis) <= 5 * len(points)

    @pytest.mark.parametrize(
        "fold",
        [lambda chi_c: chi_c + 0.01, lambda chi_c: chi_c - 0.01, lambda chi_c: math.nan],
        ids=["above", "below", "nan"],
    )
    def test_wrong_fold_still_matches(self, monkeypatch, fold):
        for g, rho, t in [(0.1, 8.0, 0.5), (0.03, 2.5, 4.0), (0.5, 10.0, 1 / 365)]:
            n = rho * g * g * t
            expected = _reference_chi_critical_numeric(g, n, t)
            monkeypatch.setattr(smilecal.adiabatic, "_fold_chi", lambda rho, s: fold(expected))
            assert chi_critical_numeric(g, n, t) == expected

    def test_failing_fold_still_matches(self, monkeypatch):
        def failing(*args):
            raise ZeroDivisionError

        monkeypatch.setattr(smilecal.adiabatic, "_fold_terms", failing)
        chis = _record_search_chis(monkeypatch)
        assert chi_critical_numeric(**FIG1) == _reference_chi_critical_numeric(**FIG1)
        assert chis[0] == smilecal.adiabatic.SCAN_START

    @pytest.mark.parametrize(
        "opts",
        [
            ChiSearchSettings(grid_points=8001),
            ChiSearchSettings(span=20.0),
            ChiSearchSettings(tol=1e-2),
            ChiSearchSettings(tol=1e-6),
        ],
        ids=["grid-8001", "span-20", "tol-1e-2", "tol-1e-6"],
    )
    def test_settings_match_full_scan(self, monkeypatch, opts):
        chis = _record_search_chis(monkeypatch)
        for g, rho, t in product(*default_sweep_axes(3, 3, 3)):
            n = rho * g * g * t
            expected = _reference_chi_critical_numeric(g, n, t, opts)
            del chis[:]
            assert chi_critical_numeric(g, n, t, opts) == expected
            assert smilecal.adiabatic.SCAN_START not in chis  # no fallback

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(
        rho=st.floats(2.5, 10.0),
        s=st.floats(0.0016, 1.0),
        t1=st.floats(1.0 / 365.0, 4.0),
        t2=st.floats(1.0 / 365.0, 4.0),
    )
    def test_rescaling_at_fixed_reduced_coordinates(self, rho, s, t1, t2):
        # chi_c is a function of (rho, s): the smile (g, n, T) with
        # g = s / sqrt(T) and n = rho g^2 T has the same chi_c for every T
        found = []
        for t in (t1, t2):
            g = s / math.sqrt(t)
            found.append(chi_critical_numeric(g, rho * g * g * t, t))
        assert found[0] == found[1]


class TestChiSearchSettings:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tol=0.0),
            dict(tol=math.nan),
            dict(chi_max=math.inf),
        ],
    )
    def test_settings_that_cannot_terminate_rejected(self, kwargs):
        with pytest.raises(DomainError):
            ChiSearchSettings(**kwargs)

    @pytest.mark.parametrize(
        "grid_points, span, error",
        [
            (200, 10.0, GridError),  # spacing above a tenth of a smile scale
            (4001, 3.0, GridError),  # narrower than 8 smile scales
            (4001, math.nan, GridError),
            (100, 4.0, GridError),  # below the 101-sample floor
            (10**6 + 1, 10.0, DomainError),
        ],
    )
    def test_grid_that_breaks_the_rule_rejected(self, grid_points, span, error):
        with pytest.raises(error):
            ChiSearchSettings(grid_points=grid_points, span=span)

    def test_tol_below_float_resolution_ends(self):
        tiny = chi_critical_numeric(**FIG1, settings=ChiSearchSettings(tol=1e-300))
        assert abs(tiny - chi_critical_numeric(**FIG1)) < 1e-4


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

    def test_point_generator_keeps_input_order(self):
        # not a lattice: repeated g, unsorted rho and T
        points = [(0.2, 8.0, 1.0), (0.05, 3.0, 0.25), (0.2, 3.0, 0.25), (0.05, 8.0, 1.0)]
        rows = list(sweep_points(iter(points)))
        assert [(r.g, r.rho, r.maturity) for r in rows] == points
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
        # rows from another surface, so the fit must move off its start,
        # the packaged constants
        truth = CriticalFitParams(alpha=1.3, beta=0.25, gamma=-0.1, delta=0.52)
        result = calibrate_critical_fit(_synthetic_rows(truth))
        assert result.params.alpha == pytest.approx(truth.alpha, abs=1e-8)
        assert result.params.beta == pytest.approx(truth.beta, abs=1e-8)
        assert result.params.gamma == pytest.approx(truth.gamma, abs=1e-8)
        assert result.params.delta == pytest.approx(truth.delta, abs=1e-8)
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
        # the verdict derives the flag, so a bound below 1 cannot fail it
        assert AdiabaticVerdict(chi_opt=1.0, chi_c=0.5, source="formula").adiabatic

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

    def test_formula_mode_searches_outside_the_box(self):
        # rho = 0.08, far below the box, where the surface gives about 0.7
        params = SmileParams(g=0.1, chi=2.0, n=0.0004, maturity=0.5)
        assert chi_critical_formula(params.g, params.n, params.maturity) < 1.0
        verdict = adiabatic_check(params, mode="formula")
        assert verdict.source == "numeric"
        assert verdict.chi_c == chi_critical_numeric(params.g, params.n, params.maturity)
        assert verdict == adiabatic_check(params, mode="numeric")


# the five-attempt shaving loop's final chi on the Fig. 1 quotes, which the
# bisected cap replaced
SHAVED_FIG1_CHI = 2.3944401525124506


def _unimodal(fit) -> bool:
    return analyze(density_curve(fit.params)).unimodal


def _quotes(truth: SmileParams) -> list[VolQuote]:
    xs = truth.x_min + np.linspace(-0.45, 0.45, 15)
    return [VolQuote(vol=float(sigma_of_x(truth, float(x))), x=float(x)) for x in xs]


class TestAdiabaticRefit:
    QUOTES = _quotes(SmileParams(chi=2.7, **FIG1))
    FREE = fit_smile(QUOTES, 0.5)

    @pytest.fixture(scope="class")
    def fig1(self):
        chi_max = adiabatic_check(self.FREE.params).chi_c
        final, report = adiabatic_refit(self.QUOTES, self.FREE, chi_max)
        assert report == analyze(density_curve(final.params))
        return chi_max, final

    def test_fig1_ends_at_the_largest_clean_cap(self, fig1):
        chi_max, final = fig1
        # the fit capped at the surface bound is not clean, so the cap moved
        assert not _unimodal(constrained_fit_smile(self.QUOTES, 0.5, chi_max))
        assert final.constrained and _unimodal(final)
        assert SHAVED_FIG1_CHI < final.params.chi < chi_max
        above = constrained_fit_smile(self.QUOTES, 0.5, 1.002 * final.params.chi)
        assert not _unimodal(above)

    def test_verdict_monotone_below_the_final_cap(self, fig1):
        # the bisection assumes every cap below a clean one is clean: check
        # it from the first midpoint up to the final cap
        chi_max, final = fig1
        for cap in np.linspace(0.5 * (1.0 + chi_max), final.params.chi, 12):
            assert _unimodal(constrained_fit_smile(self.QUOTES, 0.5, float(cap))), cap

    def test_clean_bound_returns_the_capped_fit(self):
        capped = constrained_fit_smile(self.QUOTES, 0.5, 2.0)
        assert _unimodal(capped)
        assert adiabatic_refit(self.QUOTES, self.FREE, 2.0)[0] == capped

    def test_bound_above_a_clean_free_fit_returns_it(self):
        quotes = _quotes(SmileParams(g=0.15, chi=1.6, n=0.07875, maturity=0.5))
        free = fit_smile(quotes, 0.5)
        assert _unimodal(free)
        assert adiabatic_refit(quotes, free, 3.0)[0] is free

    def test_tolerance_sets_the_final_cap(self, fig1):
        chi_max, final = fig1
        coarse, _ = adiabatic_refit(self.QUOTES, self.FREE, chi_max, ChiSearchSettings(tol=0.05))
        assert _unimodal(coarse)
        assert final.params.chi - 0.06 < coarse.params.chi <= final.params.chi

    @pytest.mark.parametrize("chi_max", [0.5, math.nan])
    def test_flat_free_fit_kept_whatever_the_bound(self, chi_max):
        quotes = [VolQuote(vol=0.2, x=x) for x in (-0.1, -0.03, 0.02, 0.08)]
        free = fit_smile(quotes, 0.5)
        final, report = adiabatic_refit(quotes, free, chi_max)
        assert final is free and report.unimodal

    @pytest.mark.parametrize("chi_max", [0.5, math.nan])
    def test_bound_below_one_rejected(self, chi_max):
        with pytest.raises(DomainError):
            adiabatic_refit(self.QUOTES, self.FREE, chi_max)
