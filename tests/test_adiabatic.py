"""Square-well critical half-width, the numerical chi_c search, the
closed-form surface, sweeps and their calibration, and the accept/reject
check.
"""

import cmath
import importlib.util
import math
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smilecal.adiabatic
from smilecal import (
    DEFAULT_CRITICAL_FIT,
    AdiabaticVerdict,
    ChiSearchSettings,
    ConvergenceError,
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
    return_density,
    sigma_derivatives,
    sigma_of_x,
    sweep,
    sweep_points,
)
from smilecal.density import _curvature, _gaussian_kernel

FIG1 = dict(g=0.1, n=0.04, maturity=0.5)
FIG2_PARAMS = SmileParams(g=0.1758, chi=1.20, n=0.00030, maturity=1.0 / 365.0)


def _load_bl_oracle():
    # the benchmark's Breeden-Litzenberger verdict, which imports no smilecal
    path = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BL_ORACLE = _load_bl_oracle()


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

    def test_non_unimodal_everywhere_above_chi_c(self):
        # the search predicts every verdict from the fold and checks only
        # the final bracket's ends, which is exact only if the verdict stays
        # non-unimodal above chi_c as well
        offsets = np.geomspace(1e-4, 0.5, 12)
        for g, rho, t in product(*default_sweep_axes(3, 3, 3)):
            n = rho * g * g * t
            chi_c = chi_critical_numeric(g, n, t)
            for d in offsets:
                params = SmileParams(g=g, chi=chi_c + d, n=n, maturity=t)
                assert not analyze(density_curve(params)).unimodal, (g, rho, t, d)


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
        if mid == lo or mid == hi:  # tol below the float resolution at chi
            break
        if non_unimodal(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _record_search_chis(monkeypatch):
    # the chi of every full-grid verdict and of every window verdict the
    # search makes, each list in order
    adiab = smilecal.adiabatic
    full, window = [], []
    curve, minima = adiab.density_curve, adiab._window_minima

    def full_curve(params, **kwargs):
        full.append(params.chi)
        return curve(params, **kwargs)

    def window_minima(params, settings, x):
        window.append(params.chi)
        return minima(params, settings, x)

    monkeypatch.setattr(adiab, "density_curve", full_curve)
    monkeypatch.setattr(adiab, "_window_minima", window_minima)
    return full, window


def _fold_chi(rho, s):
    # the fold's plateau ratio, or None where there is no fold
    point = smilecal.adiabatic._fold_point(rho, s)
    return None if point is None else point[1]


def _fake_fold(monkeypatch, fold):
    # the search reads fold(rho, s) -> (y, chi) as its fold; returns the
    # (rho, s) of each call, so a test can check that the fake steered it
    calls = []

    def fake(rho, s):
        calls.append((rho, s))
        return fold(rho, s)

    monkeypatch.setattr(smilecal.adiabatic, "_fold_point", fake)
    return calls


def _table1_points():
    # (g, n, T) with n computed as the sweep computes it
    return [(g, rho * g * g * t, t) for g, rho, t in product(*default_sweep_axes())]


def _inside_box(g, n, t):
    # inside exactly when the box's nearest point is the point itself
    point = smilecal.adiabatic._reduced(g, n, t)
    return point is not None and smilecal.adiabatic._box_point(*point) == point


class TestCalibratedBox:
    # the box of (rho, s) on which the surface is calibrated
    def test_table1_lies_in_the_box(self):
        # rounding puts some lattice points just outside the exact bounds
        assert all(_inside_box(*p) for p in _table1_points())

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
        assert not _inside_box(g, n, t)


class TestFoldGuidedSearch:
    # how few verdicts the fold's prediction leaves the search; counts are exact
    def test_fig1_verdict_count(self, monkeypatch):
        # one full verdict, at the bracket's lower end; a window at the
        # fold decides the upper end
        calls = []
        real = smilecal.adiabatic.analyze

        def counting(curve):
            calls.append(curve)
            return real(curve)

        monkeypatch.setattr(smilecal.adiabatic, "analyze", counting)
        chi_critical_numeric(**FIG1)
        assert len(calls) == 1

    def test_table1_verdict_count(self, monkeypatch):
        full, window = _record_search_chis(monkeypatch)
        counts = []
        for p in _table1_points():
            del full[:], window[:]
            chi_critical_numeric(*p)
            assert smilecal.adiabatic.SCAN_START not in full  # no fallback
            counts.append((len(full), len(window)))
        assert sum(f for f, _ in counts) <= 1.1 * len(counts)
        assert sum(w for _, w in counts) <= 1.1 * len(counts)

    @pytest.mark.parametrize(
        "rho, s, direct",
        [
            (1.2, 0.05, True),
            (30.0, 0.8, True),
            (0.6, 3.0, True),
            # Newton from the surface's start finds no fold here, so the fold
            # is continued from the box
            (0.3, 0.01, False),
            (60.0, 0.8, False),
            (8.0, 3.0, False),
        ],
    )
    def test_outside_the_box_matches_full_scan(self, monkeypatch, rho, s, direct):
        adiab = smilecal.adiabatic
        g, t = s, 1.0
        n = rho * g * g * t
        assert not _inside_box(g, n, t)
        assert (adiab._fold_newton(rho, s, *adiab._fold_seed(rho, s)) is not None) == direct
        expected = _reference_chi_critical_numeric(g, n, t)
        full, _ = _record_search_chis(monkeypatch)
        assert chi_critical_numeric(g, n, t) == expected
        assert adiab.SCAN_START not in full

    def test_table1_identical_to_full_scan(self):
        points = _table1_points()
        fast = [repr(chi_critical_numeric(*p)) for p in points]
        full = [repr(_reference_chi_critical_numeric(*p)) for p in points]
        assert fast == full

    def test_outside_the_box_is_fold_guided(self, monkeypatch):
        g, t = 0.1, 0.5
        n = 40.0 * g * g * t
        expected = _reference_chi_critical_numeric(g, n, t)
        full, _ = _record_search_chis(monkeypatch)
        assert chi_critical_numeric(g, n, t) == expected
        assert smilecal.adiabatic.SCAN_START not in full

    def test_outside_the_box_probe_lattice(self, monkeypatch):
        # rho in geomspace(0.3, 60, 9) by s in geomspace(3e-4, 3, 8) at
        # T = 1, less the box. A worse fold here moves no chi_c, as the
        # search keeps the full scan's result, but it costs verdicts
        points = [
            (s, rho * s * s, 1.0)
            for rho, s in product(np.geomspace(0.3, 60, 9), np.geomspace(3e-4, 3, 8))
            if not _inside_box(s, rho * s * s, 1.0)
        ]
        assert len(points) == 62
        expected = [_reference_chi_critical_numeric(*p) for p in points]
        reduced = [smilecal.adiabatic._reduced(*p) for p in points]
        assert [_fold_chi(*r) for r in reduced].count(None) == 0
        full, window = _record_search_chis(monkeypatch)
        assert [chi_critical_numeric(*p) for p in points] == expected
        assert len(full) <= 1.1 * len(points)
        assert len(window) <= 1.1 * len(points)

    def test_fallback_when_first_verdict_is_non_unimodal(self, monkeypatch):
        # a fold past the transition predicts unimodal verdicts where the
        # real ones are not, so the first walk's lower end is contradicted
        # and the walk is retried with real verdicts in a widening window;
        # the full scan alone makes 41 verdicts here
        expected = _reference_chi_critical_numeric(**FIG1)
        fold = smilecal.adiabatic._fold_point
        calls = _fake_fold(monkeypatch, lambda rho, s: (fold(rho, s)[0], expected + 0.01))
        full, _ = _record_search_chis(monkeypatch)
        assert chi_critical_numeric(**FIG1) == expected
        assert calls
        assert len(full) <= 15

    def test_low_surface_still_matches(self, monkeypatch):
        # a fold more than SCAN_STEP below the transition: the windows never
        # reach it, and the scan with every verdict real ends the search
        expected = _reference_chi_critical_numeric(**FIG1)
        fold = smilecal.adiabatic._fold_point

        def half(rho, s):
            y, chi = fold(rho, s)
            return y, 0.5 * chi

        calls = _fake_fold(monkeypatch, half)
        full, window = _record_search_chis(monkeypatch)
        assert chi_critical_numeric(**FIG1) == expected
        assert calls
        assert len(full) <= 47
        # no chi gets two verdicts of either kind
        assert len(set(full)) == len(full) and len(set(window)) == len(window)

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

    def test_walks_are_capped_at_float_resolution(self, monkeypatch):
        # at chi-tol 1e-300 the final bracket is one float wide, so the first
        # retry windows are far narrower than the fold's error; after
        # _MAX_WALKS walks every verdict is real (the full scan alone makes
        # 41 full verdicts here, ten uncapped walks 120)
        opts = ChiSearchSettings(tol=1e-300)
        expected = _reference_chi_critical_numeric(**FIG1, opts=opts)
        full, _ = _record_search_chis(monkeypatch)
        assert chi_critical_numeric(**FIG1, settings=opts) == expected
        assert len(full) <= 75


def _final_bracket(monkeypatch, g, n, t, opts):
    # the last bracket the search's bisection returns
    brackets = []
    real = smilecal.adiabatic._bisect

    def recording(non_unimodal, lo, hi, tol):
        brackets.append(real(non_unimodal, lo, hi, tol))
        return brackets[-1]

    monkeypatch.setattr(smilecal.adiabatic, "_bisect", recording)
    chi_critical_numeric(g, n, t, opts)
    monkeypatch.undo()
    return brackets[-1]


class TestWindowVerdict:
    # above the fold, a slice of the grid around the fold's x decides first
    @pytest.mark.parametrize(
        "opts",
        [ChiSearchSettings(), ChiSearchSettings(grid_points=16001),
         ChiSearchSettings(span=4.0, grid_points=101)],
        ids=["default", "grid-16001", "span-4-grid-101"],
    )
    def test_slice_samples_are_the_full_curves(self, monkeypatch, opts):
        # bit for bit, at both ends of each search's final bracket on the
        # 27-point sub-lattice, centred on the fold, near either end of the
        # grid and past it, and clipped to the grid; the slice starts where
        # searchsorted on the full grid puts x, a NaN last
        adiab = smilecal.adiabatic
        for g, rho, t in product(*default_sweep_axes(3, 3, 3)):
            n = rho * g * g * t
            y, _ = adiab._fold_point(*adiab._reduced(g, n, t))
            for chi in _final_bracket(monkeypatch, g, n, t, opts):
                params = SmileParams(g=g, chi=chi, n=n, maturity=t)
                full = density_curve(params, points=opts.grid_points, span=opts.span)
                xs = full.xs
                inner = [xs[k] for k in (xs.size // 3, xs.size // 2, 2 * xs.size // 3)]
                for x in (y * g * math.sqrt(t), -math.inf, xs[0] - 1.0, xs[0], xs[1],
                          *inner, *np.nextafter(inner, -np.inf), *np.nextafter(inner, np.inf),
                          xs[-2], xs[-1], xs[-1] + 1.0, math.inf, math.nan):
                    slices = []
                    monkeypatch.setattr(adiab, "stationary_points",
                                        lambda curve: slices.append(curve) or ())
                    adiab._window_minima(params, opts, float(x))
                    monkeypatch.undo()
                    (part,) = slices
                    size = adiab._WINDOW_POINTS
                    start = int(np.searchsorted(xs, x)) - size // 2
                    start = min(max(start, 0), max(xs.size - size, 0))
                    assert part.xs.size == min(size, xs.size)
                    assert part.xs.tobytes() == xs[start:start + part.xs.size].tobytes()
                    assert part.ps.tobytes() == full.ps[start:start + part.xs.size].tobytes()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        g=st.floats(*smilecal.adiabatic.TABLE_RANGES["g"]),
        rho=st.floats(*smilecal.adiabatic.TABLE_RANGES["rho"]),
        t=st.floats(*smilecal.adiabatic.TABLE_RANGES["t"]),
        above=st.floats(0.0, 0.2),
        centre=st.none() | st.floats(-0.2, 1.2),
    )
    def test_window_minimum_is_a_full_grid_minimum(self, g, rho, t, above, centre):
        # chi in [chi_c, 1.2 chi_c], the window centred on the fold's x
        # (None) or anywhere along the grid and past its ends
        adiab = smilecal.adiabatic
        n = rho * g * g * t
        params = SmileParams(g=g, chi=(1.0 + above) * chi_critical_numeric(g, n, t), n=n,
                             maturity=t)
        curve = density_curve(params)
        if centre is None:
            x = adiab._fold_point(*adiab._reduced(g, n, t))[0] * g * math.sqrt(t)
        else:
            x = curve.xs[0] + centre * (curve.xs[-1] - curve.xs[0])
        minima = analyze(curve).minima
        for point in adiab._window_minima(params, ChiSearchSettings(), x):
            assert point in minima

    @pytest.mark.parametrize(
        "wrong_y",
        [lambda y, s: -s - y, lambda y, s: 1e6, lambda y, s: -1e6, lambda y, s: math.nan],
        ids=["right-wing", "right-of-grid", "left-of-grid", "nan"],
    )
    def test_wrong_fold_y_still_matches(self, monkeypatch, wrong_y):
        # the window then finds no minimum, and the full grid decides
        real = smilecal.adiabatic._fold_point
        full, window = _record_search_chis(monkeypatch)
        for g, rho, t in [(0.1, 8.0, 0.5), (0.03, 2.5, 4.0), (0.5, 10.0, 1 / 365)]:
            n = rho * g * g * t
            expected = _reference_chi_critical_numeric(g, n, t)

            def fold(rho, s):
                y, chi = real(rho, s)
                return wrong_y(y, s), chi

            calls = _fake_fold(monkeypatch, fold)
            del full[:], window[:]
            assert chi_critical_numeric(g, n, t) == expected
            assert calls and window


def _kernel_times_factor(params, x):
    # the smile density as its parts: the Gaussian kernel at the smile vol
    # times the curvature factor, from the public smile derivatives
    x = np.asarray(x, dtype=float)
    sig, d1, d2 = sigma_derivatives(params, x)
    return (_gaussian_kernel(sig, params.maturity, x)
            * _curvature(sig, d1, d2, x, params.maturity))


class TestOneDensityKernel:
    def test_density_is_kernel_times_factor(self, monkeypatch):
        # bit for bit, at both ends of each Table-1 search's final bracket:
        # on the whole grid, on the window's slice and at the fold's x
        adiab = smilecal.adiabatic
        opts = ChiSearchSettings()
        for g, n, t in _table1_points():
            y, _ = adiab._fold_point(*adiab._reduced(g, n, t))
            x = y * g * math.sqrt(t)
            for chi in _final_bracket(monkeypatch, g, n, t, opts):
                params = SmileParams(g=g, chi=chi, n=n, maturity=t)
                xs = density_curve(params).xs
                assert return_density(params, xs).tobytes() == \
                    _kernel_times_factor(params, xs).tobytes()
                slices = []
                monkeypatch.setattr(adiab, "stationary_points",
                                    lambda curve: slices.append(curve) or ())
                adiab._window_minima(params, opts, x)
                monkeypatch.undo()
                (part,) = slices
                assert part.ps.tobytes() == _kernel_times_factor(params, part.xs).tobytes()
                value = return_density(params, x)
                assert type(value) is float
                assert value.hex() == float(_kernel_times_factor(params, x)).hex()


def _fake_fold_terms(y_root):
    # q = (y - y_root)^2 + chi - 2, whose fold is at (y_root, 2)
    return lambda y, chi, rho, s: ((y - y_root) ** 2 + chi - 2.0, 2.0 * (y - y_root),
                                   2.0, 1.0, 0.0)


class _Jet:
    # Reference for _log_slope: a function of y as its Taylor coefficients
    # (f, f', f''/2, f'''/6) at one point, possibly complex, with the
    # algebra of sums, products, quotients and logarithms that _log_slope
    # unrolls. _log_slope must form each coefficient with the same
    # operations in the same order, so the two agree bit for bit.
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __add__(self, other):
        a0, a1, a2, a3 = self.c
        b0, b1, b2, b3 = other.c
        return _Jet((a0 + b0, a1 + b1, a2 + b2, a3 + b3))

    def __sub__(self, other):
        a0, a1, a2, a3 = self.c
        b0, b1, b2, b3 = other.c
        return _Jet((a0 - b0, a1 - b1, a2 - b2, a3 - b3))

    def __rsub__(self, other):
        a0, a1, a2, a3 = self.c
        return _Jet((other - a0, -a1, -a2, -a3))

    def __mul__(self, other):
        a0, a1, a2, a3 = self.c
        if not isinstance(other, _Jet):
            return _Jet((a0 * other, a1 * other, a2 * other, a3 * other))
        b0, b1, b2, b3 = other.c
        return _Jet((a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0,
                     a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0))

    def __truediv__(self, other):
        a0, a1, a2, a3 = self.c
        b0, b1, b2, b3 = other.c
        c0 = a0 / b0
        c1 = (a1 - c0 * b1) / b0
        c2 = (a2 - c1 * b1 - c0 * b2) / b0
        c3 = (a3 - c2 * b1 - c1 * b2 - c0 * b3) / b0
        return _Jet((c0, c1, c2, c3))

    def log(self):
        a0, a1, a2, a3 = self.c
        if not a0.real > 0.0:  # cmath.log, unlike math.log, would not raise
            raise ValueError(f"log of a jet whose value {a0} has no positive real part")
        l1 = a1 / a0
        l2 = (a2 - 0.5 * l1 * a1) / a0
        l3 = (a3 - (l1 * a2 + 2.0 * l2 * a1) / 3.0) / a0
        return _Jet((cmath.log(a0), l1, l2, l3))


def _reference_log_slope(y, chi, rho, s):
    # (q, q_y, q_yy) of _log_slope, by the jet algebra
    h = smilecal.adiabatic._well_derivatives(y + 0.5 * s, rho)
    c = chi - 1.0
    w = (1.0 - h[0], -h[1], -h[2], -h[3], -h[4], -h[5])  # sig = 1 + c * w

    def jet(k):  # of the k-th derivative of sig
        return _Jet((float(k == 0) + c * w[k], c * w[k + 1], c * (w[k + 2] / 2.0),
                     c * (w[k + 3] / 6.0)))

    sig, sig1, sig2 = jet(0), jet(1), jet(2)
    z = _Jet((y, 1.0, 0.0, 0.0)) / sig
    slope = 1.0 - z * sig1
    prod = sig1 * sig * (0.5 * s)
    factor = slope * slope - prod * prod + sig * sig2
    sig_s = sig * (0.5 * s)
    _, l1, l2, l3 = (factor.log() - sig.log() - (z * z + sig_s * sig_s) * 0.5).c
    return l1 - 0.5 * s, 2.0 * l2, 6.0 * l3


def _outcome(fn, *args):
    # each term's real and imaginary parts by float.hex, or the exception type
    try:
        return tuple((complex(v).real.hex(), complex(v).imag.hex()) for v in fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


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
        assert _fold_chi(8.0, 0.07) == pytest.approx(2.0, abs=1e-12)

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
        assert _fold_chi(8.0, 0.07) is None

    def test_no_prediction_past_the_step_limit(self, monkeypatch):
        monkeypatch.setattr(smilecal.adiabatic, "_FOLD_MAX_STEPS", 2)
        assert _fold_chi(8.0, 0.07) is None

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
        assert _fold_chi(rho, s) is None

    @pytest.mark.parametrize("rho, s", [(1.2, 0.05), (30.0, 0.8), (0.6, 3.0)])
    def test_continued_fold_matches_the_direct_one(self, monkeypatch, rho, s):
        # where Newton from the surface's start converges, continuing the
        # fold from the box instead lands on the same fold
        adiab = smilecal.adiabatic
        direct = _fold_chi(rho, s)
        start = (rho, s, *adiab._fold_seed(rho, s))
        newton = adiab._fold_newton

        def no_direct(*args):
            return None if args == start else newton(*args)

        monkeypatch.setattr(adiab, "_fold_newton", no_direct)
        assert _fold_chi(rho, s) == pytest.approx(direct, abs=1e-12)

    def test_log_of_a_negative_curvature_factor_raises(self):
        # F < 0 here; cmath.log would not raise, so _log_slope must
        with pytest.raises(ValueError):
            smilecal.adiabatic._fold_terms(-2.0, 4.0, 5.0, 0.3)

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(
        y=st.floats(-50.0, 50.0) | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
        chi=st.floats(1.0, 30.0) | st.floats(-2.0, 1.0),
        rho_exp=st.floats(-8.0, 8.0) | st.floats(-320.0, 308.0),
        s_exp=st.floats(-8.0, 2.0) | st.floats(-320.0, 308.0),
        step_in=st.sampled_from(["chi", "rho", "s"]),
    )
    def test_log_slope_matches_the_jet_algebra(self, y, chi, rho_exp, s_exp, step_in):
        # bit for bit, with the complex step in each argument it takes one
        # in, and the same exception type where either raises
        args = {"chi": chi, "rho": 10.0**rho_exp, "s": 10.0**s_exp}
        args[step_in] = complex(args[step_in], smilecal.adiabatic._CHI_STEP)
        expected = _outcome(_reference_log_slope, y, *args.values())
        assert _outcome(smilecal.adiabatic._log_slope, y, *args.values()) == expected

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(rho_exp=st.floats(-300.0, 300.0), s_exp=st.floats(-300.0, 300.0))
    def test_fold_never_raises(self, rho_exp, s_exp):
        # rho and s log-uniform over [1e-300, 1e300]
        chi = _fold_chi(10.0**rho_exp, 10.0**s_exp)
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
        fold = smilecal.adiabatic._fold_point

        def recording(rho, s):
            steps.append(0)
            folds.append(fold(rho, s))
            return folds[-1]

        folds = []
        monkeypatch.setattr(smilecal.adiabatic, "_fold_point", recording)
        full, _ = _record_search_chis(monkeypatch)
        points = _table1_points()
        found = [chi_critical_numeric(*p) for p in points]
        assert len(folds) == len(points)
        assert max(abs(chi - c) for (_, chi), c in zip(folds, found)) <= 2e-4
        assert max(steps) <= 5
        assert smilecal.adiabatic.SCAN_START not in full
        assert len(full) <= 5 * len(points)

    def test_fold_gradient_matches_central_differences(self):
        # the implicit-function chi partials against central differences of
        # whole fold solves, on the 27-point sub-lattice
        adiab = smilecal.adiabatic
        step = 1e-5
        for g, rho, t in product(*default_sweep_axes(3, 3, 3)):
            r, s = adiab._reduced(g, rho * g * g * t, t)
            grad = adiab._fold_gradient(r, s, *adiab._fold_point(r, s))
            central = (
                (_fold_chi(r * (1 + step), s) - _fold_chi(r * (1 - step), s))
                / (2 * step * r),
                (_fold_chi(r, s * (1 + step)) - _fold_chi(r, s * (1 - step)))
                / (2 * step * s),
            )
            assert grad == pytest.approx(central, rel=1e-6), (g, rho, t)

    def test_pin_gradient_matches_central_differences(self):
        # the pin's chain rule from (rho, s) to (ln g, ln n)
        adiab = smilecal.adiabatic
        g, n, t = 0.107, 0.05, 0.5
        pin = adiab._fold_pin(t)
        chi, chi_g, chi_n = pin(g, n)
        assert chi == pytest.approx((1.0 - 1e-3) * _fold_chi(*adiab._reduced(g, n, t)))
        step = 1e-5
        by_g = (pin(g * math.exp(step), n)[0] - pin(g * math.exp(-step), n)[0]) / (2 * step)
        by_n = (pin(g, n * math.exp(step))[0] - pin(g, n * math.exp(-step))[0]) / (2 * step)
        assert (chi_g, chi_n) == pytest.approx((by_g, by_n), rel=1e-6)

    @pytest.mark.parametrize(
        "fold",
        [lambda chi_c: chi_c + 0.01, lambda chi_c: chi_c - 0.01, lambda chi_c: math.nan],
        ids=["above", "below", "nan"],
    )
    def test_wrong_fold_still_matches(self, monkeypatch, fold):
        real = smilecal.adiabatic._fold_point
        for g, rho, t in [(0.1, 8.0, 0.5), (0.03, 2.5, 4.0), (0.5, 10.0, 1 / 365)]:
            n = rho * g * g * t
            expected = _reference_chi_critical_numeric(g, n, t)
            calls = _fake_fold(monkeypatch, lambda rho, s: (real(rho, s)[0], fold(expected)))
            assert chi_critical_numeric(g, n, t) == expected
            assert calls

    def test_failing_fold_still_matches(self, monkeypatch):
        def failing(*args):
            raise ZeroDivisionError

        monkeypatch.setattr(smilecal.adiabatic, "_fold_terms", failing)
        full, window = _record_search_chis(monkeypatch)
        assert chi_critical_numeric(**FIG1) == _reference_chi_critical_numeric(**FIG1)
        assert full[0] == smilecal.adiabatic.SCAN_START
        assert not window  # no fold, no window to read

    @pytest.mark.parametrize(
        "opts, per_search",
        [
            (ChiSearchSettings(grid_points=8001), 1.0),
            (ChiSearchSettings(span=20.0), 1.3),
            (ChiSearchSettings(tol=1e-2), 1.1),
            # the fold's error exceeds the final bracket's width more often,
            # so more searches retry with a window of real verdicts
            (ChiSearchSettings(tol=1e-6), 6.9),
        ],
        ids=["grid-8001", "span-20", "tol-1e-2", "tol-1e-6"],
    )
    def test_settings_match_full_scan(self, monkeypatch, opts, per_search):
        full, _ = _record_search_chis(monkeypatch)
        points = list(product(*default_sweep_axes(3, 3, 3)))
        verdicts = 0
        for g, rho, t in points:
            n = rho * g * g * t
            expected = _reference_chi_critical_numeric(g, n, t, opts)
            del full[:]
            assert chi_critical_numeric(g, n, t, opts) == expected
            assert smilecal.adiabatic.SCAN_START not in full  # no fallback
            verdicts += len(full)
        assert verdicts <= per_search * len(points)

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

    def test_underflowing_rho_denominator_is_out_of_domain(self):
        # a flat fit at maturity 5e-324 reaches the formula through check
        with pytest.raises(DomainError, match="underflows"):
            chi_critical_formula(0.2, 0.0036, 5e-324)


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


# the rms of the fit at the largest clean cap, bisected to 1e-4 less 0.1%,
# on the Fig. 1 quotes, which the fold-pinned fit replaced
BISECTED_FIG1_RMS = 0.00448353913135494


def _fit_values(fit) -> tuple[float, float, float, float]:
    p = fit.params
    return p.g, p.chi, p.n, p.maturity


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

    def test_fig1_ends_pinned_below_its_own_fold(self, fig1):
        chi_max, final = fig1
        # the fit capped at the surface bound is not clean, so chi is pinned
        capped = constrained_fit_smile(self.QUOTES, self.FREE.params,
                                       lambda g, n: (chi_max, 0.0, 0.0))
        assert not _unimodal(capped)
        assert final.constrained and final.converged and _unimodal(final)
        assert BL_ORACLE.density_verdict(*_fit_values(final)) == 0
        # re-optimizing (g, n) moves the fold above the bound of the free fit
        assert final.params.chi == pytest.approx(2.5815, abs=1e-4)
        assert final.params.chi > chi_max
        assert final.residual_rms < BISECTED_FIG1_RMS

    def test_final_chi_is_pinned_to_the_final_fold(self, fig1):
        _, final = fig1
        p = final.params
        fold = _fold_chi(*smilecal.adiabatic._reduced(p.g, p.n, p.maturity))
        assert p.chi == pytest.approx((1.0 - 1e-3) * fold, rel=1e-12)

    def test_bound_below_a_free_fit_returns_the_pinned_fit(self, fig1):
        # the pinned fit does not depend on the bound it replaces
        _, final = fig1
        assert adiabatic_refit(self.QUOTES, self.FREE, 2.0)[0] == final

    def test_bound_above_a_clean_free_fit_returns_it(self):
        quotes = _quotes(SmileParams(g=0.15, chi=1.6, n=0.07875, maturity=0.5))
        free = fit_smile(quotes, 0.5)
        assert _unimodal(free)
        assert adiabatic_refit(quotes, free, 3.0)[0] is free

    def test_final_fit_does_not_depend_on_the_tolerance(self, fig1):
        chi_max, final = fig1
        coarse, _ = adiabatic_refit(self.QUOTES, self.FREE, chi_max, ChiSearchSettings(tol=0.05))
        assert coarse == final

    def test_no_fold_at_the_start_raises(self, monkeypatch):
        monkeypatch.setattr(smilecal.adiabatic, "_fold_point", lambda rho, s: None)
        with pytest.raises(ConvergenceError, match="no fold"):
            adiabatic_refit(self.QUOTES, self.FREE, 2.0)

    @pytest.mark.parametrize("fold, pinned", [(1.0005, False), (1.002, True)])
    def test_pin_has_no_value_below_chi_one(self, monkeypatch, fold, pinned):
        # 0.1% below a fold under 1 / (1 - 1e-3) is no smile
        monkeypatch.setattr(smilecal.adiabatic, "_fold_point", lambda rho, s: (-1.0, fold))
        p = self.FREE.params
        assert (smilecal.adiabatic._fold_pin(p.maturity)(p.g, p.n) is not None) == pinned

    def test_trial_point_without_a_fold_is_rejected(self, monkeypatch):
        # no fold beyond a g 2% above the free fit's: LM must stay below it
        g_max = 1.02 * self.FREE.params.g
        newton = smilecal.adiabatic._fold_newton
        seen = []

        def bounded(rho, s, y, chi):
            seen.append(s / math.sqrt(0.5))
            return None if seen[-1] > g_max else newton(rho, s, y, chi)

        monkeypatch.setattr(smilecal.adiabatic, "_fold_newton", bounded)
        final, _ = adiabatic_refit(self.QUOTES, self.FREE, 2.0)
        assert max(seen) > g_max  # LM tried a point without a fold
        assert final.params.g <= g_max

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
