"""Densities: flat-vol reduction, curvature factor, closed form vs the
finite-difference strike-space oracle, the put branch of the pricing
kernel, normalization, and the shape analysis that flags bad densities.
"""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import smilecal.density
from smilecal import (
    DensityCurve,
    DomainError,
    GridError,
    MarketEnv,
    SmileParams,
    StationaryPoint,
    analyze,
    bl_density_oracle,
    chi_critical_numeric,
    density_curve,
    return_density,
    sigma_derivatives,
    smile_vol_of_strike,
    stationary_points,
)
from smilecal.adiabatic import TABLE_RANGES
from smilecal.bs_core import _bs_value
from smilecal.density import _curvature, _gaussian_kernel, _grid, _grid_ends

FIG1 = SmileParams(g=0.1, chi=2.7, n=0.04, maturity=0.5)


def _random_params(rng, chi_lo=1.05, chi_hi=4.0):
    g = math.exp(rng.uniform(math.log(0.03), math.log(0.5)))
    rho = math.exp(rng.uniform(math.log(2.5), math.log(10.0)))
    t = math.exp(rng.uniform(math.log(1.0 / 365.0), math.log(4.0)))
    chi = rng.uniform(chi_lo, chi_hi)
    return SmileParams(g=g, chi=chi, n=rho * g * g * t, maturity=t)


def _flat_density(sig, t, x):
    # the chi = 1 smile is flat at g, and its density the flat-vol Gaussian
    return return_density(SmileParams(g=sig, chi=1.0, n=0.01, maturity=t), x)


class TestGaussianDensity:
    def test_peak_location_and_height(self):
        sig, t = 0.2, 1.0
        mode = -0.5 * sig * sig * t
        peak = 1.0 / math.sqrt(2.0 * math.pi * sig * sig * t)
        assert _flat_density(sig, t, mode) == pytest.approx(peak, rel=1e-15)
        eps = 1e-4
        assert _flat_density(sig, t, mode) > _flat_density(sig, t, mode + eps)
        assert _flat_density(sig, t, mode) > _flat_density(sig, t, mode - eps)

    def test_unit_mass(self):
        sig, t = 0.37, 0.8
        width = sig * math.sqrt(t)
        xs = np.linspace(-8 * width, 8 * width, 40001) - 0.5 * sig * sig * t
        mass = np.trapezoid(_flat_density(sig, t, xs), xs)
        assert abs(mass - 1.0) < 1e-10

    def test_point_value(self):
        # independent arithmetic for sigma=0.2, T=1 at x=0
        expected = math.exp(-(0.02**2) / 0.08) / math.sqrt(2.0 * math.pi * 0.04)
        assert _flat_density(0.2, 1.0, 0.0) == pytest.approx(expected, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            _flat_density(0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            _flat_density(math.nan, 1.0, 0.0)


class TestPerturbationFactor:
    def test_flat_smile_gives_one(self):
        assert _curvature(0.2, 0.0, 0.0, 0.37, 1.0) == 1.0

    def test_at_zero_return(self):
        sig, d1, d2, t = 0.25, 0.4, -3.0, 0.5
        expected = 1.0 - (d1 * sig * t) ** 2 / 4.0 + sig * d2 * t
        assert _curvature(sig, d1, d2, 0.0, t) == pytest.approx(expected, rel=1e-15)

    def test_general_point(self):
        sig, d1, d2, x, t = 0.3, -0.2, 5.0, -0.15, 2.0
        expected = (1.0 - d1 / sig * x) ** 2 - (d1 * sig * t) ** 2 / 4.0 + sig * d2 * t
        assert _curvature(sig, d1, d2, x, t) == pytest.approx(expected, rel=1e-15)


class TestReturnDensity:
    def test_flat_reduction_is_bitwise(self):
        for g, t in [(0.1, 0.5), (0.03, 1.0 / 365.0), (0.5, 4.0)]:
            p = SmileParams(g=g, chi=1.0, n=0.01, maturity=t)
            width = g * math.sqrt(t)
            xs = np.linspace(-10 * width, 10 * width, 4001) + p.x_min
            diff = return_density(p, xs) - _gaussian_kernel(g, t, xs)
            assert np.max(np.abs(diff)) == 0.0

    def test_fig1_has_relative_minima(self):
        curve = density_curve(FIG1)
        report = analyze(curve)
        assert not report.unimodal
        assert len(report.minima) >= 1
        # the dips are visible features, not tail noise
        peak = curve.ps.max()
        assert all(pt.p > 1e-4 * peak for pt in report.minima)

    def test_unit_mass_for_adiabatic_params(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            p = _random_params(rng, chi_lo=1.1, chi_hi=1.6)
            report = analyze(density_curve(p))
            assert abs(report.total_mass - 1.0) < 1e-6

    def test_negative_for_violent_smile(self):
        p = SmileParams(g=0.2, chi=10.0, n=1e-4, maturity=0.5)
        curve = density_curve(p)
        assert curve.ps.min() < 0.0


def _straight_line_terms(params, x):
    # sigma_derivatives as plain expressions, one new array per operation
    g, chi, n = params.g, params.chi, params.n
    height = chi - 1.0
    u = x + 0.5 * g * g * params.maturity
    uu = u * u
    den = uu + n
    den2 = den * den
    sig = g * (1.0 + height * uu / den)
    d1 = g * height * 2.0 * n * u / den2
    d2 = g * height * 2.0 * n * (n - 3.0 * u * u) / (den2 * den)
    return sig, d1, d2


def _straight_line_density(params, x):
    # return_density as plain expressions: the Gaussian kernel at the smile
    # vol times the curvature factor
    sig, d1, d2 = _straight_line_terms(params, x)
    t = params.maturity
    var = sig * sig * t
    shift = 0.5 * var
    kernel = np.exp(-((x + shift) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
    factor = (1.0 - d1 / sig * x) ** 2 - (d1 * sig * t) ** 2 / 4.0 + sig * d2 * t
    return kernel * factor


class TestStraightLineKernel:
    """``return_density`` and ``sigma_derivatives`` equal the closed form
    written as plain expressions, bit for bit, whatever the shape of x. A
    float or a 0-d x is compared with the expressions on the one-point
    array: on a numpy scalar ``** 2`` rounds through ``pow``, which is not
    always the correctly rounded square that an array's ``** 2`` is."""

    @staticmethod
    def _smiles():
        rng = np.random.default_rng(20261021)
        smiles = [SmileParams(g=0.2, chi=1.0, n=0.01, maturity=0.5)]
        for _ in range(40):  # off the Table-1 lattice, as the desk's generator draws
            g, t = 10.0 ** rng.uniform(-2.5, 0.5), 10.0 ** rng.uniform(-3.5, 1.5)
            chi = 1.0 + 10.0 ** rng.uniform(-3.0, 1.2)
            n = 10.0 ** rng.uniform(-1.5, 2.5) * g * g * t
            smiles.append(SmileParams(g=g, chi=chi, n=n, maturity=t))
        return smiles

    @staticmethod
    def _assert_same(params, x):
        want = _straight_line_terms(params, x) + (_straight_line_density(params, x),)
        got = sigma_derivatives(params, x) + (return_density(params, x),)
        for a, b in zip(got, want):
            assert type(a) is np.ndarray and a.shape == np.shape(x)
            assert a.tobytes() == b.tobytes()

    def test_arrays(self):
        underflowed = 0
        for params in self._smiles():
            xs = density_curve(params).xs
            wide = density_curve(params, points=4001, span=60.0).xs
            for x in (xs, xs[1970:2031], xs[:1], wide, wide.reshape(1, 4001),
                      wide[1:].reshape(1000, 4).T):
                self._assert_same(params, x)
            underflowed += int(np.count_nonzero(return_density(params, wide) == 0.0))
        assert underflowed > 0  # the tails past about 38 smile scales are 0

    def test_floats_and_0d_arrays_are_their_one_point_arrays(self):
        rng = np.random.default_rng(7)
        for params in self._smiles():
            scale = params.sigma_plateau * math.sqrt(params.maturity)
            for y in (*rng.uniform(-12.0, 12.0, 5), 0.0, -60.0):
                x = params.x_min + y * scale
                want = _straight_line_terms(params, np.array([x])) + (
                    _straight_line_density(params, np.array([x])),)
                for arg in (x, np.float64(x), np.array(x)):
                    got = sigma_derivatives(params, arg) + (return_density(params, arg),)
                    for a, b in zip(got, want):
                        assert type(a) is float
                        assert a.hex() == float(b[0]).hex()


class TestBlOracle:
    def test_constant_vol_matches_lognormal(self):
        env = MarketEnv(spot=100.0, rate=0.0, maturity=1.0)
        sig = 0.2

        def vol_fn(k):
            return np.full_like(np.asarray(k, dtype=float), sig)

        got, _ = bl_density_oracle(env, vol_fn, 100.0)
        expected = math.exp(-((0.0 - (-0.5 * sig * sig)) ** 2) / (2 * sig * sig)) / (
            100.0 * sig * math.sqrt(2 * math.pi)
        )
        assert got == pytest.approx(expected, rel=1e-6)

    def test_matches_closed_form_through_smile(self):
        env = MarketEnv(spot=1.0, rate=0.02, maturity=FIG1.maturity)
        vol_fn = smile_vol_of_strike(env, FIG1)
        curve = density_curve(FIG1, points=801)
        keep = curve.ps > 1e-3 * curve.ps.max()
        strikes = env.spot * np.exp(curve.xs[keep] + env.rate * env.maturity)
        oracle = bl_density_oracle(env, vol_fn, strikes)[0] * strikes
        assert np.max(np.abs(oracle / curve.ps[keep] - 1.0)) < 1e-4

    def test_oracle_sees_the_dips(self):
        # where the analytic curve has a relative minimum, so does the oracle
        env = MarketEnv(spot=1.0, rate=0.0, maturity=FIG1.maturity)
        vol_fn = smile_vol_of_strike(env, FIG1)
        report = analyze(density_curve(FIG1))
        for pt in report.minima:
            k = math.exp(pt.x)
            around = np.array([k * 0.97, k, k * 1.03])
            vals = bl_density_oracle(env, vol_fn, around)[0] * around
            assert vals[1] < vals[0] and vals[1] < vals[2]

    def test_richardson_stencil_is_fourth_order(self):
        env = MarketEnv(spot=100.0, rate=0.0, maturity=1.0)
        sig = 0.2

        def vol_fn(k):
            return np.full_like(np.asarray(k, dtype=float), sig)

        exact = math.exp(-(0.5 * sig * sig) ** 2 / (2 * sig * sig)) / (
            100.0 * sig * math.sqrt(2 * math.pi)
        )
        hs = np.array([8.0, 4.0, 2.0, 1.0])
        errs = [abs(bl_density_oracle(env, vol_fn, 100.0, step=h)[0] - exact) for h in hs]
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.2)

    def test_step_too_large_flagged(self):
        env = MarketEnv(spot=100.0, rate=0.0, maturity=0.05)
        sig = 0.1

        def vol_fn(k):
            return np.full_like(np.asarray(k, dtype=float), sig)

        # the stencil disagreement that bl-oracle flags above 1e-3 relative
        value, err = bl_density_oracle(env, vol_fn, 100.0, step=15.0)
        assert err > 1e-3 * abs(value)
        value, err = bl_density_oracle(env, vol_fn, 100.0)
        assert err < 1e-3 * abs(value)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        spot=st.floats(0.01, 1e4),
        rate=st.floats(-0.1, 0.2),
        maturity=st.floats(1e-3, 10.0),
        strike=st.floats(0.01, 1e4),
        vol=st.floats(1e-3, 3.0),
    )
    def test_put_branch_obeys_put_call_parity(self, spot, rate, maturity, strike, vol):
        # the oracle differences the put below the forward: call - put must
        # be the forward contract's value S0 - K exp(-rT)
        env = MarketEnv(spot=spot, rate=rate, maturity=maturity)
        put, call = _bs_value(env, np.full(2, strike), vol, np.array([True, False]))
        parity = spot - strike * env.discount
        assert abs(call - put - parity) <= 1e-12 * max(spot, strike)

    def test_stencil_must_stay_positive(self):
        env = MarketEnv(spot=100.0, rate=0.0, maturity=1.0)
        for step in (2.0, 0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                bl_density_oracle(env, lambda k: 0.2, 1.0, step=step)
        # a half step that leaves the strike unmoved, or a squared step that
        # underflows or overflows, ends in DomainError without a warning
        for spot, step in ((1.0, 1e-300), (1.0, 1e-150), (1e-200, None), (1e200, None)):
            env = MarketEnv(spot=spot, rate=0.0, maturity=1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="not resolvable"):
                    bl_density_oracle(env, lambda k: 0.2, spot, step=step)

    def test_centre_vol_evaluated_once(self):
        # the centre strike's vol serves the default step and both stencils
        env = MarketEnv(spot=1.0, rate=0.02, maturity=FIG1.maturity)
        vol_fn = smile_vol_of_strike(env, FIG1)
        calls = []

        def counting(k):
            calls.append(k)
            return vol_fn(k)

        strikes = np.linspace(0.8, 1.2, 9)
        _reference_bl_density_oracle(env, counting, strikes)
        assert len(calls) == 7
        calls.clear()
        bl_density_oracle(env, counting, strikes)
        assert len(calls) == 5

    @pytest.mark.parametrize("step_frac", [None, 2e-3])
    @pytest.mark.parametrize("rate", [0.0, 0.02])
    def test_identical_to_reference_stencils(self, step_frac, rate):
        env = MarketEnv(spot=1.0, rate=rate, maturity=FIG1.maturity)
        vol_fn = smile_vol_of_strike(env, FIG1)
        curve = density_curve(FIG1, points=801)
        strikes = env.spot * np.exp(curve.xs + rate * env.maturity)
        step = None if step_frac is None else strikes * step_frac
        got = bl_density_oracle(env, vol_fn, strikes, step=step)
        want = _reference_bl_density_oracle(env, vol_fn, strikes, step=step)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def _reference_bl_density_oracle(env, vol_fn, strike, step=None):
    # the stencils as first written, each evaluating the centre vol and price
    # itself; kept as the oracle for the shared-centre version
    otm = _bs_value
    k = np.asarray(strike, dtype=float)
    if step is None:
        local_width = np.asarray(vol_fn(k), dtype=float) * math.sqrt(env.maturity)
        h = k * np.minimum(1e-3, local_width / 60.0)
    else:
        h = np.broadcast_to(np.asarray(step, dtype=float), k.shape).copy()
    use_put = k < env.forward

    def second_diff(hh):
        lo = otm(env, k - hh, np.asarray(vol_fn(k - hh), float), use_put)
        mid = otm(env, k, np.asarray(vol_fn(k), float), use_put)
        hi = otm(env, k + hh, np.asarray(vol_fn(k + hh), float), use_put)
        return (lo - 2.0 * mid + hi) / (hh * hh)

    d_h = second_diff(h)
    d_h2 = second_diff(h / 2.0)
    extrapolated = (4.0 * d_h2 - d_h) / 3.0
    growth = math.exp(env.rate * env.maturity)
    value = growth * extrapolated
    err = growth * np.abs(extrapolated - d_h2)
    return value, err


class TestAnalyze:
    def test_gaussian_curve_is_clean(self):
        p = SmileParams(g=0.2, chi=1.0, n=0.01, maturity=1.0)
        report = analyze(density_curve(p))
        assert report.unimodal
        assert report.minima == ()
        assert report.negative_regions == ()
        assert report.total_mass == pytest.approx(1.0, abs=1e-9)
        assert report.martingale_gap < 1e-9
        # the flag is derived: one minimum, or one negative region, clears it
        minimum = StationaryPoint(x=0.0, kind="minimum", p=0.1)
        assert not dataclasses.replace(report, minima=(minimum,)).unimodal
        assert not dataclasses.replace(report, negative_regions=((0.0, 0.1),)).unimodal

    def test_fig1_not_unimodal(self):
        report = analyze(density_curve(FIG1))
        assert not report.unimodal
        assert len(report.minima) >= 1

    def test_negative_regions_reported(self):
        p = SmileParams(g=0.2, chi=10.0, n=1e-4, maturity=0.5)
        report = analyze(density_curve(p))
        assert len(report.negative_regions) >= 1
        assert not report.unimodal
        lo, hi = report.negative_regions[0]
        assert lo <= hi

    def test_verdict_stable_under_refinement(self):
        for p, expect in [(FIG1, False), (SmileParams(0.1, 1.8, 0.04, 0.5), True)]:
            coarse = analyze(density_curve(p, points=4001))
            fine = analyze(density_curve(p, points=8001))
            assert coarse.unimodal == fine.unimodal == expect

    def test_coarse_grid_rejected(self):
        with pytest.raises(GridError):
            analyze(density_curve(FIG1, points=101))

    def test_narrow_span_rejected(self):
        with pytest.raises(GridError):
            analyze(density_curve(FIG1, points=2001, span=3.0))

    def test_too_few_points_rejected(self):
        xs = np.linspace(-1.0, 1.0, 51)
        curve = DensityCurve(xs=xs, ps=np.exp(-(xs**2)))
        with pytest.raises(GridError):
            analyze(curve)

    @pytest.mark.parametrize("points", [-5, 0, 2])
    def test_curve_needs_three_points(self, points):
        # the grid rule's floor covers these with every other coarse grid
        message = f"a density curve of span 10.0 needs at least 201 samples, got {points}"
        with pytest.raises(GridError) as exc:
            density_curve(FIG1, points=points)
        assert str(exc.value) == message

    def test_deterministic(self):
        a = analyze(density_curve(FIG1))
        b = analyze(density_curve(FIG1))
        assert a == b


class TestDensityCurveType:
    def test_validation(self):
        with pytest.raises(DomainError):
            DensityCurve(xs=np.array([0.0, 0.0, 1.0]), ps=np.zeros(3))
        with pytest.raises(DomainError):
            DensityCurve(xs=np.array([0.0, 1.0, 2.0]), ps=np.array([0.0, math.inf, 0.0]))

    @pytest.mark.parametrize(
        "xs, message",
        [
            ([0.0, math.nan, 2.0], "xs must be strictly increasing"),
            ([math.nan, 1.0, 2.0], "xs must be strictly increasing"),
            ([0.0, 1.0, math.nan], "xs must be strictly increasing"),
            ([-math.inf, 1.0, 2.0], "xs must be finite"),
            ([0.0, 1.0, math.inf], "xs must be finite"),
        ],
        ids=["nan-inside", "nan-first", "nan-last", "inf-first", "inf-last"],
    )
    def test_non_finite_xs(self, xs, message):
        # a NaN compares false both ways, so it must fail the order check
        with pytest.raises(DomainError, match=f"^{message}$"):
            DensityCurve(xs=np.array(xs), ps=np.array([1.0, 2.0, 1.0]))

    def test_gaussian_with_a_nan_x_is_rejected(self):
        xs = np.linspace(-5.0, 5.0, 201)
        ps = np.exp(-0.5 * xs * xs) / math.sqrt(2 * math.pi)
        xs[100] = math.nan
        with pytest.raises(DomainError, match="strictly increasing"):
            analyze(DensityCurve(xs=xs, ps=ps))

    def test_mass_recorded(self):
        xs = np.linspace(-5.0, 5.0, 1001)
        ps = np.exp(-0.5 * xs * xs) / math.sqrt(2 * math.pi)
        report = analyze(DensityCurve(xs=xs, ps=ps))
        assert report.total_mass == pytest.approx(1.0, abs=1e-6)

    def test_mass_and_gap_integrated_on_first_read(self):
        curve = density_curve(FIG1)
        report = analyze(curve)
        assert "total_mass" not in vars(report)
        assert "martingale_gap" not in vars(report)
        xs, ps = curve.xs, curve.ps
        assert report.total_mass == np.trapezoid(ps, xs)
        assert report.martingale_gap == float(
            abs(np.trapezoid(np.exp(xs) * ps, xs) - 1.0)
        )
        assert vars(report)["total_mass"] == report.total_mass

    def test_gap_where_exp_overflows(self):
        # exp(x) overflows right of x = 709.78: zero samples there weigh 0,
        # and a gap whose integrand overflows is inf, without a warning
        xs = np.linspace(0.0, 800.0, 1001)
        ps = np.where(xs < 700.0, 1e-300, 0.0)
        weighted = np.where(xs < 700.0, np.exp(np.minimum(xs, 700.0)) * 1e-300, 0.0)
        gap = analyze(DensityCurve(xs=xs, ps=ps)).martingale_gap
        assert gap == abs(np.trapezoid(weighted, xs) - 1.0)
        assert analyze(DensityCurve(xs=xs, ps=np.full(1001, 1e-300))).martingale_gap == math.inf
        mixed = np.full(1001, 1e-300)
        mixed[-2:] = (-1.0, 1.0)  # +inf and -inf in one integral
        assert analyze(DensityCurve(xs=xs, ps=mixed)).martingale_gap == math.inf

    def test_mass_is_not_an_argument(self):
        xs = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(TypeError):
            DensityCurve(xs=xs, ps=np.ones(5), mass=2.0)

    def test_holds_only_its_samples(self):
        assert [f.name for f in dataclasses.fields(DensityCurve)] == ["xs", "ps"]
        curve = density_curve(FIG1)
        assert not hasattr(curve, "scale")
        assert not hasattr(curve, "spacing")
        assert not hasattr(curve, "mass")


class TestGridRule:
    """``density_curve`` decides the grid from ``(points, span)`` alone: a
    span of at least 4 (8 smile scales) and at least 101 points spaced at
    most a tenth of a scale apart, whatever the smile."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        g=st.floats(0.03, 0.5),
        chi=st.floats(1.0, 4.0),
        n=st.floats(1e-3, 0.1),
        t=st.floats(0.01, 4.0),
        span=st.one_of(st.sampled_from([4.0, 5.0, 10.0, 12.5]), st.floats(3.9, 12.0)),
        offset=st.integers(-2, 2),
    )
    def test_rejected_exactly_when_the_rule_says(self, g, chi, n, t, span, offset):
        points = max(101, math.ceil(20.0 * span) + 1) + offset
        # spacing 2 span / (points - 1) scales, in exact arithmetic
        ok = span >= 4.0 and points >= 101 and points - 1 >= 20 * Fraction(span)
        params = SmileParams(g=g, chi=chi, n=n, maturity=t)
        if ok:
            report = analyze(density_curve(params, points=points, span=span))
            assert report.curve.xs.size == points
        else:
            with pytest.raises(GridError):
                density_curve(params, points=points, span=span)

    def test_grid_is_linspace(self):
        # bit for bit, seeded, and where the ends round to one float and
        # the step is 0, which np.linspace handles its own way
        rng = np.random.default_rng(11)
        cases = [(SmileParams(g=1e20, chi=2.0, n=1.0, maturity=1e10), 4001, 10.0)]
        for _ in range(300):
            g, t = 10.0 ** rng.uniform(-3.0, 1.0), 10.0 ** rng.uniform(-4.0, 2.0)
            params = SmileParams(g=g, chi=1.0 + 10.0 ** rng.uniform(-3.0, 1.2),
                                 n=0.1 * g * g * t, maturity=t)
            cases.append((params, int(rng.integers(101, 20001)), rng.uniform(4.0, 60.0)))
        for params, points, span in cases:
            lo, hi = _grid_ends(params, span)
            assert _grid(params, points, span).tobytes() == np.linspace(lo, hi, points).tobytes()
        params, points, span = cases[0]
        lo, hi = _grid_ends(params, span)
        assert (hi - lo) / (points - 1) == 0.0

    @pytest.mark.parametrize("span", [math.nan, math.inf, -5.0, 3.0])
    def test_span_must_be_finite_and_at_least_4(self, span):
        with pytest.raises(GridError) as exc:
            density_curve(FIG1, span=span)
        assert str(exc.value) == f"span must be finite and at least 4, got {span}"

    @pytest.mark.parametrize("span", [5e4, 1e308])
    def test_span_too_wide_for_any_grid(self, span):
        # 20 * 1e308 overflows to inf
        with pytest.raises(GridError, match="needs at least 1000001 samples, got 4001$"):
            density_curve(FIG1, span=span)


class TestStationaryPoints:
    def test_gaussian_single_maximum(self):
        p = SmileParams(g=0.2, chi=1.0, n=0.01, maturity=1.0)
        points = stationary_points(density_curve(p))
        assert [pt.kind for pt in points] == ["maximum"]

    def test_fig1_alternation(self):
        points = stationary_points(density_curve(FIG1))
        kinds = [pt.kind for pt in points]
        assert kinds.count("minimum") >= 1
        assert kinds.count("maximum") >= 2

    def test_plateau_classification(self):
        xs = np.linspace(0.0, 1.0, 9)
        dip = DensityCurve(xs=xs, ps=np.array([3.0, 2.0, 1.0, 1.0, 1.0, 1.0, 2.0, 3.0, 4.0]))
        kinds = [pt.kind for pt in stationary_points(dip)]
        assert kinds == ["minimum"]
        shelf = DensityCurve(xs=xs, ps=np.array([5.0, 4.0, 3.0, 3.0, 3.0, 3.0, 2.0, 1.0, 0.5]))
        kinds = [pt.kind for pt in stationary_points(shelf)]
        assert kinds == ["inflection-plateau"]


def _reference_stationary_points(curve):
    # the original scalar loop, kept as the oracle for the numpy kernel
    diffs = np.sign(np.diff(curve.ps))
    nonzero = np.nonzero(diffs)[0]
    found = []
    for left, right in zip(nonzero[:-1], nonzero[1:]):
        s_left, s_right = diffs[left], diffs[right]
        idx = (left + 1 + right) // 2
        if s_left < 0.0 < s_right:
            kind = "minimum"
        elif s_left > 0.0 > s_right:
            kind = "maximum"
        elif right > left + 1:
            kind = "inflection-plateau"
        else:
            continue
        found.append(StationaryPoint(x=float(curve.xs[idx]), kind=kind, p=float(curve.ps[idx])))
    return tuple(found)


def _matches_reference_loop(values):
    ps = np.array(values, dtype=float)
    curve = DensityCurve(xs=np.linspace(-1.0, 2.0, ps.size), ps=ps)
    assert stationary_points(curve) == _reference_stationary_points(curve)


class TestStationaryPointsKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=3, max_size=60))
    # every slope nonzero
    @example([0, 1, 0])
    @example([3, 1, 2, -1, 0, 2, 3])
    # zero runs at either end
    @example([1, 1, 0, 2, 2])
    @example([2, 2, 2, 1, 3, 3, 3])
    @example([0, 0, 1, 0, 0])
    # fewer than two nonzero slopes
    @example([1, 1, 1])
    @example([1, 1, 2])
    @example([0, 2, 2, 2])
    def test_matches_reference_loop(self, values):
        # small integers force exact ties, so plateaus of every length occur
        _matches_reference_loop(values)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=2, max_size=60),
        st.sampled_from([1.0, 1e-300]),
    )
    def test_matches_reference_loop_without_ties(self, steps, scale):
        # an integer walk with no zero step, scaled: no two neighbouring
        # samples are equal, so no slope is zero; at 1e-300 the product of
        # two slopes underflows to 0, so signs must be compared, not multiplied
        _matches_reference_loop(np.cumsum([0, *steps]) * scale)

    def test_chi_c_identical_with_reference_loop(self, monkeypatch):
        corners = [
            (g, rho, t)
            for g in TABLE_RANGES["g"]
            for rho in TABLE_RANGES["rho"]
            for t in TABLE_RANGES["t"]
        ]

        def chi_cs():
            return [chi_critical_numeric(g, rho * g * g * t, t) for g, rho, t in corners]

        fast = chi_cs()
        monkeypatch.setattr(
            smilecal.density, "stationary_points", _reference_stationary_points
        )
        assert chi_cs() == fast
