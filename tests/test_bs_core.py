"""Pricing primitives: normal utilities, call price, delta, implied vol,
coordinate transforms. Expected values come from independent oracles
(quadrature, asymptotic series, bisection, finite differences) computed in
this file or frozen from them.
"""

import math
import sys

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from smilecal import (
    ConvergenceError,
    DomainError,
    MarketEnv,
    NoArbitrageError,
    bs_call_price,
    bs_delta,
    delta_to_x,
    implied_vol,
    std_normal_cdf,
    strike_to_x,
    x_to_strike,
)
from smilecal.bs_core import _ndtr, _ndtri_float


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _cdf_by_quadrature(z: float) -> float:
    # oracle: adaptive quadrature of the Gaussian integrand from the median
    value, err = quad(_phi, 0.0, z, epsabs=1e-14, limit=200)
    assert err < 5e-12
    return 0.5 + value


def _tail_by_asymptotic_series(z: float) -> float:
    # oracle: upper-tail erfc expansion, N(-z) = phi(z)/z * (1 - 1/z^2 + ...)
    assert z >= 6.0
    series, term = 1.0, 1.0
    for k in range(1, 6):
        term *= -(2 * k - 1) / (z * z)
        series += term
    return _phi(z) / z * series


class TestStdNormalCdf:
    def test_median(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_against_quadrature(self):
        for z in (-3.0, -1.0, 0.3, 1.96, 4.0):
            assert abs(std_normal_cdf(z) - _cdf_by_quadrature(z)) < 1e-12
        # frozen from the quadrature oracle
        assert std_normal_cdf(1.96) == pytest.approx(0.9750021048517794, abs=1e-12)

    def test_deep_tail(self):
        tail = std_normal_cdf(-8.0)
        assert tail < 1e-15
        assert tail == pytest.approx(_tail_by_asymptotic_series(8.0), rel=1e-6)

    def test_symmetry(self):
        zs = np.linspace(-10.0, 10.0, 401)
        total = std_normal_cdf(zs) + std_normal_cdf(-zs)
        assert np.max(np.abs(total - 1.0)) <= 1e-15

    def test_monotone(self):
        zs = np.linspace(-12.0, 12.0, 2001)
        assert np.all(np.diff(std_normal_cdf(zs)) >= 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            std_normal_cdf(math.nan)


def std_normal_inv_cdf(p):
    # the inverse normal CDF as delta_to_x applies it: at vol 1 and T = 1,
    # x = 1/2 - N^{-1}(delta)
    return 0.5 - delta_to_x(p, 1.0, 1.0)


class TestStdNormalInvCdf:
    def test_median(self):
        assert std_normal_inv_cdf(0.5) == 0.0

    def test_against_bisection(self):
        # oracle: bisection on std_normal_cdf
        for p in (0.01, 0.3, 0.975, 0.9750021048517794, 0.9999):
            lo, hi = -12.0, 12.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if std_normal_cdf(mid) < p:
                    lo = mid
                else:
                    hi = mid
            assert std_normal_inv_cdf(p) == pytest.approx(0.5 * (lo + hi), abs=1e-10)
        assert std_normal_inv_cdf(0.975) == pytest.approx(1.959963984540054, abs=1e-10)

    def test_round_trip(self):
        # above x ~ 5.4 the CDF is so close to 1 that one ulp of p moves x
        # by more than 1e-9, so the tight bound is only meaningful below it
        xs = np.linspace(-6.0, 5.3, 114)
        back = std_normal_inv_cdf(std_normal_cdf(xs))
        assert np.max(np.abs(back - xs)) < 1e-9
        xs_hi = np.linspace(5.3, 6.0, 15)
        back_hi = std_normal_inv_cdf(std_normal_cdf(xs_hi))
        assert np.max(np.abs(back_hi - xs_hi)) < 5e-8

    def test_forward_round_trip(self):
        ps = np.linspace(1e-6, 1.0 - 1e-6, 101)
        assert np.max(np.abs(std_normal_cdf(std_normal_inv_cdf(ps)) - ps)) < 1e-10

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            std_normal_inv_cdf(p)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def _ndtri_each(p) -> np.ndarray:
    return np.array([_ndtri_float(v) for v in np.ravel(p).tolist()])


def _ndtri_sample() -> np.ndarray:
    # about 1e5 probabilities over the port's three ranges and both wings
    rng = np.random.default_rng(20231)
    e2, e32 = math.exp(-2.0), math.exp(-32.0)
    edges = [0.5, 5e-324, np.nextafter(1.0, 0.0)]
    for edge in (e2, 1.0 - e2):
        edges += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)]
    # where sqrt(-2 ln y) crosses 8 and the tail rational changes
    edges += [e32 * (1.0 + k * 2.0**-52) for k in range(-64, 65)]
    edges += [1.0 - e32, np.nextafter(1.0 - e32, 0.0), np.nextafter(1.0 - e32, 1.0)]
    return np.concatenate([
        rng.uniform(0.0, 1.0, 40_000),
        10.0 ** rng.uniform(math.log10(5e-324), 0.0, 30_000),
        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 30_000),
        np.array(edges),
    ])


class TestNdtriPort:
    """The in-package inverse normal CDF against ``scipy.special.ndtri``, the
    Cephes routine it ports: equal bit for bit."""

    def test_bitwise_on_sample(self):
        p = _ndtri_sample()
        assert p.min() > 0.0 and p.max() < 1.0
        mismatch = np.flatnonzero(_bits(_ndtri_each(p)) != _bits(scipy.special.ndtri(p)))
        assert mismatch.size == 0, p[mismatch[:5]].tolist()

    def test_every_range_is_sampled(self):
        p = _ndtri_sample()
        tail = np.minimum(p, 1.0 - p)
        x = np.sqrt(-2.0 * np.log(tail))
        central = tail > math.exp(-2.0)
        for wing in (p < 0.5, p > 0.5):
            assert np.any(wing & central)
            assert np.any(wing & ~central & (x < 8.0))
            assert np.any(wing & (x >= 8.0))

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    def test_bitwise_property(self, p):
        assert _bits(_ndtri_float(p)) == _bits(scipy.special.ndtri(p))

    def test_bounds_and_outside(self):
        p = np.array([0.0, 1.0, -0.5, 1.5, math.nan])
        np.testing.assert_array_equal(_ndtri_each(p), scipy.special.ndtri(p))

    # delta_to_x at vol 1 and T = 1 applies it as 1/2 - N^{-1}(delta)
    def test_scalar_in_float_out(self):
        for p in (0.3, np.float64(0.3), np.asarray(0.3)):
            out = delta_to_x(p, 1.0, 1.0)
            assert type(out) is float
            assert out == 0.5 - scipy.special.ndtri(0.3)

    @pytest.mark.parametrize("shape", [(1,), (2, 3), (0,), (3, 0)])
    def test_array_keeps_shape(self, shape):
        p = np.linspace(0.05, 0.95, math.prod(shape)).reshape(shape)
        out = delta_to_x(p, 1.0, 1.0)
        assert out.shape == shape and out.dtype == np.float64
        assert np.array_equal(_bits(out), _bits(0.5 - scipy.special.ndtri(p)))


# Cephes' MAXLOG: past x^2 = MAXLOG its erfc returns 0
_LOG_DBL_MAX = math.log(sys.float_info.max)


def _ndtr_edges() -> np.ndarray:
    # the specials and the branch edges
    edges = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]
    # |a| / sqrt(2) crosses 1 (erf to erfc) and 8 (erfc's P/Q to R/S)
    for edge in (math.sqrt(2.0), 8.0 * math.sqrt(2.0)):
        for a in (edge, -edge):
            edges += [a, np.nextafter(a, 0.0), np.nextafter(a, 2.0 * a)]
    # a^2 / 2 passes MAXLOG near |a| = 37.7
    cut = math.sqrt(2.0 * _LOG_DBL_MAX)
    near_cut = cut * (1.0 + np.arange(-64, 65) * 2.0**-52)
    return np.concatenate([np.array(edges), near_cut, -near_cut])


def _ndtr_sample() -> np.ndarray:
    # about 1e5 arguments: normal, uniform over both erfc ranges and random
    # bit patterns (NaN, inf and subnormals included), and the branch edges
    rng = np.random.default_rng(20232)
    return np.concatenate([
        rng.normal(0.0, 3.0, 35_000),
        rng.uniform(-40.0, 40.0, 35_000),
        rng.integers(-(2**63), 2**63 - 1, 30_000, dtype=np.int64).view(float),
        _ndtr_edges(),
    ])


class TestNdtrPort:
    """The in-package normal CDF against ``scipy.special.ndtr``, the Cephes
    routine it ports: equal bit for bit."""

    def test_bitwise_on_sample(self):
        a = _ndtr_sample()
        mismatch = np.flatnonzero(_bits(_ndtr(a)) != _bits(scipy.special.ndtr(a)))
        assert mismatch.size == 0, a[mismatch[:5]].tolist()

    def test_every_branch_is_sampled(self):
        a = _ndtr_sample()
        a = a[np.isfinite(a)]
        x = np.abs(a) / math.sqrt(2.0)
        square = np.minimum(x, 1e150) ** 2
        for wing in (a < 0.0, a > 0.0):
            assert np.any(wing & (x < 1.0))
            assert np.any(wing & (x >= 1.0) & (x < 8.0))
            assert np.any(wing & (x >= 8.0) & (square <= _LOG_DBL_MAX))
            assert np.any(wing & (square > _LOG_DBL_MAX))

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_bitwise_property(self, a):
        assert _bits(_ndtr(a)) == _bits(scipy.special.ndtr(a))

    def test_specials(self):
        out = _ndtr(np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, 40.0, -40.0]))
        assert math.isnan(out[0])
        assert out[1:].tolist() == [1.0, 0.0, 0.5, 0.5, 1.0, 0.0]

    def test_zero_d_matches_scipy_and_the_whole_array(self):
        # 2000 seeded draws from the sample, and every edge; each one alone,
        # as a float and as a 0-d array, gives the bits of scipy and of its
        # element in the whole array
        sample = np.random.default_rng(20234).choice(_ndtr_sample(), 2000, replace=False)
        a = np.concatenate([sample, _ndtr_edges()])
        whole = _bits(_ndtr(a)).tolist()
        ref = _bits(scipy.special.ndtr(a)).tolist()
        mismatch = [v for v, w, r in zip(a.tolist(), whole, ref)
                    if not _bits(_ndtr(np.float64(v))) == _bits(_ndtr(np.asarray(v))) == w == r]
        assert mismatch == [], mismatch[:5]

    def test_scalar_in_float64_out(self):
        for a in (0.3, np.float64(0.3), np.asarray(0.3)):
            out = _ndtr(a)
            assert type(out) is np.float64
            assert _bits(out) == _bits(scipy.special.ndtr(0.3))

    @pytest.mark.parametrize("shape", [(1,), (2, 3), (0,), (3, 0)])
    def test_array_keeps_shape(self, shape):
        a = np.linspace(-12.0, 12.0, math.prod(shape)).reshape(shape)
        out = _ndtr(a)
        assert out.shape == shape and out.dtype == np.float64
        assert np.array_equal(_bits(out), _bits(scipy.special.ndtr(a)))

    def test_complex_exp_is_libm_exp(self):
        # the port takes libm's exp as the real part of numpy's complex exp;
        # a platform whose cexp differs fails here, not in a written byte
        v = np.random.default_rng(20233).uniform(-745.0, -1.0, 20_000)
        v = np.concatenate([v, [-1.0, -745.0, -_LOG_DBL_MAX]])
        assert _bits(np.exp(v.astype(complex)).real).tolist() == [
            _bits(math.exp(t)) for t in v.tolist()
        ]


class TestCallPrice:
    def test_zero_vol_is_deterministic_payoff(self):
        env = MarketEnv(spot=100.0, rate=0.0, maturity=1.0)
        assert bs_call_price(env, 80.0, 0.0) == 20.0
        assert bs_call_price(env, 120.0, 0.0) == 0.0

    def test_atm_against_quadrature(self):
        # oracle: discounted quadrature of the payoff against the log-normal
        # price density
        env = MarketEnv(spot=100.0, rate=0.0, maturity=1.0)
        sig, strike = 0.2, 100.0

        def price_dens(s):
            mean = (env.rate - 0.5 * sig * sig) * env.maturity
            var = sig * sig * env.maturity
            return math.exp(-((math.log(s / env.spot) - mean) ** 2) / (2 * var)) / (
                s * math.sqrt(2 * math.pi * var)
            )

        upper = env.spot * math.exp(10 * sig)
        integral, _ = quad(lambda s: (s - strike) * price_dens(s), strike, upper, limit=400)
        expected = math.exp(-env.rate * env.maturity) * integral
        assert bs_call_price(env, strike, sig) == pytest.approx(expected, abs=1e-8)
        # frozen from the oracle above
        assert bs_call_price(env, strike, sig) == pytest.approx(7.9655674554058, abs=1e-8)

    def test_tiny_strike_approaches_spot(self):
        env = MarketEnv(spot=100.0, rate=0.03, maturity=2.0)
        assert bs_call_price(env, 1e-10, 0.4) == pytest.approx(100.0, abs=1e-8)

    def test_bounds_monotonicity_convexity(self):
        env = MarketEnv(spot=100.0, rate=0.05, maturity=0.75)
        strikes = np.linspace(40.0, 220.0, 181)
        for sig in (0.05, 0.2, 0.6):
            prices = bs_call_price(env, strikes, sig)
            lower = np.maximum(env.spot - strikes * env.discount, 0.0)
            assert np.all(prices >= lower - 1e-12)
            assert np.all(prices <= env.spot)
            assert np.all(np.diff(prices) < 0.0)
            second = np.diff(prices, 2)
            assert np.min(second) >= -1e-12 * env.spot

    def test_increasing_in_vol(self):
        env = MarketEnv(spot=100.0, rate=0.0, maturity=1.0)
        sigs = np.linspace(0.01, 2.0, 100)
        for strike in (70.0, 100.0, 140.0):
            prices = bs_call_price(env, strike, sigs)
            assert np.all(np.diff(prices) >= 0.0)
            # strictly so once the time value is representable in float64
            strict = sigs[:-1] >= 0.1
            assert np.all(np.diff(prices)[strict] > 0.0)

    def test_domain(self):
        env = MarketEnv(spot=100.0, rate=0.0, maturity=1.0)
        with pytest.raises(DomainError):
            bs_call_price(env, -5.0, 0.2)
        with pytest.raises(DomainError):
            bs_call_price(env, 100.0, -0.1)
        with pytest.raises(DomainError):
            MarketEnv(spot=100.0, rate=0.0, maturity=0.0)

    @pytest.mark.parametrize("strike, vol", [(90.0, math.nan), (100.0, math.nan),
                                             (math.nan, 0.2), ([90.0, math.nan], 0.2)])
    def test_nan_rejected(self, strike, vol):
        # a NaN vol was priced as the zero-vol limit, 10.0 at strike 90
        env = MarketEnv(spot=100.0, rate=0.0, maturity=1.0)
        with pytest.raises(DomainError):
            bs_call_price(env, strike, vol)
        with pytest.raises(DomainError):
            bs_delta(env, strike, vol)


class TestDelta:
    def test_deep_itm(self):
        env = MarketEnv(spot=100.0, rate=0.0, maturity=1.0)
        assert bs_delta(env, 1e-4, 0.2) == pytest.approx(1.0, abs=1e-12)

    def test_half_at_d1_zero(self):
        env = MarketEnv(spot=100.0, rate=0.02, maturity=1.0)
        sig = 0.3
        strike = env.spot * math.exp((env.rate + 0.5 * sig * sig) * env.maturity)
        assert bs_delta(env, strike, sig) == pytest.approx(0.5, abs=1e-14)

    def test_matches_finite_difference_on_lattice(self):
        # oracle: central finite difference of the call price in spot
        for strike in (70.0, 85.0, 100.0, 115.0, 140.0):
            for sig in (0.1, 0.25, 0.6):
                for t in (0.1, 0.5, 2.0):
                    env = MarketEnv(spot=100.0, rate=0.01, maturity=t)
                    h = 1e-4 * env.spot
                    up = MarketEnv(spot=env.spot + h, rate=env.rate, maturity=t)
                    down = MarketEnv(spot=env.spot - h, rate=env.rate, maturity=t)
                    fd = (
                        bs_call_price(up, strike, sig) - bs_call_price(down, strike, sig)
                    ) / (2 * h)
                    assert abs(bs_delta(env, strike, sig) - fd) < 1e-6

    def test_domain(self):
        env = MarketEnv(spot=100.0, rate=0.0, maturity=1.0)
        with pytest.raises(DomainError):
            bs_delta(env, 100.0, 0.0)


class TestImpliedVol:
    def test_round_trip(self):
        env = MarketEnv(spot=100.0, rate=0.02, maturity=0.5)
        # at the money the whole vol range has representable time value
        for sig in np.linspace(0.01, 2.0, 40):
            price = bs_call_price(env, 100.0, sig)
            assert implied_vol(env, 100.0, price) == pytest.approx(sig, abs=1e-8)
        # off the money, very low vols leave no representable time value to
        # invert (vega underflows), so start where the price still moves
        for sig in np.linspace(0.15, 2.0, 20):
            for strike in (80.0, 125.0):
                price = bs_call_price(env, strike, sig)
                assert implied_vol(env, strike, price) == pytest.approx(sig, abs=1e-8)

    def test_price_near_lower_bound(self):
        env = MarketEnv(spot=100.0, rate=0.0, maturity=1.0)
        # ATM lower bound is 0; a vanishing price forces a vanishing vol
        assert implied_vol(env, 100.0, 1e-6) < 1e-6

    def test_nan_strike_rejected(self):
        env = MarketEnv(spot=100.0, rate=0.0, maturity=1.0)
        with pytest.raises(DomainError, match="strike must be positive"):
            implied_vol(env, math.nan, 10.0)

    def test_no_arbitrage_bounds(self):
        env = MarketEnv(spot=100.0, rate=0.0, maturity=1.0)
        with pytest.raises(NoArbitrageError):
            implied_vol(env, 100.0, 100.0)
        with pytest.raises(NoArbitrageError):
            implied_vol(env, 100.0, 120.0)
        with pytest.raises(NoArbitrageError):
            implied_vol(env, 80.0, 20.0)  # exactly intrinsic
        with pytest.raises(NoArbitrageError):
            implied_vol(env, 80.0, 15.0)  # below intrinsic

    def test_very_high_vol_recovered(self):
        env = MarketEnv(spot=100.0, rate=0.0, maturity=1.0)
        price = bs_call_price(env, 100.0, 7.0)  # beyond the default bracket
        assert implied_vol(env, 100.0, price) == pytest.approx(7.0, abs=1e-6)

    def test_post_condition(self):
        env = MarketEnv(spot=50.0, rate=-0.01, maturity=2.0)
        price = bs_call_price(env, 60.0, 0.33)
        sig = implied_vol(env, 60.0, price)
        assert abs(bs_call_price(env, 60.0, sig) - price) <= 1e-10 * env.spot


class TestCoordinates:
    def test_delta_half(self):
        for sig, t in [(0.1, 1.0), (0.4, 0.25)]:
            assert delta_to_x(0.5, sig, t) == 0.5 * sig * sig * t

    def test_frozen_value(self):
        # 0.005 - 0.1 * invN(0.975), invN value frozen from the bisection oracle
        assert delta_to_x(0.975, 0.1, 1.0) == pytest.approx(-0.1909963984540054, abs=1e-12)

    def test_high_delta_goes_left(self):
        xs = [delta_to_x(d, 0.2, 1.0) for d in (0.9, 0.99, 0.999999)]
        assert xs[0] > xs[1] > xs[2]
        assert xs[2] < -0.9  # heading to -inf as delta -> 1

    def test_delta_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                delta_to_x(bad, 0.2, 1.0)

    @pytest.mark.parametrize("delta, vol, maturity", [(math.nan, 0.2, 1.0), (0.5, math.nan, 1.0),
                                                      (0.5, 0.2, math.nan)])
    def test_delta_nan_rejected(self, delta, vol, maturity):
        with pytest.raises(DomainError):
            delta_to_x(delta, vol, maturity)

    def test_float_path_equals_the_array_path(self):
        # an array runs the float path per element, and both carry the bits
        # of the formula with scipy's ndtri
        rng = np.random.default_rng(23)
        deltas = np.concatenate([rng.uniform(size=400), [1e-300, 1e-20, 1e-10, 0.01, 0.5,
                                                         0.99, 1.0 - 1e-10, 1.0 - 2.0**-53]])
        deltas = np.concatenate([deltas, 1.0 - deltas[:100]])
        vols = np.exp(rng.uniform(-8.0, 6.0, deltas.size))
        vols[:4] = [5e-324, 1e-300, 1e150, 1e300]  # a product that underflows or overflows
        ts = np.exp(rng.uniform(-6.0, 3.0, deltas.size))
        ts[4] = 1e300
        for d, v, t in zip(deltas.tolist(), vols.tolist(), ts.tolist()):
            want = 0.5 * v * v * t - v * math.sqrt(t) * float(scipy.special.ndtri(d))
            assert _bits(delta_to_x(np.array([d]), np.array([v]), t)[0]) == _bits(want)
            got = delta_to_x(d, v, t)
            assert type(got) is float
            assert _bits(got) == _bits(want), (d, v, t)
            assert _bits(delta_to_x(np.float64(d), np.float64(v), np.float64(t))) == _bits(want)

    @pytest.mark.parametrize("delta, vol, maturity", [
        (0.0, 0.2, 1.0), (1.0, 0.2, 1.0), (-0.5, 0.2, 1.0), (math.nan, 0.2, 1.0),
        (0.5, 0.0, 1.0), (0.5, -0.2, 1.0), (0.5, math.nan, 1.0),
        (0.5, 0.2, 0.0), (0.5, 0.2, -1.0), (0.5, 0.2, math.nan), (0.0, 0.0, 0.0)])
    def test_float_path_raises_as_the_array_path(self, delta, vol, maturity):
        with pytest.raises(DomainError) as arrays:
            delta_to_x(np.array(delta), np.array(vol), maturity)
        with pytest.raises(DomainError) as floats:
            delta_to_x(delta, vol, maturity)
        assert str(floats.value) == str(arrays.value)

    def test_array_raises_at_its_first_bad_element(self):
        # elements run in C order after broadcasting, each with its own checks
        with pytest.raises(DomainError, match="^vol must be positive$"):
            delta_to_x(np.array([0.3, 0.0]), np.array([-0.2, 0.2]), 1.0)
        with pytest.raises(DomainError, match="^vol must be positive$"):
            delta_to_x(np.array([0.3, 1.0]), np.array([[-0.2], [0.2]]), 1.0)
        with pytest.raises(DomainError, match="^delta must lie strictly inside"):
            delta_to_x(np.array([0.3, 1.0]), np.array([[0.2], [-0.2]]), 1.0)

    @pytest.mark.parametrize("maturity", [1.0, -1.0, math.nan])
    def test_empty_array_is_empty(self, maturity):
        out = delta_to_x(np.zeros((3, 0)), 0.2, maturity)
        assert out.shape == (3, 0) and out.dtype == np.float64

    def test_forward_strike_maps_to_zero(self):
        env = MarketEnv(spot=100.0, rate=0.03, maturity=2.0)
        assert strike_to_x(env, env.forward) == pytest.approx(0.0, abs=1e-15)

    def test_round_trip(self):
        env = MarketEnv(spot=100.0, rate=0.02, maturity=0.5)
        strikes = np.geomspace(20.0, 500.0, 51)
        back = x_to_strike(env, strike_to_x(env, strikes))
        assert np.max(np.abs(back / strikes - 1.0)) < 1e-12

    def test_direct_value(self):
        env = MarketEnv(spot=100.0, rate=0.02, maturity=0.5)
        assert strike_to_x(env, 110.0) == pytest.approx(math.log(1.1) - 0.01, abs=1e-15)

    def test_strike_domain(self):
        env = MarketEnv(spot=100.0, rate=0.0, maturity=1.0)
        with pytest.raises(DomainError):
            strike_to_x(env, 0.0)
        with pytest.raises(DomainError):
            strike_to_x(env, math.nan)
