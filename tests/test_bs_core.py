"""Pricing primitives: normal utilities, call price, delta, implied vol,
coordinate transforms. Expected values come from independent oracles
(quadrature, asymptotic series, bisection, finite differences) computed in
this file or frozen from them.
"""

import math

import numpy as np
import pytest
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
    std_normal_inv_cdf,
    strike_to_x,
    x_to_strike,
)


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
