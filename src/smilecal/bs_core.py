"""Black-Scholes pricing primitives and coordinate transforms.

Conventions used throughout the package:

* prices are undiscounted call values in currency units,
* ``x`` denotes the drift-adjusted log-return coordinate
  ``x = ln(K / S0) - r * T`` (dimensionless),
* volatilities are annualized (1/sqrt(year)), maturities in years.

All functions are pure; array arguments broadcast and scalar arguments
return plain floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, NoArbitrageError

__all__ = [
    "MarketEnv",
    "std_normal_cdf",
    "std_normal_inv_cdf",
    "bs_call_price",
    "bs_delta",
    "bs_vega",
    "implied_vol",
    "delta_to_x",
    "strike_to_x",
    "x_to_strike",
]

IMPLIED_VOL_BRACKET = (0.0, 5.0)
IMPLIED_VOL_MAX = 5120.0


@dataclass(frozen=True)
class MarketEnv:
    """Pricing context: spot, flat risk-free rate and time to maturity.

    Parameters
    ----------
    spot : float
        Current underlying price, > 0.
    rate : float
        Annualized risk-free rate; zero and negative values are allowed.
    maturity : float
        Time to maturity in years, > 0.
    """

    spot: float
    rate: float
    maturity: float

    def __post_init__(self) -> None:
        if not (self.spot > 0.0 and math.isfinite(self.spot)):
            raise DomainError(f"spot must be positive and finite, got {self.spot}")
        if not math.isfinite(self.rate):
            raise DomainError(f"rate must be finite, got {self.rate}")
        if not (self.maturity > 0.0 and math.isfinite(self.maturity)):
            raise DomainError(f"maturity must be positive and finite, got {self.maturity}")

    @property
    def discount(self) -> float:
        return math.exp(-self.rate * self.maturity)

    @property
    def forward(self) -> float:
        return self.spot * math.exp(self.rate * self.maturity)


def _as_float_or_array(out: np.ndarray, *inputs) -> float | np.ndarray:
    if all(np.ndim(v) == 0 for v in inputs):
        return float(out)
    return out


# scipy.special costs more to import than the rest of the package; it is
# loaded on the first normal-CDF evaluation, so commands that never price
# an option or convert a delta do not pay for it.
def _ndtr(z):
    from scipy.special import ndtr

    return ndtr(z)


def _ndtri(p):
    from scipy.special import ndtri

    return ndtri(p)


def std_normal_cdf(z: float | np.ndarray) -> float | np.ndarray:
    """Standard normal CDF N(z), accurate to better than 1e-15 absolute."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise DomainError("std_normal_cdf requires finite arguments")
    return _as_float_or_array(_ndtr(z), z)


def std_normal_inv_cdf(p: float | np.ndarray) -> float | np.ndarray:
    """Inverse standard normal CDF on the open interval (0, 1).

    Raises
    ------
    DomainError
        If any probability lies outside (0, 1).
    """
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise DomainError("std_normal_inv_cdf requires 0 < p < 1")
    return _as_float_or_array(_ndtri(p), p)


def _d1_d2(env: MarketEnv, strike: np.ndarray, vol: np.ndarray):
    srt = vol * math.sqrt(env.maturity)
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = (np.log(env.spot / strike) + (env.rate + 0.5 * vol * vol) * env.maturity) / srt
        d2 = d1 - srt
    return d1, d2, srt


def bs_call_price(
    env: MarketEnv, strike: float | np.ndarray, vol: float | np.ndarray
) -> float | np.ndarray:
    """European call value S0*N(d1) - K*exp(-rT)*N(d2).

    ``vol = 0`` is priced as the deterministic limit
    ``max(S0 - K*exp(-rT), 0)``.

    Parameters
    ----------
    env : MarketEnv
        Spot, rate and maturity.
    strike : float or ndarray
        Strike(s), > 0.
    vol : float or ndarray
        Volatility(ies), >= 0.
    """
    strike_a = np.asarray(strike, dtype=float)
    vol_a = np.asarray(vol, dtype=float)
    if np.any(strike_a <= 0.0):
        raise DomainError("strike must be positive")
    if np.any(vol_a < 0.0):
        raise DomainError("vol must be nonnegative")
    d1, d2, srt = _d1_d2(env, strike_a, vol_a)
    value = env.spot * _ndtr(d1) - strike_a * env.discount * _ndtr(d2)
    intrinsic = np.maximum(env.spot - strike_a * env.discount, 0.0)
    out = np.where(srt > 0.0, value, intrinsic)
    return _as_float_or_array(out, strike_a, vol_a)


def bs_delta(
    env: MarketEnv, strike: float | np.ndarray, vol: float | np.ndarray
) -> float | np.ndarray:
    """Spot sensitivity of the call, N(d1); equals dC/dS0."""
    strike_a = np.asarray(strike, dtype=float)
    vol_a = np.asarray(vol, dtype=float)
    if np.any(strike_a <= 0.0):
        raise DomainError("strike must be positive")
    if np.any(vol_a <= 0.0):
        raise DomainError("vol must be positive")
    d1, _, _ = _d1_d2(env, strike_a, vol_a)
    return _as_float_or_array(_ndtr(d1), strike_a, vol_a)


def bs_vega(env: MarketEnv, strike: float, vol: float) -> float:
    """dC/dvol; used internally by the implied-vol solver."""
    d1, _, _ = _d1_d2(env, np.asarray(strike, float), np.asarray(vol, float))
    return float(
        env.spot
        * math.sqrt(env.maturity)
        * math.exp(-0.5 * float(d1) ** 2)
        / math.sqrt(2.0 * math.pi)
    )


def implied_vol(env: MarketEnv, strike: float, price: float) -> float:
    """Invert the call formula for the volatility.

    Uses a bisection-safeguarded Newton iteration on a bracket that always
    contains the root, so convergence does not depend on the initial guess.
    The default bracket is vol in [0, 5]; its upper end is expanded
    geometrically when the target price requires it, so the solver covers
    the whole open no-arbitrage range.

    Raises
    ------
    NoArbitrageError
        If ``price`` is outside ``(max(S0 - K*exp(-rT), 0), S0)``.
    """
    if strike <= 0.0:
        raise DomainError("strike must be positive")
    lower = max(env.spot - strike * env.discount, 0.0)
    if not lower < price < env.spot:
        raise NoArbitrageError(
            f"price {price} outside open no-arbitrage bounds ({lower}, {env.spot})"
        )

    lo, hi = IMPLIED_VOL_BRACKET
    f_hi = bs_call_price(env, strike, hi) - price
    while f_hi < 0.0:
        hi *= 2.0
        if hi > IMPLIED_VOL_MAX:
            raise ConvergenceError("implied vol exceeds search range")
        f_hi = bs_call_price(env, strike, hi) - price

    tol = 1e-12 * env.spot
    sigma = min(max(0.2, lo), hi)
    for _ in range(200):
        f = bs_call_price(env, strike, sigma) - price
        if abs(f) <= tol:
            return sigma
        if f > 0.0:
            hi = sigma
        else:
            lo = sigma
        vega = bs_vega(env, strike, sigma)
        candidate = sigma - f / vega if vega > 1e-12 else math.nan
        sigma = candidate if lo < candidate < hi else 0.5 * (lo + hi)
        if hi - lo < 1e-14:
            return sigma
    raise ConvergenceError("implied vol iteration did not converge")


def delta_to_x(
    delta: float | np.ndarray, vol: float | np.ndarray, maturity: float
) -> float | np.ndarray:
    """Convert a call delta to the log-return coordinate.

    ``x = vol**2 * T / 2 - vol * sqrt(T) * N^{-1}(delta)``; the quoting
    convention evaluates it with the quote's own volatility.
    """
    delta_a = np.asarray(delta, dtype=float)
    vol_a = np.asarray(vol, dtype=float)
    if np.any(delta_a <= 0.0) or np.any(delta_a >= 1.0):
        raise DomainError("delta must lie strictly inside (0, 1)")
    if np.any(vol_a <= 0.0):
        raise DomainError("vol must be positive")
    if maturity <= 0.0:
        raise DomainError("maturity must be positive")
    out = 0.5 * vol_a * vol_a * maturity - vol_a * math.sqrt(maturity) * _ndtri(delta_a)
    return _as_float_or_array(out, delta_a, vol_a)


def strike_to_x(env: MarketEnv, strike: float | np.ndarray) -> float | np.ndarray:
    """Map strike to x = ln(K/S0) - r*T."""
    strike_a = np.asarray(strike, dtype=float)
    if np.any(strike_a <= 0.0):
        raise DomainError("strike must be positive")
    out = np.log(strike_a / env.spot) - env.rate * env.maturity
    return _as_float_or_array(out, strike_a)


def x_to_strike(env: MarketEnv, x: float | np.ndarray) -> float | np.ndarray:
    """Inverse of :func:`strike_to_x`."""
    x_a = np.asarray(x, dtype=float)
    out = env.spot * np.exp(x_a + env.rate * env.maturity)
    return _as_float_or_array(out, x_a)
