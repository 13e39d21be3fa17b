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
    "bs_call_price",
    "bs_delta",
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


# The normal CDF is scipy's ``ndtr``. scipy.special costs more to import
# than the rest of the package, so it is loaded on the first CDF
# evaluation, and commands that never price an option do not pay for it.
# The inverse is Cephes ``ndtri`` (S. L. Moshier, Methods and Programs for
# Mathematical Functions, 1989), the routine scipy runs, ported term for
# term: the same coefficients, Horner order and expression order, with
# libm's ``log`` and ``sqrt`` through ``math`` as in the C, so it equals
# ``scipy.special.ndtri`` bit for bit and delta conversion needs no scipy.
# ``ndtr`` is not ported: its ``exp`` would have to be libm's too, and
# ``np.exp`` differs from it in the last bit on about 4.5% of arguments, so
# only an element-by-element loop could match scipy, too slow for the
# pricing grids.
def _ndtr(z):
    from scipy.special import ndtr

    return ndtr(z)


_EXP_M2 = 0.13533528323661269189  # exp(-2), the central range's edge
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
# central range, |y - 1/2| < 1/2 - exp(-2); each Q has an implicit leading 1
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
# tails, in z = 1/x with x = sqrt(-2 ln y) between 2 and 8
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# and x of 8 and beyond (y below exp(-32))
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: float, coef: tuple) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri_float(y0: float) -> float:
    if not 0.0 < y0 < 1.0:
        return -math.inf if y0 == 0.0 else math.inf if y0 == 1.0 else math.nan
    y = y0
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2)
    x = x0 - x1
    return x if upper else -x


def _ndtri(p):
    """Inverse normal CDF: a float for a 0-d input, else an array of its shape."""
    if np.ndim(p) == 0:
        return _ndtri_float(float(p))
    p = np.asarray(p, dtype=float)
    return np.array([_ndtri_float(v) for v in p.ravel().tolist()]).reshape(p.shape)


def std_normal_cdf(z: float | np.ndarray) -> float | np.ndarray:
    """Standard normal CDF N(z), accurate to better than 1e-15 absolute."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise DomainError("std_normal_cdf requires finite arguments")
    return _as_float_or_array(_ndtr(z), z)


def _d1_d2(env: MarketEnv, strike: np.ndarray, vol: np.ndarray):
    srt = vol * math.sqrt(env.maturity)
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = (np.log(env.spot / strike) + (env.rate + 0.5 * vol * vol) * env.maturity) / srt
        d2 = d1 - srt
    return d1, d2


def _bs_value(env: MarketEnv, strike: np.ndarray, vol: np.ndarray, put=False) -> np.ndarray:
    # the one Black-Scholes kernel, sign * (S0 N(sign d1) - K e^-rT N(sign d2))
    # with sign = -1 where ``put``: flipping a sign and negating a difference
    # are exact, so each branch is its textbook formula (a zero put is -0.0)
    d1, d2 = _d1_d2(env, strike, vol)
    sign = np.where(put, -1.0, 1.0)
    return sign * (env.spot * _ndtr(sign * d1) - strike * env.discount * _ndtr(sign * d2))


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
    # each guard is written so that NaN fails it
    if not np.all(strike_a > 0.0):
        raise DomainError("strike must be positive")
    if not np.all(vol_a >= 0.0):
        raise DomainError("vol must be nonnegative")
    value = _bs_value(env, strike_a, vol_a)
    intrinsic = np.maximum(env.spot - strike_a * env.discount, 0.0)
    out = np.where(vol_a * math.sqrt(env.maturity) > 0.0, value, intrinsic)
    return _as_float_or_array(out, strike_a, vol_a)


def bs_delta(
    env: MarketEnv, strike: float | np.ndarray, vol: float | np.ndarray
) -> float | np.ndarray:
    """Spot sensitivity of the call, N(d1); equals dC/dS0."""
    strike_a = np.asarray(strike, dtype=float)
    vol_a = np.asarray(vol, dtype=float)
    if not np.all(strike_a > 0.0):
        raise DomainError("strike must be positive")
    if not np.all(vol_a > 0.0):
        raise DomainError("vol must be positive")
    d1, _ = _d1_d2(env, strike_a, vol_a)
    return _as_float_or_array(_ndtr(d1), strike_a, vol_a)


def _bs_vega(env: MarketEnv, strike: float, vol: float) -> float:
    """dC/dvol, for the implied-vol solver."""
    d1, _ = _d1_d2(env, np.asarray(strike, float), np.asarray(vol, float))
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
    if not strike > 0.0:
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
        vega = _bs_vega(env, strike, sigma)
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
    convention evaluates it with the quote's own volatility. ``N^{-1}`` is
    the package's own port of Cephes ``ndtri``, bit-identical to
    ``scipy.special.ndtri``, so a delta conversion does not import scipy.
    """
    delta_a = np.asarray(delta, dtype=float)
    vol_a = np.asarray(vol, dtype=float)
    if not np.all((delta_a > 0.0) & (delta_a < 1.0)):
        raise DomainError("delta must lie strictly inside (0, 1)")
    if not np.all(vol_a > 0.0):
        raise DomainError("vol must be positive")
    if not maturity > 0.0:
        raise DomainError("maturity must be positive")
    with np.errstate(over="ignore"):  # an infinite x is the caller's to reject
        out = 0.5 * vol_a * vol_a * maturity - vol_a * math.sqrt(maturity) * _ndtri(delta_a)
    return _as_float_or_array(out, delta_a, vol_a)


def strike_to_x(env: MarketEnv, strike: float | np.ndarray) -> float | np.ndarray:
    """Map strike to x = ln(K/S0) - r*T; a ratio K/S0 that underflows to 0
    or overflows gives an infinite x, without a warning, for the caller to
    reject."""
    strike_a = np.asarray(strike, dtype=float)
    if not np.all(strike_a > 0.0):
        raise DomainError("strike must be positive")
    with np.errstate(divide="ignore", over="ignore"):
        out = np.log(strike_a / env.spot) - env.rate * env.maturity
    return _as_float_or_array(out, strike_a)


def x_to_strike(env: MarketEnv, x: float | np.ndarray) -> float | np.ndarray:
    """Inverse of :func:`strike_to_x`."""
    x_a = np.asarray(x, dtype=float)
    out = env.spot * np.exp(x_a + env.rate * env.maturity)
    return _as_float_or_array(out, x_a)
