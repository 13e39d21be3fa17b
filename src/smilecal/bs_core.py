"""Black-Scholes pricing primitives and coordinate transforms.

Conventions used throughout the package:

* prices are undiscounted call values in currency units,
* ``x`` denotes the drift-adjusted log-return coordinate
  ``x = ln(K / S0) - r * T`` (dimensionless),
* volatilities are annualized (1/sqrt(year)), maturities in years.

All functions are pure; array arguments broadcast and scalar arguments
return plain floats. Numpy arithmetic runs under ``np.errstate(all="ignore")``:
a value that leaves the float range is rejected by a named check, not warned of.

The normal CDF and its inverse are ports of Cephes ``ndtr`` and ``ndtri``,
equal to ``scipy.special.ndtr`` and ``ndtri`` bit for bit; the package
imports no scipy. ``ndtr`` has one path, on arrays, which a scalar takes
too; ``ndtri`` runs per float.
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


# The normal CDF and its inverse are Cephes ``ndtr`` and ``ndtri`` (S. L.
# Moshier, Methods and Programs for Mathematical Functions, 1989), the
# routines scipy runs, ported term for term: the same coefficients, Horner
# order, expression order and branch edges, so each equals scipy's bit for
# bit. ``ndtri`` runs per float, with libm's ``log`` and ``sqrt`` through
# ``math`` as in the C. ``ndtr`` runs on arrays, one boolean-selected branch
# at a time, a 0-d input too (a 0-d mask selects a 1-element array): numpy's
# elementwise add, multiply and divide round as C's do.
_SQRT1_2 = 7.07106781186547524401e-1  # 1/sqrt(2)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX); erfc is 0 past exp(-MAXLOG)
# erf on |x| < 1, x * T(x^2) / U(x^2); each U, Q and S has an implicit leading 1
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
# erfc on 1 <= x < 8, exp(-x^2) P(x) / Q(x)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
# and on x >= 8, exp(-x^2) R(x) / S(x)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)

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


# Horner steps ans = ans * x + c, in place: an array step makes no temporary
def _polevl(x, coef: tuple):
    ans = coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef: tuple):
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _erfc(x: np.ndarray) -> np.ndarray:
    """Cephes ``erfc`` on an array of x >= 1 (NaN passes through)."""
    z = -x * x
    # libm's exp, as in the C: numpy's real exp differs from it in the last
    # bit on some arguments, but numpy's complex exp calls libm's cexp, which
    # for a zero imaginary part and a real part of at most 709 (here z <= -1)
    # returns exp(re) * 1.0
    e = np.exp(z.astype(complex)).real
    y = np.empty_like(x)
    near = x < 8.0
    for sel, p, q in ((near, _ERFC_P, _ERFC_Q), (~near, _ERFC_R, _ERFC_S)):
        s = x[sel]
        y[sel] = e[sel] * _polevl(s, p) / _p1evl(s, q)
    y[z < -_MAXLOG] = 0.0
    return y


def _ndtr(a):
    """Normal CDF: ``np.float64`` for a 0-d input, else an array of its shape."""
    a = np.asarray(a, dtype=float)
    with np.errstate(all="ignore"):
        x = a * _SQRT1_2
        z = np.abs(x)
        y = np.empty_like(x)
        # 0.5 + 0.5 erf(x) where |x| < 1 (erf is odd, so the C's -erf(-x) for
        # x < 0 has the same bits), else 0.5 erfc(|x|), taken from 1 if x > 0
        mid = z < 1.0
        xm = x[mid]
        zz = xm * xm
        y[mid] = 0.5 + 0.5 * (xm * _polevl(zz, _ERF_T) / _p1evl(zz, _ERF_U))
        tail = ~mid
        half = 0.5 * _erfc(z[tail])
        y[tail] = np.where(x[tail] > 0.0, 1.0 - half, half)
    return y[()]


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


def std_normal_cdf(z: float | np.ndarray) -> float | np.ndarray:
    """Standard normal CDF N(z), accurate to better than 1e-15 absolute."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise DomainError("std_normal_cdf requires finite arguments")
    return _as_float_or_array(_ndtr(z), z)


def _d1_d2(env: MarketEnv, strike: np.ndarray, vol: np.ndarray):
    srt = vol * math.sqrt(env.maturity)
    with np.errstate(all="ignore"):
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


def _delta_to_x_float(delta: float, vol: float, maturity: float) -> float:
    """:func:`delta_to_x` of one float ``delta`` and ``vol``."""
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie strictly inside (0, 1)")
    if not vol > 0.0:
        raise DomainError("vol must be positive")
    if not maturity > 0.0:
        raise DomainError("maturity must be positive")
    maturity = float(maturity)
    return 0.5 * vol * vol * maturity - vol * math.sqrt(maturity) * _ndtri_float(delta)


def delta_to_x(
    delta: float | np.ndarray, vol: float | np.ndarray, maturity: float
) -> float | np.ndarray:
    """Convert a call delta to the log-return coordinate.

    ``x = vol**2 * T / 2 - vol * sqrt(T) * N^{-1}(delta)``; the quoting
    convention evaluates it with the quote's own volatility. ``N^{-1}`` is
    the package's own port of Cephes ``ndtri``, bit-identical to
    ``scipy.special.ndtri``. Arrays broadcast, and each element runs the
    float formula in C order, so the first bad element decides the
    :class:`DomainError`, and an empty array returns an empty array
    whatever the maturity.
    """
    if isinstance(delta, float) and isinstance(vol, float):
        return _delta_to_x_float(float(delta), float(vol), maturity)
    delta_a, vol_a = np.broadcast_arrays(np.asarray(delta, dtype=float),
                                         np.asarray(vol, dtype=float))
    out = np.array([_delta_to_x_float(d, v, maturity)
                    for d, v in zip(delta_a.ravel().tolist(), vol_a.ravel().tolist())],
                   dtype=float).reshape(delta_a.shape)
    return _as_float_or_array(out, delta_a, vol_a)


def strike_to_x(env: MarketEnv, strike: float | np.ndarray) -> float | np.ndarray:
    """Map strike to x = ln(K/S0) - r*T; a ratio K/S0 that underflows to 0
    or overflows gives an infinite x, for the caller to reject."""
    strike_a = np.asarray(strike, dtype=float)
    if not np.all(strike_a > 0.0):
        raise DomainError("strike must be positive")
    with np.errstate(all="ignore"):
        out = np.log(strike_a / env.spot) - env.rate * env.maturity
    return _as_float_or_array(out, strike_a)


def x_to_strike(env: MarketEnv, x: float | np.ndarray) -> float | np.ndarray:
    """Inverse of :func:`strike_to_x`."""
    x_a = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        out = env.spot * np.exp(x_a + env.rate * env.maturity)
    return _as_float_or_array(out, x_a)
