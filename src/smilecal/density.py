"""Risk-neutral densities implied by a volatility smile.

Two independent routes to the same density:

* closed form: the log-normal kernel evaluated with the local smile vol,
  multiplied by a curvature factor built from the smile's first two
  x-derivatives (:func:`return_density`, :func:`price_density`);
* finite differences: the discounted second strike-derivative of the call
  price (:func:`bl_density_oracle`), which never sees the closed form and
  serves as its oracle.

The closed-form density is exact (not a truncated expansion): it is what
the second strike-derivative of the smile-priced call evaluates to, so its
total mass is exactly 1 and the forward is exactly recovered, even when
the curve dips negative.

:func:`analyze` inspects a sampled curve for the two arbitrage signatures
this package exists to detect: interior relative minima and negative
values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .bs_core import MarketEnv, _d1_d2, _ndtr
from .errors import DomainError, GridError, OracleStepError
from .smile import SmileParams, sigma_derivatives

__all__ = [
    "DensityCurve",
    "StationaryPoint",
    "DensityReport",
    "gaussian_return_density",
    "perturbation_factor",
    "return_density",
    "price_density",
    "bl_density_oracle",
    "smile_vol_of_strike",
    "density_curve",
    "stationary_points",
    "analyze",
    "STANDARD_GRID_POINTS",
    "STANDARD_SPAN",
]

STANDARD_GRID_POINTS = 4001
STANDARD_SPAN = 10.0  # half-width of the x-grid in units of g*chi*sqrt(T)

NEGATIVE_EPS_REL = 1e-12  # negativity threshold relative to the curve peak

_KINDS = ("minimum", "maximum", "inflection-plateau")


@dataclass(frozen=True)
class DensityCurve:
    """A return density sampled on a strictly increasing x-grid.

    ``scale`` carries the smile's natural width g*chi*sqrt(T) when the
    curve was built from smile parameters; :func:`analyze` uses it to
    validate grid adequacy. ``mass`` is the trapezoidal integral over the
    grid, computed on first read.
    """

    xs: np.ndarray
    ps: np.ndarray
    scale: float | None = None

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        ps = np.asarray(self.ps, dtype=float)
        if xs.ndim != 1 or xs.shape != ps.shape:
            raise DomainError("xs and ps must be 1-d arrays of equal length")
        if xs.size < 3:
            raise DomainError("a density curve needs at least 3 samples")
        if np.any(np.diff(xs) <= 0.0):
            raise DomainError("xs must be strictly increasing")
        if not np.all(np.isfinite(ps)):
            raise DomainError("ps must be finite")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ps", ps)

    @cached_property
    def mass(self) -> float:
        return float(np.trapezoid(self.ps, self.xs))

    @property
    def spacing(self) -> float:
        return float(self.xs[1] - self.xs[0])

    @property
    def bounds(self) -> tuple[float, float]:
        return float(self.xs[0]), float(self.xs[-1])


@dataclass(frozen=True)
class StationaryPoint:
    """Zero of the discrete derivative, classified by the sign change."""

    x: float
    kind: str  # "maximum" | "minimum" | "inflection-plateau"
    p: float


@dataclass(frozen=True)
class DensityReport:
    """Outcome of :func:`analyze` on one density curve.

    ``total_mass`` and ``martingale_gap`` are integrated over the curve on
    first read; the shape verdict needs neither.
    """

    curve: DensityCurve = field(repr=False, compare=False)  # ndarray == is elementwise
    minima: tuple[StationaryPoint, ...]
    negative_regions: tuple[tuple[float, float], ...]
    unimodal: bool

    @property
    def total_mass(self) -> float:
        return self.curve.mass

    @cached_property
    def martingale_gap(self) -> float:
        # forward recovery: with S = S0 exp(x + rT), the forward gap reduces
        # to |integral of exp(x) p(x) dx - 1| independent of spot and rate
        xs, ps = self.curve.xs, self.curve.ps
        return float(abs(np.trapezoid(np.exp(xs) * ps, xs) - 1.0))


def _gaussian_kernel(
    vol: float | np.ndarray, maturity: float, x: np.ndarray
) -> np.ndarray:
    # shared by the flat-vol and smile densities so the chi = 1 reduction
    # is bitwise exact
    var = vol * vol * maturity
    shift = 0.5 * var
    return np.exp(-((x + shift) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def gaussian_return_density(
    vol: float, maturity: float, x: float | np.ndarray
) -> float | np.ndarray:
    """Flat-volatility return density: normal with mean -vol^2 T/2.

    This is the zeroth-order density of the constant-vol model; the mean
    sits below zero by half the variance so that the forward is priced
    correctly.
    """
    if vol <= 0.0 or maturity <= 0.0:
        raise DomainError("vol and maturity must be positive")
    x_arr = np.asarray(x, dtype=float)
    out = _gaussian_kernel(float(vol), maturity, x_arr)
    return float(out) if np.ndim(x) == 0 else out


def perturbation_factor(
    sigma: float | np.ndarray,
    sigma_x: float | np.ndarray,
    sigma_xx: float | np.ndarray,
    x: float | np.ndarray,
    maturity: float,
) -> float | np.ndarray:
    """Curvature multiplier on the Gaussian kernel from a non-flat smile.

    ``F = (1 - (sigma'/sigma) x)^2 - (sigma' sigma T)^2 / 4 + sigma sigma'' T``

    equals 1 identically for a flat smile and may go negative when the
    smile bends too fast, which is exactly the arbitrage signature the
    density checks look for.
    """
    sigma_a = np.asarray(sigma, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    out = (
        (1.0 - sigma_x / sigma_a * x_arr) ** 2
        - (sigma_x * sigma_a * maturity) ** 2 / 4.0
        + sigma_a * sigma_xx * maturity
    )
    if np.ndim(x) == 0 and np.ndim(sigma) == 0:
        return float(out)
    return out


def return_density(
    params: SmileParams, x: float | np.ndarray
) -> float | np.ndarray:
    """Smile-implied return density at log-return x.

    The Gaussian kernel is evaluated with the local smile volatility
    (including its variance shift) and multiplied by the curvature factor.
    Negative values are reported as-is, never clamped.
    """
    x_arr = np.asarray(x, dtype=float)
    sig, d1, d2 = sigma_derivatives(params, x_arr)
    kernel = _gaussian_kernel(sig, params.maturity, x_arr)
    factor = perturbation_factor(sig, d1, d2, x_arr, params.maturity)
    out = kernel * factor
    return float(out) if np.ndim(x) == 0 else out


def price_density(
    env: MarketEnv, params: SmileParams, s_t: float | np.ndarray
) -> float | np.ndarray:
    """Smile-implied density of the terminal price, in 1/price units.

    Written directly in strike space: the smile's strike-derivatives enter
    through the chain rule ``dsig/dK = sig'/K`` and
    ``d2sig/dK2 = (sig'' - sig')/K^2``. Consistent with
    :func:`return_density` through the Jacobian ``P(S) = p(x(S)) / S``.
    """
    s_arr = np.asarray(s_t, dtype=float)
    if np.any(s_arr <= 0.0):
        raise DomainError("terminal price must be positive")
    t = params.maturity
    rt = env.rate * t
    log_m = np.log(s_arr / env.spot)
    x = log_m - rt
    sig, d1, d2 = sigma_derivatives(params, x)

    sig_k = d1 / s_arr
    sig_kk = (d2 - d1) / (s_arr * s_arr)
    factor = (
        (1.0 + s_arr * (sig_k / sig) * (rt - log_m)) ** 2
        - (sig_k * sig * t * s_arr) ** 2 / 4.0
        + sig_k * sig * t * s_arr
        + s_arr * s_arr * sig * sig_kk * t
    )
    var = sig * sig * t
    shift = 0.5 * var
    kernel = np.exp(-((log_m - (rt - shift)) ** 2) / (2.0 * var)) / (
        np.sqrt(2.0 * np.pi * var) * s_arr
    )
    out = kernel * factor
    return float(out) if np.ndim(s_t) == 0 else out


def smile_vol_of_strike(env: MarketEnv, params: SmileParams) -> Callable:
    """Smile as a function of strike, for feeding the strike-space oracle."""

    def vol_fn(strike):
        k = np.asarray(strike, dtype=float)
        x = np.log(k / env.spot) - env.rate * env.maturity
        sig, _, _ = sigma_derivatives(params, x)
        return sig

    return vol_fn


def _otm_value(env: MarketEnv, strike: np.ndarray, vol: np.ndarray, use_put: np.ndarray):
    # Difference the out-of-the-money side: the in-the-money call is
    # forward value plus a tiny remainder, and differencing it loses the
    # remainder to cancellation. Calls and puts share the same second
    # strike-derivative, so the switch is exact.
    d1, d2, _ = _d1_d2(env, strike, vol)
    call = env.spot * _ndtr(d1) - strike * env.discount * _ndtr(d2)
    put = strike * env.discount * _ndtr(-d2) - env.spot * _ndtr(-d1)
    return np.where(use_put, put, call)


def bl_density_oracle(
    env: MarketEnv,
    vol_fn: Callable,
    strike: float | np.ndarray,
    step: float | np.ndarray | None = None,
    richardson: bool = True,
    with_error: bool = False,
    max_disagreement: float | None = None,
) -> float | np.ndarray | tuple:
    """Finite-difference density: exp(rT) times the second strike-derivative
    of the smile-priced option.

    Parameters
    ----------
    env : MarketEnv
    vol_fn : callable
        Implied vol as a function of strike; must accept arrays.
    strike : float or ndarray
        Evaluation strike(s); interpreted as the terminal price.
    step : float or ndarray, optional
        Stencil half-width h. Defaults to
        ``K * min(1e-3, vol_fn(K) * sqrt(T) / 60)``, which keeps the
        truncation error far below the comparison tolerances over the
        whole parameter range this package sweeps.
    richardson : bool
        Combine the h and h/2 stencils into an O(h^4) estimate
        (default); otherwise return the plain O(h^2) stencil at h.
    with_error : bool
        Also return the disagreement between the extrapolated and the
        finest plain stencil, an error proxy.
    max_disagreement : float, optional
        If given, raise :class:`OracleStepError` when the disagreement
        exceeds ``max_disagreement`` relative to the result.
    """
    k = np.asarray(strike, dtype=float)
    scalar = np.ndim(strike) == 0
    if np.any(k <= 0.0):
        raise DomainError("strike must be positive")
    vol_k = np.asarray(vol_fn(k), dtype=float)
    if step is None:
        h = k * np.minimum(1e-3, vol_k * math.sqrt(env.maturity) / 60.0)
    else:
        h = np.broadcast_to(np.asarray(step, dtype=float), k.shape).copy()
    if np.any(k - h <= 0.0):
        raise DomainError("stencil leaves the positive strike axis; reduce step")

    use_put = k < env.forward
    # the centre of both stencils: one vol and one price serve them both
    mid = _otm_value(env, k, vol_k, use_put)

    def second_diff(hh):
        lo = _otm_value(env, k - hh, np.asarray(vol_fn(k - hh), float), use_put)
        hi = _otm_value(env, k + hh, np.asarray(vol_fn(k + hh), float), use_put)
        return (lo - 2.0 * mid + hi) / (hh * hh)

    d_h = second_diff(h)
    d_h2 = second_diff(h / 2.0)
    extrapolated = (4.0 * d_h2 - d_h) / 3.0
    growth = math.exp(env.rate * env.maturity)
    value = growth * (extrapolated if richardson else d_h)
    err = growth * np.abs(extrapolated - d_h2)

    if max_disagreement is not None:
        bad = err > max_disagreement * np.maximum(np.abs(value), 1e-300)
        if np.any(bad):
            worst = float(np.max(err / np.maximum(np.abs(value), 1e-300)))
            raise OracleStepError(
                f"stencil levels disagree by {worst:.2e} relative; step too large"
            )

    if scalar:
        value = float(value)
        err = float(err)
    return (value, err) if with_error else value


def density_curve(
    params: SmileParams,
    points: int = STANDARD_GRID_POINTS,
    span: float = STANDARD_SPAN,
) -> DensityCurve:
    """Sample the return density on the standard grid.

    The grid is uniform over ``x_min +- span * g * chi * sqrt(T)``, wide
    enough to resolve both the floor-vol core and the plateau-vol wings.
    Fewer than 3 points raise :class:`DomainError` before any grid is built.
    """
    if points < 3:
        raise DomainError("a density curve needs at least 3 samples")
    scale = params.sigma_plateau * math.sqrt(params.maturity)
    xs = np.linspace(params.x_min - span * scale, params.x_min + span * scale, points)
    ps = return_density(params, xs)
    return DensityCurve(xs=xs, ps=ps, scale=scale)


def stationary_points(curve: DensityCurve) -> tuple[StationaryPoint, ...]:
    """Classify every interior zero of the discrete derivative.

    Sign changes of successive differences mark maxima (+ to -) and minima
    (- to +); a run of exactly equal samples flanked by same-sign slopes is
    reported as an inflection plateau.
    """
    signs = np.sign(np.diff(curve.ps))
    nonzero = np.flatnonzero(signs)
    # each pair of neighbouring nonzero slopes brackets at most one point
    left, right = nonzero[:-1], nonzero[1:]
    s_left, s_right = signs[left], signs[right]
    minimum = (s_left < 0.0) & (s_right > 0.0)
    maximum = (s_left > 0.0) & (s_right < 0.0)
    plateau = ~(minimum | maximum) & (right > left + 1)
    kind = np.select([minimum, maximum, plateau], [0, 1, 2], default=-1)
    hits = np.flatnonzero(kind >= 0)
    idx = (left[hits] + 1 + right[hits]) // 2
    return tuple(
        StationaryPoint(x=x, kind=_KINDS[k], p=p)
        for x, k, p in zip(
            curve.xs[idx].tolist(), kind[hits].tolist(), curve.ps[idx].tolist()
        )
    )


def _negative_regions(curve: DensityCurve) -> tuple[tuple[float, float], ...]:
    peak = float(np.max(np.abs(curve.ps)))
    threshold = -NEGATIVE_EPS_REL * peak
    below = curve.ps < threshold
    if not below.any():
        return ()
    padded = np.concatenate(([False], below, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    starts, ends = edges[0::2], edges[1::2] - 1
    return tuple(
        (float(curve.xs[a]), float(curve.xs[b])) for a, b in zip(starts, ends)
    )


def analyze(curve: DensityCurve) -> DensityReport:
    """Validate a sampled density: mass, forward consistency, shape.

    Flags two kinds of pathology: interior relative minima (discrete
    derivative changing - to +) and regions where the density is negative
    beyond round-off (threshold 1e-12 of the peak). ``unimodal`` is true
    iff neither is present. The report integrates the mass and the
    forward gap only when they are first read.

    Raises
    ------
    GridError
        If the curve has fewer than 101 points or, when the smile scale is
        known, spans less than 8 scale units or is sampled coarser than a
        tenth of the scale.
    """
    if curve.xs.size < 101:
        raise GridError(f"need at least 101 samples, got {curve.xs.size}")
    if curve.scale is not None:
        if curve.spacing > curve.scale / 10.0:
            raise GridError(
                f"grid spacing {curve.spacing:.3g} too coarse for smile scale "
                f"{curve.scale:.3g}"
            )
        if curve.xs[-1] - curve.xs[0] < 8.0 * curve.scale:
            raise GridError("grid must span at least 8 smile scales around the mode")

    points = stationary_points(curve)
    minima = tuple(p for p in points if p.kind == "minimum")

    negative = _negative_regions(curve)
    return DensityReport(
        curve=curve,
        minima=minima,
        negative_regions=negative,
        unimodal=(not minima) and (not negative),
    )
