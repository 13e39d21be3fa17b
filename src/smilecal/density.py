"""Risk-neutral densities implied by a volatility smile.

Two independent routes to the same density:

* closed form: the log-normal kernel evaluated with the local smile vol,
  multiplied by a curvature factor built from the smile's first two
  x-derivatives (:func:`return_density`; the density of the terminal
  price ``S`` is ``return_density(params, x) / S``);
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

from .bs_core import MarketEnv, _as_float_or_array, _bs_value, strike_to_x
from .errors import DomainError, GridError
from .smile import SmileParams, sigma_derivatives

__all__ = [
    "DensityCurve",
    "StationaryPoint",
    "DensityReport",
    "gaussian_return_density",
    "perturbation_factor",
    "return_density",
    "bl_density_oracle",
    "smile_vol_of_strike",
    "density_curve",
    "stationary_points",
    "analyze",
]

STANDARD_GRID_POINTS = 4001
STANDARD_SPAN = 10.0  # half-width of the x-grid in units of g*chi*sqrt(T)
MAX_GRID_POINTS = 10**6  # a curve of this size holds about 200 MB of work arrays

NEGATIVE_EPS_REL = 1e-12  # negativity threshold relative to the curve peak


@dataclass(frozen=True)
class DensityCurve:
    """A return density sampled on a strictly increasing x-grid."""

    xs: np.ndarray
    ps: np.ndarray

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

    @cached_property
    def total_mass(self) -> float:
        return float(np.trapezoid(self.curve.ps, self.curve.xs))

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
    # is bitwise exact; a non-finite value is the caller's to reject
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
    if not (vol > 0.0 and maturity > 0.0):
        raise DomainError("vol and maturity must be positive")
    x_arr = np.asarray(x, dtype=float)
    return _as_float_or_array(_gaussian_kernel(float(vol), maturity, x_arr), x)


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
    return _as_float_or_array(out, x, sigma)


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
    return _as_float_or_array(kernel * factor, x)


def smile_vol_of_strike(env: MarketEnv, params: SmileParams) -> Callable:
    """Smile as a function of strike, for feeding the strike-space oracle."""

    def vol_fn(strike):
        sig, _, _ = sigma_derivatives(params, strike_to_x(env, strike))
        return sig

    return vol_fn


def bl_density_oracle(
    env: MarketEnv,
    vol_fn: Callable,
    strike: float | np.ndarray,
    step: float | np.ndarray | None = None,
    with_error: bool = False,
) -> float | np.ndarray | tuple:
    """Finite-difference density: exp(rT) times the second strike-derivative
    of the smile-priced option, Richardson-extrapolated from the h and h/2
    stencils to O(h^4).

    Parameters
    ----------
    env : MarketEnv
    vol_fn : callable
        Implied vol as a function of strike; must accept arrays.
    strike : float or ndarray
        Evaluation strike(s); interpreted as the terminal price.
    step : float or ndarray, optional
        Stencil half-width h, finite and positive. Defaults to
        ``K * min(1e-3, vol_fn(K) * sqrt(T) / 60)``, which keeps the
        truncation error far below the comparison tolerances over the
        whole parameter range this package sweeps. Raises
        :class:`DomainError` if ``K + h/2 == K``, ``(h/2)**2 == 0`` or ``h**2 == inf``.
    with_error : bool
        Also return the disagreement between the extrapolated and the
        finest plain stencil, an error proxy.
    """
    k = np.asarray(strike, dtype=float)
    if not np.all(k > 0.0):
        raise DomainError("strike must be positive")
    vol_k = np.asarray(vol_fn(k), dtype=float)
    if step is None:
        h = k * np.minimum(1e-3, vol_k * math.sqrt(env.maturity) / 60.0)
    else:
        h = np.broadcast_to(np.asarray(step, dtype=float), k.shape).copy()
        if not np.all(np.isfinite(h) & (h > 0.0)):
            raise DomainError("step must be finite and positive")
    if np.any(k - h <= 0.0):
        raise DomainError("stencil leaves the positive strike axis; reduce step")
    half = h / 2.0
    with np.errstate(over="ignore"):
        resolvable = (k + half != k) & (half * half > 0.0) & np.isfinite(h * h)
    if not np.all(resolvable):
        raise DomainError("stencil step not resolvable in floating point")

    # Difference the out-of-the-money side: the in-the-money call is
    # forward value plus a tiny remainder, and differencing it loses the
    # remainder to cancellation. Calls and puts share the same second
    # strike-derivative, so the switch is exact.
    use_put = k < env.forward
    # the centre of both stencils: one vol and one price serve them both
    mid = _bs_value(env, k, vol_k, use_put)

    def second_diff(hh):
        lo = _bs_value(env, k - hh, np.asarray(vol_fn(k - hh), float), use_put)
        hi = _bs_value(env, k + hh, np.asarray(vol_fn(k + hh), float), use_put)
        return (lo - 2.0 * mid + hi) / (hh * hh)

    d_h = second_diff(h)
    d_h2 = second_diff(half)
    extrapolated = (4.0 * d_h2 - d_h) / 3.0
    growth = math.exp(env.rate * env.maturity)
    value = growth * extrapolated
    err = growth * np.abs(extrapolated - d_h2)
    value, err = (_as_float_or_array(v, strike) for v in (value, err))
    return (value, err) if with_error else value


def _check_grid(points: int, span: float) -> None:
    """The grid rule of :func:`density_curve`, decided from the settings alone."""
    if points > MAX_GRID_POINTS:
        raise DomainError(f"a density curve takes at most {MAX_GRID_POINTS} samples")
    if not (math.isfinite(span) and span >= 4.0):
        raise GridError(f"span must be finite and at least 4, got {span}")
    # capped, as 20 * span can overflow; no grid takes more points anyway
    need = max(101, math.ceil(min(20.0 * span, MAX_GRID_POINTS)) + 1)
    if points < need:
        raise GridError(f"a density curve of span {span} needs at least {need} samples, "
                        f"got {points}")


def density_curve(
    params: SmileParams,
    points: int = STANDARD_GRID_POINTS,
    span: float = STANDARD_SPAN,
) -> DensityCurve:
    """Sample the return density on the standard grid.

    The grid is uniform over ``x_min +- span * g * chi * sqrt(T)``, wide
    enough to resolve both the floor-vol core and the plateau-vol wings.
    Its rule depends on the settings alone, whatever the smile: ``span``
    must be finite and at least 4, so the grid covers 8 smile scales, and
    ``points`` at least ``max(101, 20 * span + 1)``, so the spacing is at
    most a tenth of a scale; else :class:`GridError`. More than
    ``MAX_GRID_POINTS`` points raise :class:`DomainError`. Both are raised
    before any grid is built, and :func:`analyze` accepts every curve built
    here.
    """
    _check_grid(points, span)
    scale = params.sigma_plateau * math.sqrt(params.maturity)
    xs = np.linspace(params.x_min - span * scale, params.x_min + span * scale, points)
    return DensityCurve(xs=xs, ps=return_density(params, xs))


def stationary_points(curve: DensityCurve) -> tuple[StationaryPoint, ...]:
    """Classify every interior zero of the discrete derivative.

    Sign changes of successive differences mark maxima (+ to -) and minima
    (- to +); a run of exactly equal samples flanked by same-sign slopes is
    reported as an inflection plateau. Each pair of neighbouring nonzero
    slopes brackets at most one point, at the middle of any zero run
    between them. Only the pairs that flip sign or hold a zero run are
    found in numpy, and those few are classified in Python; when no slope
    is zero, the usual case, the pairs are the neighbouring differences.
    """
    slopes = np.diff(curve.ps)
    up = slopes > 0.0
    if np.count_nonzero(slopes) == slopes.size:
        left = np.flatnonzero(up[:-1] != up[1:])
        right = left + 1
    else:
        nonzero = np.flatnonzero(slopes)
        left, right = nonzero[:-1], nonzero[1:]
        hits = np.flatnonzero((up[left] != up[right]) | (right > left + 1))
        left, right = left[hits], right[hits]
    idx = (left + 1 + right) // 2
    return tuple(
        StationaryPoint(x=x, kind=_kind(up_l, up_r), p=p)
        for x, p, up_l, up_r in zip(
            curve.xs[idx].tolist(), curve.ps[idx].tolist(),
            up[left].tolist(), up[right].tolist(),
        )
    )


def _kind(up_left: bool, up_right: bool) -> str:
    if up_left == up_right:
        return "inflection-plateau"
    return "maximum" if up_left else "minimum"


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
        If the curve has fewer than 101 points. The width and spacing of a
        :func:`density_curve` grid are checked when it is built.
    """
    if curve.xs.size < 101:
        raise GridError(f"need at least 101 samples, got {curve.xs.size}")
    points = stationary_points(curve)
    minima = tuple(p for p in points if p.kind == "minimum")

    negative = _negative_regions(curve)
    return DensityReport(
        curve=curve,
        minima=minima,
        negative_regions=negative,
        unimodal=(not minima) and (not negative),
    )
