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
values. Numpy arithmetic runs under ``np.errstate(all="ignore")``: the checks
of :class:`DensityCurve` and the oracle reject a value that leaves the float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .bs_core import MarketEnv, _as_float_or_array, _bs_value, strike_to_x
from .errors import DomainError, GridError
from .smile import SmileParams, _sigma_terms, sigma_derivatives

__all__ = [
    "DensityCurve",
    "StationaryPoint",
    "DensityReport",
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
    """A return density sampled on a finite, strictly increasing x-grid."""

    xs: np.ndarray
    ps: np.ndarray

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        ps = np.asarray(self.ps, dtype=float)
        if xs.ndim != 1 or xs.shape != ps.shape:
            raise DomainError("xs and ps must be 1-d arrays of equal length")
        if xs.size < 3:
            raise DomainError("a density curve needs at least 3 samples")
        # one comparison pass, which a NaN fails too
        if not (xs[1:] > xs[:-1]).all():
            raise DomainError("xs must be strictly increasing")
        if not (math.isfinite(xs[0]) and math.isfinite(xs[-1])):
            raise DomainError("xs must be finite")
        # a NaN or an infinity among the samples shows in the least or the
        # greatest, which analyze's negativity test reads too
        low, high = float(ps.min()), float(ps.max())
        if not (math.isfinite(low) and math.isfinite(high)):
            raise DomainError("ps must be finite")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ps", ps)
        # not a field: a curve holds only its samples
        object.__setattr__(self, "_ps_range", (low, high))


@dataclass(frozen=True)
class StationaryPoint:
    """Zero of the discrete derivative, classified by the sign change."""

    x: float
    kind: str  # "maximum" | "minimum" | "inflection-plateau"
    p: float


@dataclass(frozen=True)
class DensityReport:
    """Outcome of :func:`analyze` on one density curve.

    ``unimodal`` is derived from the two pathologies, so a report cannot
    list a minimum or a negative region and still call itself unimodal.
    ``total_mass`` and ``martingale_gap`` are integrated over the curve on
    first read; the shape verdict needs neither.
    """

    curve: DensityCurve = field(repr=False, compare=False)  # ndarray == is elementwise
    minima: tuple[StationaryPoint, ...]
    negative_regions: tuple[tuple[float, float], ...]

    @property
    def unimodal(self) -> bool:
        return not self.minima and not self.negative_regions

    @cached_property
    def total_mass(self) -> float:
        return float(np.trapezoid(self.curve.ps, self.curve.xs))

    @cached_property
    def martingale_gap(self) -> float:
        # forward recovery: with S = S0 exp(x + rT), the forward gap reduces
        # to |integral of exp(x) p(x) dx - 1| independent of spot and rate.
        # exp(x) overflows right of x = 709.78, on wide grids where the
        # samples there are 0, so a zero sample weighs 0 and takes no exp;
        # where exp(x) p(x) or the integral still overflows, the gap is inf
        xs, ps = self.curve.xs, self.curve.ps
        with np.errstate(all="ignore"):
            weighted = np.exp(xs, out=np.zeros_like(xs), where=ps != 0.0) * ps
            gap = abs(np.trapezoid(weighted, xs) - 1.0)
        return math.inf if math.isnan(gap) else float(gap)


def _gaussian_kernel(
    vol: float | np.ndarray, maturity: float, x: float | np.ndarray
) -> np.ndarray:
    """Flat-volatility return density: normal with mean ``-vol^2 T / 2``, so
    that the forward is priced correctly. The smile density evaluates it at
    the local vol, so at chi = 1 it is this bit for bit.

    ``exp(-(x + var / 2)^2 / (2 var)) / sqrt(2 pi var)``, ``var = vol^2 T``,
    is formed in place in two new arrays of ``x``'s shape, one of them the
    result, and a third holds ``2 var``.
    """
    var = np.multiply(vol, vol, out=np.empty_like(x, dtype=float))
    var *= maturity
    out = np.multiply(0.5, var, out=np.empty_like(var))
    out += x
    np.square(out, out=out)
    np.negative(out, out=out)
    out /= np.multiply(2.0, var, out=np.empty_like(var))
    np.exp(out, out=out)
    var *= 2.0 * np.pi
    out /= np.sqrt(var, out=var)
    return out


def _curvature(sigma, sigma_x, sigma_xx, x, maturity: float) -> np.ndarray:
    """Curvature multiplier on the Gaussian kernel from a non-flat smile.

    ``F = (1 - (sigma'/sigma) x)^2 - (sigma' sigma T)^2 / 4 + sigma sigma'' T``

    equals 1 identically for a flat smile and may go negative when the
    smile bends too fast, which is exactly the arbitrage signature the
    density checks look for. Takes floats or arrays and forms ``F`` in
    place in a new array of ``x``'s shape, with one work array of that
    shape.
    """
    out = np.divide(sigma_x, sigma, out=np.empty_like(x, dtype=float))
    out *= x
    np.subtract(1.0, out, out=out)
    np.square(out, out=out)
    term = np.multiply(sigma_x, sigma, out=np.empty_like(out))
    term *= maturity
    np.square(term, out=term)
    term /= 4.0
    out -= term
    np.multiply(sigma, sigma_xx, out=term)
    term *= maturity
    out += term
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
    with np.errstate(all="ignore"):
        sig, d1, d2 = _sigma_terms(params, x_arr)
        p = _gaussian_kernel(sig, params.maturity, x_arr)
        p *= _curvature(sig, d1, d2, x_arr, params.maturity)
    return _as_float_or_array(p, x)


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
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Finite-difference density: exp(rT) times the second strike-derivative
    of the smile-priced option, Richardson-extrapolated from the h and h/2
    stencils to O(h^4). Returns ``(density, error)``, the error proxy being
    the disagreement between the extrapolated and the finest plain stencil.

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
    with np.errstate(all="ignore"):
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
    return _as_float_or_array(value, strike), _as_float_or_array(err, strike)


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
    xs = _grid(params, points, span)
    return DensityCurve(xs=xs, ps=return_density(params, xs))


def _grid_rule(params: SmileParams, points: int, span: float) -> tuple[float, float, float]:
    """The ends ``lo, hi = x_min -+ span * g * chi * sqrt(T)`` of the x-grid of
    :func:`density_curve` and its ``step``. A width that is not finite raises
    the :class:`DensityCurve` error that the grid's NaN samples would."""
    scale = params.sigma_plateau * math.sqrt(params.maturity)
    lo, hi = params.x_min - span * scale, params.x_min + span * scale
    if not math.isfinite(hi - lo):
        raise DomainError("xs must be strictly increasing")
    return lo, hi, (hi - lo) / (points - 1)


def _grid(params: SmileParams, points: int, span: float, start: int = 0,
          stop: int | None = None) -> np.ndarray:
    """Samples ``start`` to ``stop`` (default: the last) of the
    ``points``-sample x-grid of :func:`density_curve`. Sample ``i`` is ``i *
    step + lo`` and the last one ``hi`` (:func:`_grid_rule`), the rule by
    which ``np.linspace`` forms a grid of nonzero step, so a slice is the
    whole grid's bit for bit. A step that underflows to 0 repeats a sample,
    as there are then fewer floats from ``lo`` to ``hi`` than samples, and
    :class:`DensityCurve` rejects the grid."""
    lo, hi, step = _grid_rule(params, points, span)
    stop = points if stop is None else stop
    xs = np.arange(start, stop, dtype=np.float64)
    xs *= step
    xs += lo
    if stop == points:
        xs[-1] = hi
    return xs


def _window_curve(params: SmileParams, points: int, span: float, x: float,
                  size: int) -> DensityCurve:
    """The density on the ``size`` samples of the :func:`density_curve` grid
    of ``points`` samples around the one nearest ``x``, clipped to the grid
    (all of it if it has fewer). An ``x`` below the grid or a zero step takes
    sample 0, an ``x`` above it or a NaN the last. Its x, and so its
    elementwise samples, are the whole grid's bit for bit (:func:`_grid`),
    and a ``-`` slope, zero slopes only and a ``+`` slope in it are the same
    run in the whole curve: each minimum :func:`stationary_points` finds here
    is one of :func:`analyze`'s on the whole grid, at the same ``x``. A
    window with none says nothing about the rest of the grid."""
    lo, _, step = _grid_rule(params, points, span)
    at = (x - lo) / step if step else 0.0
    nearest = points - 1 if not at < points - 1 else round(max(at, 0.0))
    start = min(max(nearest - size // 2, 0), max(points - size, 0))
    xs = _grid(params, points, span, start, min(start + size, points))
    return DensityCurve(xs=xs, ps=return_density(params, xs))


def stationary_points(curve: DensityCurve) -> tuple[StationaryPoint, ...]:
    """Classify every interior zero of the discrete derivative.

    Sign changes of successive differences mark maxima (+ to -) and minima
    (- to +); a run of exactly equal samples flanked by same-sign slopes is
    reported as an inflection plateau. Each nonzero slope pairs with the
    next nonzero slope, across any zero run between them, and a pair
    brackets at most one point, at the middle of that run; a zero run at
    either end of the curve pairs with nothing. One walk over the few
    places where neighbouring slope signs differ finds every pair.
    """
    ps = curve.ps
    slopes = ps[1:] - ps[:-1]  # np.diff, without its dispatch
    signs = (slopes > 0.0).view(np.int8) - (slopes < 0.0).view(np.int8)
    change = np.flatnonzero(signs[:-1] != signs[1:])
    points, left = [], None  # left: the last nonzero slope so far
    for i, sign, after in zip(change.tolist(), signs[change].tolist(),
                              signs[change + 1].tolist()):
        if sign:
            left, left_sign = i, sign
        if after and left is not None:
            mid = (left + 2 + i) // 2  # (left + 1 + right) // 2, right = i + 1
            points.append(StationaryPoint(x=float(curve.xs[mid]), kind=_kind(left_sign, after),
                                          p=float(curve.ps[mid])))
    return tuple(points)


def _kind(left: int, right: int) -> str:
    if left == right:
        return "inflection-plateau"
    return "maximum" if left > 0 else "minimum"


def _negative_regions(curve: DensityCurve) -> tuple[tuple[float, float], ...]:
    low, high = curve._ps_range
    threshold = -NEGATIVE_EPS_REL * max(-low, high)  # the peak of |ps|
    if not low < threshold:
        return ()
    below = curve.ps < threshold
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
    return DensityReport(curve=curve, minima=minima, negative_regions=_negative_regions(curve))
