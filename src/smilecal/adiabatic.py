"""Critical plateau ratio: when does a smile's density stop being unimodal.

For fixed (g, n, T) the implied return density is unimodal for plateau
ratios chi close to 1 and develops spurious interior minima once chi
crosses a critical value chi_c(g, n, T). This module locates chi_c three
ways:

* a closed form for the square-well caricature of the smile
  (:func:`square_well_critical_x`),
* a numerical continuation in chi driven by the density module's
  unimodality verdict (:func:`chi_critical_numeric`); a closed-form fold
  of the density's log-slope (:func:`_fold_point`) predicts every verdict,
  and real ones are made only at the ends of the bracket it gives, unless
  they contradict it; above the fold a slice of the grid around the fold's
  x decides first (:func:`_window_minima`). The fold's Newton step takes its
  y-derivatives from Taylor coefficients of the density's log-slope,
  formed in straight-line arithmetic from the smile's derivatives, which
  come from a recurrence, and its chi-derivatives from the same
  coefficients at a complex plateau ratio (the complex step); where
  Newton from the calibrated surface finds no fold, the fold is continued
  from the calibrated box,
* an empirical power-law surface in rho = n/(g^2 T) and g*sqrt(T)
  calibrated against sweeps of the numerical search
  (:func:`chi_critical_formula`, :func:`calibrate_critical_fit`).

:func:`adiabatic_refit` enforces the bound on a smile fit: it keeps a clean
free fit, or refits (g, n) with chi pinned 0.1% below the fit's own fold,
one LM solve whose chi column comes from the implicit-function theorem on
the fold.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import product

import numpy as np

from ._lm import levenberg_marquardt
from .density import STANDARD_GRID_POINTS, STANDARD_SPAN, DensityCurve, DensityReport
from .density import StationaryPoint, _check_grid, _grid_slice, analyze, density_curve
from .density import return_density, stationary_points
from .errors import (
    ConvergenceError,
    CriticalSearchError,
    DomainError,
    IdentifiabilityError,
    SmilecalError,
)
from .smile import Pin, SmileFitResult, SmileParams, VolQuote, constrained_fit_smile

__all__ = [
    "CriticalFitParams",
    "CriticalFitResult",
    "SweepRow",
    "AdiabaticVerdict",
    "ChiSearchSettings",
    "DEFAULT_CRITICAL_FIT",
    "square_well_critical_x",
    "chi_critical_numeric",
    "chi_critical_formula",
    "default_sweep_axes",
    "sweep_points",
    "sweep",
    "calibrate_critical_fit",
    "adiabatic_check",
    "adiabatic_refit",
]

# parameter box covered by the numerical sweeps: g, rho = n/(g^2 T), T
TABLE_RANGES = {"g": (0.03, 0.5), "rho": (2.5, 10.0), "t": (1.0 / 365.0, 4.0)}


@dataclass(frozen=True)
class CriticalFitParams:
    """Constants of the critical-ratio surface

    ``chi_c = alpha * rho**beta + gamma * sqrt(T) * g * rho**delta``.

    ``gamma`` is negative: the correction term pulls chi_c down as
    g*sqrt(T) grows.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")


DEFAULT_CRITICAL_FIT = CriticalFitParams(
    alpha=1.4373, beta=0.2787, gamma=-0.1738, delta=0.4683
)


@dataclass(frozen=True)
class CriticalFitResult:
    params: CriticalFitParams
    stderr: tuple[float, float, float, float]
    mse: float
    n_rows: int


@dataclass(frozen=True)
class SweepRow:
    """One (g, rho, T) lattice point with its numerically located chi_c."""

    g: float
    maturity: float
    n: float
    rho: float
    chi_c: float
    status: str = "ok"


@dataclass(frozen=True)
class AdiabaticVerdict:
    """A smile's plateau ratio ``chi_opt`` against its critical value ``chi_c``.

    ``adiabatic`` is derived: ``chi_opt < chi_c``, or a flat smile
    (``chi_opt`` exactly 1), whose density is exactly Gaussian.
    """

    chi_opt: float
    chi_c: float
    source: str  # "formula" | "numeric"

    @property
    def adiabatic(self) -> bool:
        return self.chi_opt == 1.0 or self.chi_opt < self.chi_c


# the upward chi_c scan: its first plateau ratio and its step
SCAN_START = 1.01
SCAN_STEP = 0.05


@dataclass(frozen=True)
class ChiSearchSettings:
    """Grid and bracket settings for the numerical chi_c search, checked when built."""

    tol: float = 1e-4
    chi_max: float = 20.0
    grid_points: int = STANDARD_GRID_POINTS
    span: float = STANDARD_SPAN

    def __post_init__(self) -> None:
        # a tol that is zero, negative or not finite either stalls the
        # bisection or ends it before its first verdict
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise DomainError(f"tol must be finite and positive, got {self.tol}")
        if not math.isfinite(self.chi_max):
            raise DomainError(f"chi_max must be finite, got {self.chi_max}")
        _check_grid(self.grid_points, self.span)


def square_well_critical_x(sigma1: float, chi: float, maturity: float) -> float:
    """Largest half-width of a square-well smile that avoids spurious minima.

    Equals the positive abscissa where the two zero-mean Gaussian densities
    with volatilities sigma1 and sigma2 = chi*sigma1 intersect:

        x1_c = sigma1 * sqrt(T) * sqrt(2 chi^2 ln(chi) / (chi^2 - 1))

    with the continuous limit sigma1*sqrt(T) at chi = 1.
    """
    if sigma1 <= 0.0 or maturity <= 0.0:
        raise DomainError("sigma1 and maturity must be positive")
    if chi < 1.0:
        raise DomainError(f"chi must be >= 1, got {chi}")
    base = sigma1 * math.sqrt(maturity)
    if chi == 1.0:
        return base
    ratio = 2.0 * chi * chi * math.log(chi) / (chi * chi - 1.0)
    return base * math.sqrt(ratio)


def _verdict(params: SmileParams, settings: ChiSearchSettings) -> DensityReport:
    """The density report of ``params`` on the ``settings`` grid."""
    curve = density_curve(params, points=settings.grid_points, span=settings.span)
    return analyze(curve)


# samples in the slice of the density grid that a window verdict reads; a
# window's minimum is the whole grid's at any size, so the size moves no
# result, only the samples a verdict pays for and how often a whole-grid
# verdict must follow: 61 is the fewest tried that keeps the tests' verdict
# counts (at 41 the retry walks need more whole-grid verdicts)
_WINDOW_POINTS = 61


def _window_minima(
    params: SmileParams, settings: ChiSearchSettings, x: float
) -> tuple[StationaryPoint, ...]:
    """The density's minima on a slice of ``_WINDOW_POINTS`` (61) samples of
    the ``settings`` grid, centred on ``x`` and clipped to the grid: all of
    it on a grid of fewer samples.

    The slice's x are the full grid's bit for bit (:func:`_grid_slice`), and
    each density sample is elementwise, so its samples are the full grid
    curve's bit for bit. A ``-`` slope, zero slopes only and a ``+`` slope
    in the slice are the same run in the full curve, so each minimum found
    here is one of :func:`_verdict`'s, at the same ``x``. A slice with none
    says nothing about the rest of the grid.
    """
    xs = _grid_slice(params, settings.grid_points, settings.span, x, _WINDOW_POINTS)
    points = stationary_points(DensityCurve(xs=xs, ps=return_density(params, xs)))
    return tuple(p for p in points if p.kind == "minimum")


# The box of (rho, s = g*sqrt(T)) that the Table-1 lattice covers, each
# edge widened by a relative 1e-9 because rounding puts some lattice
# points just outside the exact bounds. On it the verdict has been
# checked unimodal below chi_c, and the surface is within 1% of chi_c.
_S_EDGES = [g * math.sqrt(t) for g, t in zip(TABLE_RANGES["g"], TABLE_RANGES["t"])]
_BOX_RHO, _BOX_S = (
    (lo * (1.0 - 1e-9), hi * (1.0 + 1e-9)) for lo, hi in (TABLE_RANGES["rho"], _S_EDGES)
)


def _reduced(g: float, n: float, maturity: float) -> tuple[float, float] | None:
    """``(rho, s) = (n / (g^2 T), g sqrt(T))``, or ``None`` unless both are
    finite and positive (``g^2 T`` underflowing to 0, a negative T, a NaN)."""
    try:
        rho, s = n / (g * g * maturity), g * math.sqrt(maturity)
    except (ZeroDivisionError, ValueError):
        return None
    return (rho, s) if 0.0 < rho < math.inf and 0.0 < s < math.inf else None


def _box_point(rho: float, s: float) -> tuple[float, float]:
    """The point of the calibrated box nearest ``(rho, s)``, which is
    ``(rho, s)`` itself exactly when that lies in the box."""
    return min(max(rho, _BOX_RHO[0]), _BOX_RHO[1]), min(max(s, _BOX_S[0]), _BOX_S[1])


def _well_derivatives(u: float, n: float) -> tuple[float, ...]:
    """``n / (u^2 + n)`` and its first five derivatives in ``u``, by recurrence.

    The Taylor coefficients of ``1 / ((u + t)^2 + n)`` in ``t`` obey
    ``a_k = -(2u a_{k-1} + a_{k-2}) / (u^2 + n)``, with ``a_{-1} = 0``, as
    the series times ``u^2 + n + 2u t + t^2`` is 1. So the k-th derivative
    ``D_k = n k! a_k`` obeys ``D_k = -(2k u D_{k-1} + k(k-1) D_{k-2}) /
    (u^2 + n)``. The smile is ``g * (1 + (chi - 1) * (1 - n / (u^2 + n)))``,
    so its k-th x-derivative, k >= 1, is ``-g * (chi - 1)`` times ``D_k``.
    """
    d = u * u + n
    prev, cur = 0.0, n / d  # D_{k-1} and D_k from k = 0
    out = [cur]
    for k in (1.0, 2.0, 3.0, 4.0, 5.0):
        prev, cur = cur, -(2.0 * k * u * cur + k * (k - 1.0) * prev) / d
        out.append(cur)
    return tuple(out)


# The complex step h in chi: its truncation error, relative h^2, and the
# products of two imaginary parts, of order h^2, are far below rounding.
_CHI_STEP = 1e-100


def _log_slope(y: float, chi: complex, rho: complex, s: complex) -> tuple[complex, ...]:
    """``(q, q_y, q_yy)`` of ``q = d log p / dy`` at ``(y, chi, rho, s)``.

    In the reduced coordinate ``y = x / (g sqrt(T))`` the smile is
    ``g * sig(y)``, ``sig = 1 + (chi - 1) * (1 - rho / (v^2 + rho))`` with
    ``v = y + s/2``, and the log-density is, up to a constant,
    ``-y^2 / (2 sig^2) - s y / 2 - s^2 sig^2 / 8 - log sig + log F``, with
    the curvature factor ``F = (1 - y sig'/sig)^2 - s^2 (sig' sig)^2 / 4 +
    sig sig''``. It depends on ``(y, chi, rho, s)`` only, and ``q`` vanishes
    where ``d log p / dx`` does.

    Each factor is carried as its Taylor coefficients ``(f, f', f''/2,
    f'''/6)`` in ``y``, in straight-line arithmetic on locals: products by
    the Cauchy rule, the quotient ``y / sig`` and the logarithms by their
    recurrences. These are exact, so ``q``, ``q_y`` and ``q_yy`` are closed
    forms in the smile's derivatives. One of ``chi``, ``rho`` and ``s`` may
    carry a complex step: each term's imaginary part over the step is then
    its derivative in that argument (exact to O(h^2) and free of
    cancellation). Raises ``ValueError`` where ``F`` or ``sig`` has no
    positive real part.
    """
    h = _well_derivatives(y + 0.5 * s, rho)
    c = chi - 1.0
    w0, w1, w2, w3, w4, w5 = 1.0 - h[0], -h[1], -h[2], -h[3], -h[4], -h[5]  # sig = 1 + c * w
    # the coefficients a of sig, b of sig' and e of sig''
    a0, a1, a2, a3 = 1.0 + c * w0, c * w1, c * (w2 / 2.0), c * (w3 / 6.0)
    b0, b1, b2, b3 = 0.0 + a1, c * w2, c * (w3 / 2.0), c * (w4 / 6.0)
    e0, e1, e2, e3 = 0.0 + b1, c * w3, c * (w4 / 2.0), c * (w5 / 6.0)
    # z = y / sig
    z0 = y / a0
    z1 = (1.0 - z0 * a1) / a0
    z2 = (0.0 - z1 * a1 - z0 * a2) / a0
    z3 = (0.0 - z2 * a1 - z1 * a2 - z0 * a3) / a0
    # l = 1 - z sig', m = sig' sig s / 2 and t = sig s / 2
    l0 = 1.0 - z0 * b0
    l1 = -(z0 * b1 + z1 * b0)
    l2 = -(z0 * b2 + z1 * b1 + z2 * b0)
    l3 = -(z0 * b3 + z1 * b2 + z2 * b1 + z3 * b0)
    hs = 0.5 * s
    m0 = b0 * a0 * hs
    m1 = (b0 * a1 + b1 * a0) * hs
    m2 = (b0 * a2 + b1 * a1 + b2 * a0) * hs
    m3 = (b0 * a3 + b1 * a2 + b2 * a1 + b3 * a0) * hs
    t0, t1, t2, t3 = a0 * hs, a1 * hs, a2 * hs, a3 * hs
    # F = l^2 - m^2 + sig sig''
    f0 = l0 * l0 - m0 * m0 + a0 * e0
    f1 = (l0 * l1 + l1 * l0) - (m0 * m1 + m1 * m0) + (a0 * e1 + a1 * e0)
    f2 = ((l0 * l2 + l1 * l1 + l2 * l0) - (m0 * m2 + m1 * m1 + m2 * m0)
          + (a0 * e2 + a1 * e1 + a2 * e0))
    f3 = ((l0 * l3 + l1 * l2 + l2 * l1 + l3 * l0) - (m0 * m3 + m1 * m2 + m2 * m1 + m3 * m0)
          + (a0 * e3 + a1 * e2 + a2 * e1 + a3 * e0))
    # p of log F and r of log sig, but for their values, which q does not need
    if not f0.real > 0.0:  # no log is formed, so nothing else would raise
        raise ValueError(f"log of a curvature factor {f0} with no positive real part")
    p1 = f1 / f0
    p2 = (f2 - 0.5 * p1 * f1) / f0
    p3 = (f3 - (p1 * f2 + 2.0 * p2 * f1) / 3.0) / f0
    if not a0.real > 0.0:
        raise ValueError(f"log of a smile {a0} with no positive real part")
    r1 = a1 / a0
    r2 = (a2 - 0.5 * r1 * a1) / a0
    r3 = (a3 - (r1 * a2 + 2.0 * r2 * a1) / 3.0) / a0
    # log F - log sig - (z^2 + t^2) / 2: all but the linear term -s y / 2,
    # whose slope is added to q
    k1 = p1 - r1 - (z0 * z1 + z1 * z0 + (t0 * t1 + t1 * t0)) * 0.5
    k2 = p2 - r2 - (z0 * z2 + z1 * z1 + z2 * z0 + (t0 * t2 + t1 * t1 + t2 * t0)) * 0.5
    k3 = p3 - r3 - (z0 * z3 + z1 * z2 + z2 * z1 + z3 * z0
                    + (t0 * t3 + t1 * t2 + t2 * t1 + t3 * t0)) * 0.5
    return k1 - hs, 2.0 * k2, 6.0 * k3


def _fold_terms(y: float, chi: float, rho: float, s: float) -> tuple[float, ...]:
    """``(q, q_y, q_yy, q_chi, q_ychi)`` of :func:`_log_slope` at ``(y, chi)``.

    The terms are taken at the complex plateau ratio ``chi + i _CHI_STEP``:
    the y-terms are their real parts, and ``q_chi`` and ``q_ychi`` the
    imaginary parts of ``q`` and ``q_y`` over ``_CHI_STEP``.
    """
    q, q_y, q_yy = _log_slope(y, complex(chi, _CHI_STEP), rho, s)
    return q.real, q_y.real, q_yy.real, q.imag / _CHI_STEP, q_y.imag / _CHI_STEP


_FOLD_MAX_STEPS = 20
# fold continuation from the calibrated box: equal steps in (log rho, log s)
_FOLD_CONTINUATION_STEPS = 8


def _fold_newton(rho: float, s: float, y: float, chi: float) -> tuple[float, float] | None:
    """The fold ``(y, chi)`` by 2-D Newton on ``q = q_y = 0`` from ``(y, chi)``.

    Stops once a step moves neither by more than 1e-6; Newton converges
    quadratically, so the error left is of order that step squared, far
    below the fold's distance from the grid search's chi_c. Never raises:
    returns ``None`` if it takes more than ``_FOLD_MAX_STEPS`` steps, meets
    a value that is not finite or raises an ``ArithmeticError`` or
    ``ValueError``, or ends outside the left wing ``y < -s/2`` or at a chi
    not above 1.
    """
    try:
        for _ in range(_FOLD_MAX_STEPS):
            q, q_y, q_yy, q_c, q_yc = _fold_terms(y, chi, rho, s)
            det = q_y * q_yc - q_c * q_yy
            dy = (q_c * q_y - q * q_yc) / det
            dchi = (q * q_yy - q_y * q_y) / det
            y += dy
            chi += dchi
            if not (math.isfinite(y) and math.isfinite(chi)):
                return None
            if abs(dy) <= 1e-6 and abs(dchi) <= 1e-6:
                return (y, chi) if y < -0.5 * s and chi > 1.0 else None
    except (ArithmeticError, ValueError):
        return None
    return None


def _fold_seed(rho: float, s: float) -> tuple[float, float]:
    """Newton's start ``(y, chi)``: the calibrated surface's chi and ``y =
    -s/2 - 1.2 sqrt(rho)``, 1.2 well widths left of the smile minimum (the
    Table-1 folds lie 1.11 to 1.26 widths left). Raises ``DomainError``
    where ``rho s^2`` underflows to 0."""
    return -0.5 * s - 1.2 * math.sqrt(rho), chi_critical_formula(s, rho * s * s, 1.0)


def _fold_point(rho: float, s: float) -> tuple[float, float] | None:
    """The fold ``(y, chi)`` of :func:`_fold_terms` at ``(rho, s)``, or ``None``.

    Newton runs first from :func:`_fold_seed`. Where that gives no fold, the
    fold is continued from the nearest point of the calibrated box to
    ``(rho, s)`` in ``_FOLD_CONTINUATION_STEPS`` equal steps of ``(log rho,
    log s)``, each Newton solve starting from the fold before. Where the
    seed cannot be formed there is no fold. Never raises.
    """
    try:
        point = _fold_newton(rho, s, *_fold_seed(rho, s))
        if point is not None:
            return point
        box = _box_point(rho, s)
        if box == (rho, s):
            return None
        step_r, step_s = (math.log(a / b) / _FOLD_CONTINUATION_STEPS
                          for a, b in ((rho, box[0]), (s, box[1])))
    except (ArithmeticError, ValueError):
        return None
    point = _fold_newton(*box, *_fold_seed(*box))
    for k in range(1, _FOLD_CONTINUATION_STEPS + 1):
        if point is None:
            return None
        at = (rho, s) if k == _FOLD_CONTINUATION_STEPS else (
            box[0] * math.exp(k * step_r), box[1] * math.exp(k * step_s))
        point = _fold_newton(*at, *point)
    return point


# Each retry widens the chi_c search's window of real verdicts this much: at
# tol 1e-6 on the 27-point sub-lattice, 6.85 full-grid verdicts a search
# (7.96 with 8, 37.6 with 2)
_WINDOW_GROWTH = 16.0
# Walks before the scan with every verdict real. A final bracket one float
# wide makes the first retry windows that narrow: at tol 1e-300 the Fig. 1
# smile takes 75 full-grid verdicts with 4 walks and 109 uncapped, while 3
# walks would raise tol 1e-6 on the sub-lattice to 10.96
_MAX_WALKS = 4


def chi_critical_numeric(
    g: float,
    n: float,
    maturity: float,
    settings: ChiSearchSettings | None = None,
) -> float:
    """Smallest plateau ratio whose density loses unimodality.

    An upward scan in chi, from ``SCAN_START`` in steps of ``SCAN_STEP``,
    brackets the transition between its last unimodal and first
    non-unimodal point; bisection on the unimodality verdict then narrows
    the bracket to ``settings.tol``.

    The fold (:func:`_fold_point`) predicts the transition at ``chi_f``,
    where the density's left wing at ``y_f`` first gets a stationary
    inflection: the scan and bisection first run with every verdict
    predicted, non-unimodal iff ``chi > chi_f``, and real verdicts only at
    the final ``lo`` and ``hi``. Every predicted verdict lies at or below
    ``lo`` or at or above ``hi``, so if ``lo`` is unimodal (as ``lo = 1``,
    the Gaussian limit, is) and ``hi`` is not, the verdict's monotonicity in
    chi makes the result the full scan's, whatever the fold's error. Else
    the walk reruns with real verdicts within a window around ``chi_f``, one
    final bracket on each side and then ``_WINDOW_GROWTH`` times wider each
    retry; after ``_MAX_WALKS`` walks, past ``SCAN_STEP``, with no fold or
    if a walk finds no transition, every verdict is real. No chi gets two
    verdicts.

    A real verdict above ``chi_f`` first reads the 61 samples of the grid
    around ``x = y_f g sqrt(T)`` (:func:`_window_minima`): a minimum there
    is a minimum of the full curve, so the density is not unimodal. Only a
    slice without one leaves the verdict to the full grid.

    Raises
    ------
    CriticalSearchError
        If no transition occurs up to ``settings.chi_max``.
    """
    opts = settings or ChiSearchSettings()
    known = {1.0: False}  # non-unimodal by chi; the chi -> 1 limit is Gaussian

    def non_unimodal(chi: float) -> bool:
        if chi not in known:
            params = SmileParams(g=g, chi=chi, n=n, maturity=maturity)
            known[chi] = (chi > chi_f and bool(_window_minima(params, opts, x_f))
                          or not _verdict(params, opts).unimodal)
        return known[chi]

    def search(verdict) -> tuple[float, float]:
        lo, chi = 1.0, SCAN_START
        while chi <= opts.chi_max:
            if verdict(chi):
                return _bisect(verdict, lo, chi, opts.tol)
            lo = chi
            chi += SCAN_STEP
        raise CriticalSearchError(
            f"density stays unimodal for chi in (1, {opts.chi_max}] "
            f"at g={g}, n={n}, T={maturity}"
        )

    def predicted(chi: float) -> bool:  # real if known or within the window
        return non_unimodal(chi) if chi in known or abs(chi - chi_f) < window else chi > chi_f

    point = _reduced(g, n, maturity)
    fold = None if point is None else _fold_point(*point)
    # with no fold, chi > NaN is false: no window verdict is made
    y_f, chi_f = (math.nan, math.nan) if fold is None else fold
    x_f = math.nan if fold is None else y_f * point[1]
    window = 0.0  # half-width of the real verdicts around chi_f: none at first
    for _ in range(_MAX_WALKS):
        if fold is None or window > SCAN_STEP:
            break
        try:
            lo, hi = search(predicted)
        except CriticalSearchError:
            break
        if not non_unimodal(lo) and non_unimodal(hi):
            return 0.5 * (lo + hi)
        window = _WINDOW_GROWTH * window or hi - lo

    lo, hi = search(non_unimodal)
    return 0.5 * (lo + hi)


def _bisect(non_unimodal, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Narrow ``[lo, hi]``, unimodal at ``lo`` and not at ``hi``, to ``tol``."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # tol below the float resolution at chi
            break
        if non_unimodal(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def chi_critical_formula(g: float, n: float, maturity: float) -> float:
    """Closed-form critical ratio from the packaged calibrated surface.

    ``chi_c = alpha * rho**beta + gamma * sqrt(T) * g * rho**delta`` with
    rho = n / (g^2 T) and the constants of ``DEFAULT_CRITICAL_FIT``.
    Raises :class:`DomainError` unless g, n and T are positive and ``g^2 T``
    is not 0 in floating point.
    """
    if g <= 0.0 or n <= 0.0 or maturity <= 0.0:
        raise DomainError("g, n and maturity must be positive")
    p = DEFAULT_CRITICAL_FIT
    scale = g * g * maturity
    if scale == 0.0:
        raise DomainError(f"g^2 T underflows to 0 at g={g}, T={maturity}")
    rho = n / scale
    return (
        p.alpha * rho**p.beta
        + p.gamma * math.sqrt(maturity) * g * rho**p.delta
    )


def default_sweep_axes(
    n_g: int = 6, n_rho: int = 6, n_t: int = 6
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-spaced sweep axes over the standard parameter box."""
    g_lo, g_hi = TABLE_RANGES["g"]
    r_lo, r_hi = TABLE_RANGES["rho"]
    t_lo, t_hi = TABLE_RANGES["t"]
    return (
        np.geomspace(g_lo, g_hi, n_g),
        np.geomspace(r_lo, r_hi, n_rho),
        np.geomspace(t_lo, t_hi, n_t),
    )


def _sweep_one(g: float, rho: float, maturity: float, settings: ChiSearchSettings) -> SweepRow:
    n = rho * g * g * maturity
    try:
        chi_c = chi_critical_numeric(g, n, maturity, settings)
        return SweepRow(g=g, maturity=maturity, n=n, rho=rho, chi_c=chi_c)
    # a failed search or an overflow must not kill the sweep; a
    # programming error must surface rather than become an error row
    except (SmilecalError, ArithmeticError) as exc:
        return SweepRow(
            g=g, maturity=maturity, n=n, rho=rho, chi_c=math.nan,
            status=f"error: {exc}",
        )


def sweep_points(points, settings: ChiSearchSettings | None = None) -> Iterator[SweepRow]:
    """Yield the row of each (g, rho, T) point, in input order.

    Each row is computed when the caller asks for it, so a caller can
    persist rows one by one and keep them if the sweep is interrupted. A
    row whose search raises a :class:`SmilecalError` or an
    ``ArithmeticError`` records it in its status rather than aborting the
    sweep; any other exception propagates.
    """
    opts = settings or ChiSearchSettings()
    for g, rho, t in points:
        yield _sweep_one(float(g), float(rho), float(t), opts)


def sweep(
    g_values,
    rho_values,
    t_values,
    settings: ChiSearchSettings | None = None,
) -> list[SweepRow]:
    """Locate chi_c on the (g, rho, T) lattice, one row per point.

    Row order follows the input lattice order (g outermost, T innermost);
    see :func:`sweep_points` for failed rows.
    """
    return list(sweep_points(product(g_values, rho_values, t_values), settings))


def _surface_resid_jac(theta: np.ndarray, rho, g_sqrt_t, target):
    alpha, beta, gamma, delta = theta
    rho_b = rho**beta
    rho_d = rho**delta
    log_rho = np.log(rho)
    model = alpha * rho_b + gamma * g_sqrt_t * rho_d
    r = model - target
    jac = np.stack(
        [rho_b, alpha * rho_b * log_rho, g_sqrt_t * rho_d, gamma * g_sqrt_t * rho_d * log_rho],
        axis=1,
    )
    return r, jac


def calibrate_critical_fit(rows: list[SweepRow]) -> CriticalFitResult:
    """Least-squares fit of the critical-ratio surface to sweep rows.

    Rows whose status is not "ok" are dropped. Requires at least 20 valid
    rows spanning a decade in rho; the correction constants (gamma, delta)
    are unidentifiable unless g*sqrt(T) varies across rows, which is
    reported as :class:`IdentifiabilityError`.

    Starts from the packaged constants and returns the fitted ones with
    asymptotic standard errors and the residual mean squared error.
    """
    good = [r for r in rows if r.status == "ok" and math.isfinite(r.chi_c)]
    if len(good) < 20:
        raise DomainError(f"need at least 20 valid rows, got {len(good)}")
    rho = np.array([r.rho for r in good])
    if rho.max() / rho.min() < 2.0:
        raise DomainError("rows must span at least a factor of 2 in rho")
    g_sqrt_t = np.array([r.g * math.sqrt(r.maturity) for r in good])
    spread = g_sqrt_t.max() / g_sqrt_t.min()
    if spread < 1.0 + 1e-9:
        raise IdentifiabilityError(
            "rows do not vary g*sqrt(T); gamma and delta are unidentifiable"
        )
    target = np.array([r.chi_c for r in good])

    start = DEFAULT_CRITICAL_FIT
    theta0 = np.array([start.alpha, start.beta, start.gamma, start.delta])
    result = levenberg_marquardt(
        lambda th: _surface_resid_jac(th, rho, g_sqrt_t, target),
        theta0,
        max_iter=300,
        rel_tol=1e-13,
    )
    resid, jac = _surface_resid_jac(result.theta, rho, g_sqrt_t, target)
    dof = max(len(good) - 4, 1)
    s2 = float(resid @ resid) / dof
    try:
        cov = s2 * np.linalg.inv(jac.T @ jac)
        stderr = tuple(float(v) for v in np.sqrt(np.diag(cov)))
    except np.linalg.LinAlgError as exc:
        raise IdentifiabilityError(f"normal matrix singular: {exc}") from exc

    alpha, beta, gamma, delta = (float(v) for v in result.theta)
    return CriticalFitResult(
        params=CriticalFitParams(alpha=alpha, beta=beta, gamma=gamma, delta=delta),
        stderr=stderr,
        mse=float(np.mean(resid**2)),
        n_rows=len(good),
    )


def adiabatic_check(
    params: SmileParams,
    mode: str = "formula",
    settings: ChiSearchSettings | None = None,
) -> AdiabaticVerdict:
    """Compare a fitted smile's plateau ratio against its critical value.

    ``mode="formula"`` evaluates the calibrated surface inside its
    calibrated (rho, s) box and runs the bisection search outside it, where
    the surface can fall below 1; ``mode="numeric"`` always runs the
    search. ``source`` says which gave ``chi_c``. The verdict's
    ``adiabatic`` property holds iff chi_opt < chi_c, in which case the
    implied density has no spurious minima.

    A flat smile (chi exactly 1) passes unconditionally: its density is
    exactly Gaussian, and its fitted width n is arbitrary, which can put
    the surface far outside its calibrated range. In formula mode it keeps
    the surface's value wherever it lies.
    """
    if mode not in ("formula", "numeric"):
        raise DomainError(f"mode must be 'formula' or 'numeric', got {mode!r}")
    g, n, maturity = params.g, params.n, params.maturity
    point = _reduced(g, n, maturity)
    if mode == "formula" and (params.chi == 1.0
                              or point is not None and _box_point(*point) == point):
        chi_c, source = chi_critical_formula(g, n, maturity), "formula"
    else:
        chi_c, source = chi_critical_numeric(g, n, maturity, settings), "numeric"
    return AdiabaticVerdict(chi_opt=params.chi, chi_c=chi_c, source=source)


def _fold_gradient(rho: float, s: float, y: float, chi: float) -> tuple[float, float]:
    """``(dchi/drho, dchi/ds)`` of the fold ``(y, chi)``, by the implicit-
    function theorem on ``(q, q_y) = 0``: ``M d(y, chi) = -d(q, q_y)``, with
    ``M = [[q_y, q_chi], [q_yy, q_ychi]]`` the fold's Newton matrix formed
    at the fold, and ``d(q, q_y)`` in ``rho`` and in ``s`` each from one
    complex step of :func:`_log_slope`."""
    _, q_y, q_yy, q_c, q_yc = _fold_terms(y, chi, rho, s)
    det = q_y * q_yc - q_c * q_yy
    step = complex(0.0, _CHI_STEP)
    grad = []
    for args in ((rho + step, s), (rho, s + step)):
        q_p, q_yp, _ = _log_slope(y, chi, *args)
        grad.append((q_yy * q_p.imag - q_y * q_yp.imag) / (_CHI_STEP * det))
    return grad[0], grad[1]


# The refit pins chi this far, relatively, below the fit's own fold, which
# lies within 9.03e-5 of the grid search's chi_c (27-point sub-lattice, span
# 20): with it, all 400 non-adiabatic benchmark desk refits of seeds 1-40 are
# clean by the grid verdict and by a Breeden-Litzenberger density from calls.
_FOLD_CLEARANCE = 1e-3


def _fold_pin(maturity: float) -> Pin:
    """``pin(g, n)``: ``(1 - _FOLD_CLEARANCE)`` times the fold at ``(rho,
    s)`` of ``(g, n, maturity)``, with its gradient in ``(ln g, ln n)``, or
    ``None`` where there is no fold or that chi is below 1. Each fold's
    Newton starts from the fold found before; the first, and one where that
    finds none, as from a rejected trial point far off, comes from
    :func:`_fold_point`."""
    last = None
    keep = 1.0 - _FOLD_CLEARANCE

    def pin(g: float, n: float) -> tuple[float, float, float] | None:
        nonlocal last
        point = _reduced(g, n, maturity)
        if point is None:
            return None
        rho, s = point
        found = (last and _fold_newton(rho, s, *last)) or _fold_point(rho, s)
        if found is None:
            return None
        last = found
        if keep * found[1] < 1.0:  # no smile has chi < 1
            return None
        try:
            chi_rho, chi_s = _fold_gradient(rho, s, *found)
        except (ArithmeticError, ValueError):
            return None
        # ln rho = ln n - 2 ln g - ln T and ln s = ln g + ln T / 2
        return (keep * found[1], keep * (s * chi_s - 2.0 * rho * chi_rho),
                keep * rho * chi_rho)

    return pin


def adiabatic_refit(
    quotes: list[VolQuote],
    free: SmileFitResult,
    chi_max: float,
    settings: ChiSearchSettings | None = None,
) -> tuple[SmileFitResult, DensityReport]:
    """The free fit if it is flat, or if its chi is at most ``chi_max`` and
    its density is unimodal; else the fit with chi pinned 0.1% below its
    own fold. Returns the final fit with its density report on the
    ``settings`` grid.

    The pinned fit is one LM solve over ``(ln g, ln n)`` from the free fit,
    with ``chi = (1 - 1e-3) * chi_fold(rho, s)`` at each ``(g, n)``: re-
    optimizing ``(g, n)`` moves the fold, so a fit capped at a fixed bound
    can keep a spurious minimum, while the pinned one stays below its own
    transition. Its chi may exceed ``chi_max``. A flat free fit (chi = 1,
    Gaussian) is kept whatever ``chi_max`` is.

    Raises
    ------
    DomainError
        If the free fit is not flat and ``chi_max`` is not at least 1.
    ConvergenceError
        If the free fit has no fold to pin to, or none 0.1% above chi = 1,
        or the pinned fit diverges.
    """
    opts = settings or ChiSearchSettings()
    params = free.params
    if params.chi == 1.0:
        return free, _verdict(params, opts)
    if not chi_max >= 1.0:
        raise DomainError(f"chi_max must be >= 1, got {chi_max}")
    if params.chi <= chi_max:
        report = _verdict(params, opts)
        if report.unimodal:
            return free, report
    pin = _fold_pin(params.maturity)
    if pin(params.g, params.n) is None:
        raise ConvergenceError(
            f"no fold to pin chi to at g={params.g}, n={params.n}, T={params.maturity}"
        )
    fit = constrained_fit_smile(quotes, params, pin)
    return fit, _verdict(fit.params, opts)
