"""Critical plateau ratio: when does a smile's density stop being unimodal.

For fixed (g, n, T) the implied return density is unimodal for plateau
ratios chi close to 1 and develops spurious interior minima once chi
crosses a critical value chi_c(g, n, T). This module locates chi_c three
ways:

* a closed form for the square-well caricature of the smile
  (:func:`square_well_critical_x`),
* a numerical continuation in chi driven by the density module's
  unimodality verdict (:func:`chi_critical_numeric`); a closed-form fold
  of the density's log-slope (:func:`_fold_chi`) predicts the transition
  at every point, and only the verdicts next to the prediction are made,
  with the full scan as the fallback. The fold's Newton step takes its
  y-derivatives from Taylor jets of the smile, whose derivatives come
  from a recurrence, and its chi-derivatives from the same jets taken at
  a complex plateau ratio (the complex step),
* an empirical power-law surface in rho = n/(g^2 T) and g*sqrt(T)
  calibrated against sweeps of the numerical search
  (:func:`chi_critical_formula`, :func:`calibrate_critical_fit`).

:func:`adiabatic_refit` enforces the bound on a smile fit.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import product

import numpy as np

from ._lm import levenberg_marquardt
from .density import STANDARD_GRID_POINTS, STANDARD_SPAN, DensityReport
from .density import _check_grid, analyze, density_curve
from .errors import (
    CriticalSearchError,
    DomainError,
    IdentifiabilityError,
    SmilecalError,
)
from .smile import SmileFitResult, SmileParams, VolQuote
from .smile import _capped_fit, _quotes_to_arrays

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


def _in_calibrated_box(g: float, n: float, maturity: float) -> bool:
    rho, s = _reduced(g, n, maturity) or (math.nan, math.nan)  # NaN is outside
    return _BOX_RHO[0] <= rho <= _BOX_RHO[1] and _BOX_S[0] <= s <= _BOX_S[1]


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


class _Jet:
    """A function of y as its Taylor coefficients ``(f, f', f''/2, f'''/6)``
    at one point.

    Sums, products, quotients and logarithms of jets are exact, so the
    fold's Newton step gets ``q``, ``q_y`` and ``q_yy`` in closed form from
    the smile's derivatives. The coefficients may be complex: in a jet
    built at the plateau ratio ``chi + i h``, each coefficient's imaginary
    part over ``h`` is its chi-derivative (the complex step, exact to
    O(h^2) and free of cancellation).
    """

    __slots__ = ("c",)

    def __init__(self, c: tuple) -> None:
        self.c = c

    def __add__(self, other: _Jet) -> _Jet:
        a0, a1, a2, a3 = self.c
        b0, b1, b2, b3 = other.c
        return _Jet((a0 + b0, a1 + b1, a2 + b2, a3 + b3))

    def __sub__(self, other: _Jet) -> _Jet:
        a0, a1, a2, a3 = self.c
        b0, b1, b2, b3 = other.c
        return _Jet((a0 - b0, a1 - b1, a2 - b2, a3 - b3))

    def __rsub__(self, other: float) -> _Jet:
        a0, a1, a2, a3 = self.c
        return _Jet((other - a0, -a1, -a2, -a3))

    def __mul__(self, other: _Jet | float) -> _Jet:
        a0, a1, a2, a3 = self.c
        if not isinstance(other, _Jet):
            return _Jet((a0 * other, a1 * other, a2 * other, a3 * other))
        b0, b1, b2, b3 = other.c
        return _Jet((a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0,
                     a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0))

    def __truediv__(self, other: _Jet) -> _Jet:
        a0, a1, a2, a3 = self.c
        b0, b1, b2, b3 = other.c
        c0 = a0 / b0
        c1 = (a1 - c0 * b1) / b0
        c2 = (a2 - c1 * b1 - c0 * b2) / b0
        c3 = (a3 - c2 * b1 - c1 * b2 - c0 * b3) / b0
        return _Jet((c0, c1, c2, c3))

    def log(self) -> _Jet:
        a0, a1, a2, a3 = self.c
        if not a0.real > 0.0:  # cmath.log, unlike math.log, would not raise
            raise ValueError(f"log of a jet whose value {a0} has no positive real part")
        l1 = a1 / a0
        l2 = (a2 - 0.5 * l1 * a1) / a0
        l3 = (a3 - (l1 * a2 + 2.0 * l2 * a1) / 3.0) / a0
        return _Jet((cmath.log(a0), l1, l2, l3))


# The complex step h in chi: its truncation error, relative h^2, and the
# products of two imaginary parts, of order h^2, are far below rounding.
_CHI_STEP = 1e-100


def _fold_terms(y: float, chi: float, rho: float, s: float) -> tuple[float, ...]:
    """``(q, q_y, q_yy, q_chi, q_ychi)`` of ``q = d log p / dy`` at ``(y, chi)``.

    In the reduced coordinate ``y = x / (g sqrt(T))`` the smile is
    ``g * sig(y)``, ``sig = 1 + (chi - 1) * (1 - rho / (v^2 + rho))`` with
    ``v = y + s/2``, and the log-density is, up to a constant,
    ``-y^2 / (2 sig^2) - s y / 2 - s^2 sig^2 / 8 - log sig + log F``, with
    the curvature factor ``F = (1 - y sig'/sig)^2 - s^2 (sig' sig)^2 / 4 +
    sig sig''``. It depends on ``(y, chi, rho, s)`` only, and ``q`` vanishes
    where ``d log p / dx`` does.

    The log-density's jet is taken at the complex plateau ratio
    ``chi + i _CHI_STEP``: the y-terms are its real parts, and ``q_chi``
    and ``q_ychi`` the imaginary parts of ``q`` and ``q_y`` over
    ``_CHI_STEP``. Raises ``ValueError`` where ``F`` is not positive.
    """
    h = _well_derivatives(y + 0.5 * s, rho)
    c = complex(chi - 1.0, _CHI_STEP)
    w = (1.0 - h[0], -h[1], -h[2], -h[3], -h[4], -h[5])  # sig = 1 + c * w

    def jet(k: int) -> _Jet:  # of the k-th derivative of sig
        return _Jet((float(k == 0) + c * w[k], c * w[k + 1], c * (w[k + 2] / 2.0),
                     c * (w[k + 3] / 6.0)))

    sig, sig1, sig2 = jet(0), jet(1), jet(2)
    z = _Jet((y, 1.0, 0.0, 0.0)) / sig
    slope = 1.0 - z * sig1
    prod = sig1 * sig * (0.5 * s)
    factor = slope * slope - prod * prod + sig * sig2
    sig_s = sig * (0.5 * s)
    # all but the linear term -s y / 2, whose slope is added to q
    _, l1, l2, l3 = (factor.log() - sig.log() - (z * z + sig_s * sig_s) * 0.5).c
    q, q_y = l1 - 0.5 * s, 2.0 * l2
    return q.real, q_y.real, 6.0 * l3.real, q.imag / _CHI_STEP, q_y.imag / _CHI_STEP


_FOLD_MAX_STEPS = 20


def _fold_chi(rho: float, s: float) -> float | None:
    """The fold ``q = q_y = 0`` of :func:`_fold_terms`: the plateau ratio at
    which the density's left wing first gets a stationary inflection.

    2-D Newton in ``(y, chi)`` starts from the calibrated surface's chi and
    ``y = -s/2 - 1.2 sqrt(rho)``, 1.2 well widths left of the smile minimum
    (the Table-1 folds lie 1.11 to 1.26 widths left), and stops once a step
    moves neither by more than 1e-6; Newton converges quadratically, so the
    error left is of order that step squared, far below ``_FOLD_BAND``.
    Never raises: returns ``None``, no prediction, if it takes more than
    ``_FOLD_MAX_STEPS`` steps, meets a value that is not finite or raises an
    ``ArithmeticError`` or ``ValueError``, or ends outside the left wing
    ``y < -s/2``.
    """
    try:
        chi = chi_critical_formula(s, rho * s * s, 1.0)  # the smile g = s, T = 1
        y = -0.5 * s - 1.2 * math.sqrt(rho)
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
                return chi if y < -0.5 * s and chi > 1.0 else None
    except (ArithmeticError, ValueError):
        return None
    return None


# Fold-guided verdicts are declared this far (plus the bisection tol) from
# the fold's chi: the smallest round value at least 1.4 times the fold's
# worst distance from the grid search's chi_c. That distance is 6.90e-5 on
# the Table-1 lattice at the default settings and, on its 27-point
# sub-lattice, 9.03e-5 at span 20, 4.81e-5 at 8001 grid points and
# 1.83e-5 at tol 1e-6. A wrong band costs speed, never exactness.
_FOLD_BAND = 1.5e-4


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

    The fold of the density's log-slope (:func:`_fold_chi`) predicts the
    transition at ``chi_f``, and the same scan and bisection run with a
    verdict only for a chi within ``_FOLD_BAND + settings.tol`` of
    ``chi_f``: a chi below that band is declared unimodal and one above it
    non-unimodal. The result is kept only if both ends of the final bracket
    lie in the band, where the verdicts were real, or at ``lo = 1``, the
    Gaussian limit, which needs none. As
    the verdict is monotone in chi, every declared verdict then agrees with
    the real one, so the result is the full scan's, whatever the fold's
    error. Otherwise, or when the fold gives no prediction, the full scan
    runs with every verdict real.

    Raises
    ------
    CriticalSearchError
        If no transition occurs up to ``settings.chi_max``.
    """
    opts = settings or ChiSearchSettings()

    def non_unimodal(chi: float) -> bool:
        return not _verdict(SmileParams(g=g, chi=chi, n=n, maturity=maturity), opts).unimodal

    def search(verdict) -> tuple[float, float]:
        lo, chi = 1.0, SCAN_START  # the chi -> 1 limit is Gaussian, hence unimodal
        while chi <= opts.chi_max:
            if verdict(chi):
                return _bisect(verdict, lo, chi, opts.tol)
            lo = chi
            chi += SCAN_STEP
        raise CriticalSearchError(
            f"density stays unimodal for chi in (1, {opts.chi_max}] "
            f"at g={g}, n={n}, T={maturity}"
        )

    point = _reduced(g, n, maturity)
    chi_f = None if point is None else _fold_chi(*point)
    if chi_f is not None:
        band = _FOLD_BAND + opts.tol

        def real(chi: float) -> bool:  # lo = 1, the Gaussian limit, needs no verdict
            return chi == 1.0 or abs(chi - chi_f) <= band

        def guided(chi: float) -> bool:
            return non_unimodal(chi) if real(chi) else chi > chi_f

        with contextlib.suppress(CriticalSearchError):
            lo, hi = search(guided)
            if real(lo) and real(hi):
                return 0.5 * (lo + hi)

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
    """
    if g <= 0.0 or n <= 0.0 or maturity <= 0.0:
        raise DomainError("g, n and maturity must be positive")
    p = DEFAULT_CRITICAL_FIT
    rho = n / (g * g * maturity)
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
    if mode == "formula" and (params.chi == 1.0 or _in_calibrated_box(g, n, maturity)):
        chi_c, source = chi_critical_formula(g, n, maturity), "formula"
    else:
        chi_c, source = chi_critical_numeric(g, n, maturity, settings), "numeric"
    return AdiabaticVerdict(chi_opt=params.chi, chi_c=chi_c, source=source)


def adiabatic_refit(
    quotes: list[VolQuote],
    free: SmileFitResult,
    chi_max: float,
    settings: ChiSearchSettings | None = None,
) -> tuple[SmileFitResult, DensityReport]:
    """The fit with chi capped at ``chi_max`` if its density is unimodal,
    else at the largest clean cap, to ``settings.tol``, less 0.1%; with the
    final fit's density report on the ``settings`` grid.

    ``free`` is the quotes' unconstrained fit: capped at or above its chi it
    is kept, and a flat one (chi = 1, Gaussian) is kept whatever ``chi_max``
    is. The cap is bisected on ``[1, chi_max]`` on each capped fit's verdict,
    each fit starting from the one before; at chi = 1 the density is
    Gaussian, so that end needs no verdict.
    """
    opts = settings or ChiSearchSettings()
    xs, vols = _quotes_to_arrays(quotes, free.params.maturity)
    fit, report = free, None

    def non_unimodal(chi: float) -> bool:
        nonlocal fit, report
        fit = _capped_fit(xs, vols, free, chi, fit.params)
        report = _verdict(fit.params, opts)
        return not report.unimodal

    if non_unimodal(chi_max if free.params.chi > 1.0 else 1.0):
        lo, _ = _bisect(non_unimodal, 1.0, chi_max, opts.tol)
        # Clearance below the last clean cap, which sits on the verdict's
        # edge: without it, of 400 non-adiabatic benchmark desk refits, 22
        # re-solved to a fit the verdict rejects and one kept a minimum that
        # a Breeden-Litzenberger density from call prices resolves.
        non_unimodal(max(1.0, lo * (1.0 - 1e-3)))
    return fit, report
