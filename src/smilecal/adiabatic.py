"""Critical plateau ratio: when does a smile's density stop being unimodal.

For fixed (g, n, T) the implied return density is unimodal for plateau
ratios chi close to 1 and develops spurious interior minima once chi
crosses a critical value chi_c(g, n, T). This module locates chi_c three
ways:

* a closed form for the square-well caricature of the smile
  (:func:`square_well_critical_x`),
* a numerical continuation in chi driven by the density module's
  unimodality verdict (:func:`chi_critical_numeric`),
* an empirical power-law surface in rho = n/(g^2 T) and g*sqrt(T)
  calibrated against sweeps of the numerical search
  (:func:`chi_critical_formula`, :func:`calibrate_critical_fit`).

:func:`adiabatic_refit` enforces the bound on a smile fit.

Note on the surface's second term: the correction is stored with a
negative coefficient and *added*, i.e. larger g*sqrt(T) lowers the
critical ratio. Sweeps over the full parameter box confirm this direction;
see the sweep cross-validation tests.
"""

from __future__ import annotations

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
    chi_opt: float
    chi_c: float
    adiabatic: bool
    source: str  # "formula" | "numeric"


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


def _in_calibrated_box(g: float, n: float, maturity: float) -> bool:
    try:
        rho = n / (g * g * maturity)
        s = g * math.sqrt(maturity)
    except (ZeroDivisionError, ValueError):
        return False
    # NaN fails every comparison, so a non-finite point is outside
    return _BOX_RHO[0] <= rho <= _BOX_RHO[1] and _BOX_S[0] <= s <= _BOX_S[1]


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

    Inside the calibrated (rho, s) box the scan makes no verdicts below
    0.97 times :func:`chi_critical_formula`: it steps through those scan
    points by the same float additions and starts its verdicts at the
    last one, so it reaches the bracket, and the result, of the full
    scan. This rests on the verdict being unimodal below chi_c there,
    which the tests check on a sub-lattice of the box, and on the
    surface lying within 1% of chi_c on every Table-1 point, which the
    tests check by comparing all of them with the full scan. If the
    first verdict is already non-unimodal, the full scan runs instead;
    outside the box it always does.

    Raises
    ------
    CriticalSearchError
        If no transition occurs up to ``settings.chi_max``.
    """
    opts = settings or ChiSearchSettings()

    def non_unimodal(chi: float) -> bool:
        return not _verdict(SmileParams(g=g, chi=chi, n=n, maturity=maturity), opts).unimodal

    def scan(chi: float) -> tuple[float, float]:
        lo = 1.0  # the chi -> 1 limit is Gaussian, hence unimodal
        while chi <= opts.chi_max:
            if non_unimodal(chi):
                return lo, chi
            lo = chi
            chi += SCAN_STEP
        raise CriticalSearchError(
            f"density stays unimodal for chi in (1, {opts.chi_max}] "
            f"at g={g}, n={n}, T={maturity}"
        )

    start = SCAN_START
    if _in_calibrated_box(g, n, maturity):
        target = min(0.97 * chi_critical_formula(g, n, maturity), opts.chi_max)
        while start + SCAN_STEP < target:
            start += SCAN_STEP
    lo, hi = scan(start)
    if hi == start and start != SCAN_START:
        lo, hi = scan(SCAN_START)

    lo, hi = _bisect(non_unimodal, lo, hi, opts.tol)
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


def chi_critical_formula(
    g: float,
    n: float,
    maturity: float,
    fit: CriticalFitParams | None = None,
) -> float:
    """Closed-form critical ratio from the calibrated surface.

    ``chi_c = alpha * rho**beta + gamma * sqrt(T) * g * rho**delta`` with
    rho = n / (g^2 T). Defaults to the packaged constants.
    """
    if g <= 0.0 or n <= 0.0 or maturity <= 0.0:
        raise DomainError("g, n and maturity must be positive")
    p = fit or DEFAULT_CRITICAL_FIT
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
    search. ``source`` says which gave ``chi_c``. The verdict is adiabatic
    iff chi_opt < chi_c, in which case the implied density has no spurious
    minima.

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
    return AdiabaticVerdict(
        chi_opt=params.chi,
        chi_c=chi_c,
        adiabatic=params.chi == 1.0 or params.chi < chi_c,
        source=source,
    )


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
