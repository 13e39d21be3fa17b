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
from .density import STANDARD_GRID_POINTS, STANDARD_SPAN, analyze, density_curve
from .errors import (
    CriticalSearchError,
    DomainError,
    IdentifiabilityError,
    SmilecalError,
)
from .smile import SmileParams

__all__ = [
    "CriticalFitParams",
    "CriticalFitResult",
    "SweepRow",
    "AdiabaticVerdict",
    "ChiSearchSettings",
    "DEFAULT_CRITICAL_FIT",
    "TABLE_RANGES",
    "square_well_critical_x",
    "chi_critical_numeric",
    "chi_critical_formula",
    "default_sweep_axes",
    "sweep_points",
    "sweep",
    "calibrate_critical_fit",
    "adiabatic_check",
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


@dataclass(frozen=True)
class ChiSearchSettings:
    """Grid and bracket settings for the numerical chi_c search."""

    chi_start: float = 1.01
    step: float = 0.05
    tol: float = 1e-4
    chi_max: float = 20.0
    grid_points: int = STANDARD_GRID_POINTS
    span: float = STANDARD_SPAN


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


def _is_non_unimodal(params: SmileParams, settings: ChiSearchSettings) -> bool:
    curve = density_curve(params, points=settings.grid_points, span=settings.span)
    return not analyze(curve).unimodal


def chi_critical_numeric(
    g: float,
    n: float,
    maturity: float,
    settings: ChiSearchSettings | None = None,
) -> float:
    """Smallest plateau ratio whose density loses unimodality.

    A coarse upward scan in chi brackets the transition, then bisection on
    the unimodality verdict narrows it to ``settings.tol``. The verdict is
    monotone in chi on the bracket by construction of the scan; the
    endpoints are re-checked before bisecting and a violation aborts.

    Raises
    ------
    CriticalSearchError
        If no transition occurs up to ``settings.chi_max``.
    """
    opts = settings or ChiSearchSettings()

    def non_unimodal(chi: float) -> bool:
        return _is_non_unimodal(
            SmileParams(g=g, chi=chi, n=n, maturity=maturity), opts
        )

    lo = 1.0  # the chi -> 1 limit is Gaussian, hence unimodal
    chi = opts.chi_start
    hi = None
    while chi <= opts.chi_max:
        if non_unimodal(chi):
            hi = chi
            break
        lo = chi
        chi += opts.step
    if hi is None:
        raise CriticalSearchError(
            f"density stays unimodal for chi in (1, {opts.chi_max}] "
            f"at g={g}, n={n}, T={maturity}"
        )
    if lo > 1.0 and non_unimodal(lo):
        raise CriticalSearchError(
            f"unimodality verdict not monotone on bracket [{lo}, {hi}]"
        )

    while hi - lo > opts.tol:
        mid = 0.5 * (lo + hi)
        if non_unimodal(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


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


def _sweep_one(task: tuple) -> SweepRow:
    g, rho, maturity, settings = task
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


def sweep_points(
    points,
    settings: ChiSearchSettings | None = None,
    workers: int = 1,
) -> Iterator[SweepRow]:
    """Yield the row of each (g, rho, T) point, in input order.

    Rows are independent pure computations; with ``workers > 1`` they are
    distributed over a process pool. Each row is yielded as soon as it and
    every row before it are done, so a caller can persist rows while the
    rest are still running. A row whose search raises a
    :class:`SmilecalError` or an ``ArithmeticError`` records it in its
    status rather than aborting the sweep; any other exception propagates.
    """
    opts = settings or ChiSearchSettings()
    tasks = ((float(g), float(rho), float(t), opts) for g, rho, t in points)
    if workers <= 1:
        yield from map(_sweep_one, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_sweep_one, tasks, chunksize=4)


def sweep(
    g_values,
    rho_values,
    t_values,
    settings: ChiSearchSettings | None = None,
    workers: int = 1,
) -> list[SweepRow]:
    """Locate chi_c on the (g, rho, T) lattice, one row per point.

    Row order follows the input lattice order (g outermost, T innermost);
    see :func:`sweep_points` for workers and failed rows.
    """
    points = product(g_values, rho_values, t_values)
    return list(sweep_points(points, settings, workers))


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


def calibrate_critical_fit(
    rows: list[SweepRow],
    init: CriticalFitParams | None = None,
) -> CriticalFitResult:
    """Least-squares fit of the critical-ratio surface to sweep rows.

    Rows whose status is not "ok" are dropped. Requires at least 20 valid
    rows spanning a decade in rho; the correction constants (gamma, delta)
    are unidentifiable unless g*sqrt(T) varies across rows, which is
    reported as :class:`IdentifiabilityError`.

    Returns the fitted constants with asymptotic standard errors and the
    residual mean squared error.
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

    start = init or DEFAULT_CRITICAL_FIT
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
    fit: CriticalFitParams | None = None,
    mode: str = "formula",
    settings: ChiSearchSettings | None = None,
) -> AdiabaticVerdict:
    """Compare a fitted smile's plateau ratio against its critical value.

    ``mode="formula"`` evaluates the calibrated surface; ``mode="numeric"``
    runs the bisection search. The verdict is adiabatic iff
    chi_opt < chi_c, in which case the implied density has no spurious
    minima.

    A flat smile (chi exactly 1) passes unconditionally: its density is
    exactly Gaussian, and its fitted width n is arbitrary, which can put
    the surface far outside its calibrated range.
    """
    if mode == "formula":
        chi_c = chi_critical_formula(params.g, params.n, params.maturity, fit)
    elif mode == "numeric":
        chi_c = chi_critical_numeric(params.g, params.n, params.maturity, settings)
    else:
        raise DomainError(f"mode must be 'formula' or 'numeric', got {mode!r}")
    return AdiabaticVerdict(
        chi_opt=params.chi,
        chi_c=chi_c,
        adiabatic=params.chi == 1.0 or params.chi < chi_c,
        source=mode,
    )
