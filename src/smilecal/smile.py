"""Three-parameter volatility smile: curve, derivatives and fitting.

The smile is parametrized by a floor volatility ``g``, a plateau ratio
``chi`` and a squared half-width ``n``:

    sigma(x) = g * [1 + (chi - 1) * u^2 / (u^2 + n)],   u = x + g^2 T / 2

so the curve attains its minimum ``g`` at ``x = -g^2 T / 2``, reaches the
half-height ``g * (1 + (chi - 1)/2)`` at distance ``sqrt(n)`` from the
minimum, and saturates at ``g * chi`` far out on either wing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lm import levenberg_marquardt
from .bs_core import delta_to_x
from .errors import ConvergenceError, DomainError

__all__ = [
    "SmileParams",
    "VolQuote",
    "SmileFitResult",
    "ScalingFitResult",
    "sigma_of_x",
    "sigma_derivatives",
    "fit_smile",
    "constrained_fit_smile",
    "scaling_fit",
]

_CHI_FLOOR_EPS = 1e-12  # guards log(chi - 1) at the flat-smile boundary


@dataclass(frozen=True)
class SmileParams:
    """Smile parameters (g, chi, n) at a fixed maturity.

    Invariants: g > 0, chi >= 1, n > 0, maturity > 0, and consequently
    g <= sigma(x) <= g * chi everywhere.
    """

    g: float
    chi: float
    n: float
    maturity: float

    def __post_init__(self) -> None:
        if not (self.g > 0.0 and math.isfinite(self.g)):
            raise DomainError(f"g must be positive, got {self.g}")
        if not (self.chi >= 1.0 and math.isfinite(self.chi)):
            raise DomainError(f"chi must be >= 1, got {self.chi}")
        if not (self.n > 0.0 and math.isfinite(self.n)):
            raise DomainError(f"n must be positive, got {self.n}")
        if not (self.maturity > 0.0 and math.isfinite(self.maturity)):
            raise DomainError(f"maturity must be positive, got {self.maturity}")

    @property
    def x_min(self) -> float:
        """Location of the smile minimum."""
        return -0.5 * self.g * self.g * self.maturity

    @property
    def sigma_plateau(self) -> float:
        """Limiting volatility far from the money."""
        return self.g * self.chi

    @property
    def rho(self) -> float:
        """Width ratio n / (g^2 T), the natural scale-free shape parameter."""
        return self.n / (self.g * self.g * self.maturity)


@dataclass(frozen=True)
class VolQuote:
    """One observed smile point, quoted either in delta or in log-return x.

    Exactly one of ``x`` and ``delta`` must be given.
    """

    vol: float
    x: float | None = None
    delta: float | None = None

    def __post_init__(self) -> None:
        if self.vol <= 0.0 or not math.isfinite(self.vol):
            raise DomainError(f"quoted vol must be positive, got {self.vol}")
        if (self.x is None) == (self.delta is None):
            raise DomainError("exactly one of x and delta must be set")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise DomainError(f"delta must lie in (0, 1), got {self.delta}")

    def to_x(self, maturity: float) -> float:
        """Log-return coordinate; delta quotes convert with their own vol."""
        if self.x is not None:
            return float(self.x)
        return delta_to_x(self.delta, self.vol, maturity)


@dataclass(frozen=True)
class SmileFitResult:
    params: SmileParams
    residual_rms: float
    converged: bool
    constrained: bool = False
    iterations: int = 0


@dataclass(frozen=True)
class ScalingFitResult:
    """Intercept of ln(g^2 T) = ln(n) + c across a set of fitted smiles."""

    c: float
    c_stderr: float
    n_smiles: int = 0


def sigma_of_x(params: SmileParams, x: float | np.ndarray) -> float | np.ndarray:
    """Smile volatility at log-return x."""
    sig, _, _ = sigma_derivatives(params, x)
    return sig


def sigma_derivatives(
    params: SmileParams, x: float | np.ndarray
) -> tuple[float | np.ndarray, float | np.ndarray, float | np.ndarray]:
    """Volatility and its first two x-derivatives, in closed form.

    Returns
    -------
    (sigma, dsigma_dx, d2sigma_dx2)
        At the smile minimum the slope vanishes and the curvature equals
        ``2 g (chi - 1) / n``.
    """
    x_arr = np.asarray(x, dtype=float)
    g, chi, n = params.g, params.chi, params.n
    u = x_arr + 0.5 * g * g * params.maturity
    den = u * u + n
    height = chi - 1.0
    sig = g * (1.0 + height * (u * u) / den)
    d1 = g * height * 2.0 * n * u / (den * den)
    d2 = g * height * 2.0 * n * (n - 3.0 * u * u) / (den * den * den)
    if np.ndim(x) == 0:
        return float(sig), float(d1), float(d2)
    return sig, d1, d2


def _quotes_to_arrays(
    quotes: list[VolQuote], maturity: float
) -> tuple[np.ndarray, np.ndarray]:
    if len(quotes) < 4:
        raise DomainError(f"need at least 4 quotes to fit 3 parameters, got {len(quotes)}")
    xs = np.array([q.to_x(maturity) for q in quotes], dtype=float)
    vols = np.array([q.vol for q in quotes], dtype=float)
    order = np.argsort(xs)
    xs, vols = xs[order], vols[order]
    if np.any(np.diff(xs) <= 0.0):
        raise DomainError("quote coordinates must be distinct after delta conversion")
    return xs, vols


def _residuals_and_jacobian(
    theta: np.ndarray, xs: np.ndarray, vols: np.ndarray, maturity: float,
    chi_fixed: float | None,
):
    """Vol-space residuals and Jacobian in log-parameters.

    theta = (ln g, ln(chi - 1 + eps), ln n), or (ln g, ln n) when chi is
    pinned by an active constraint. A step whose parameters overflow
    raises :class:`ConvergenceError`: the fit has diverged.
    """
    try:
        if chi_fixed is None:
            g, height, n = math.exp(theta[0]), math.exp(theta[1]), math.exp(theta[2])
        else:
            g, n = math.exp(theta[0]), math.exp(theta[1])
            height = chi_fixed - 1.0
    except OverflowError as exc:
        raise ConvergenceError(f"smile fit diverged: {exc}") from exc

    u = xs + 0.5 * g * g * maturity
    den = u * u + n
    w = (u * u) / den
    model = g * (1.0 + height * w)
    r = model - vols

    w_u = 2.0 * n * u / (den * den)  # dw/du
    # u depends on g through the g^2 T / 2 shift
    dm_dg = (1.0 + height * w) + g * height * w_u * (g * maturity)
    dm_dn = -g * height * (u * u) / (den * den)
    if chi_fixed is None:
        dm_dheight = g * w
        jac = np.stack([dm_dg * g, dm_dheight * height, dm_dn * n], axis=1)
    else:
        jac = np.stack([dm_dg * g, dm_dn * n], axis=1)
    return r, jac


def _fitted_params(g, chi, n, maturity: float) -> SmileParams:
    """Smile at the solver's log-parameters. A g or n that underflowed to
    zero raises :class:`ConvergenceError`: the fit has diverged, the input
    need not be at fault."""
    g, n = float(g), float(n)
    if g == 0.0 or n == 0.0:
        raise ConvergenceError(f"smile fit diverged: g={g}, n={n} underflowed to zero")
    return SmileParams(g=g, chi=float(chi), n=n, maturity=maturity)


def _default_init(xs: np.ndarray, vols: np.ndarray, maturity: float) -> SmileParams:
    g0 = float(vols.min())
    chi0 = float(vols.max() / vols.min())
    span = float(xs.max() - xs.min())
    n0 = (span / 4.0) ** 2
    return SmileParams(g=g0, chi=max(chi0, 1.0), n=max(n0, 1e-12), maturity=maturity)


def fit_smile(
    quotes: list[VolQuote],
    maturity: float,
    init: SmileParams | None = None,
    max_iter: int = 200,
    rel_tol: float = 1e-10,
) -> SmileFitResult:
    """Least-squares fit of the smile to observed vol quotes.

    Minimizes the unweighted sum of squared volatility residuals over
    (g, chi, n) via damped Gauss-Newton on (ln g, ln(chi-1), ln n), which
    enforces positivity without explicit bounds. Delta-quoted points are
    converted to x once, using each quote's own vol; the conversion is not
    iterated against the fitted curve.

    A flat quote set (all vols equal) short-circuits to the exact chi = 1
    solution. Raises :class:`ConvergenceError` if the iteration diverges
    beyond the range of floats, by overflow or by underflow.
    """
    xs, vols = _quotes_to_arrays(quotes, maturity)

    if float(vols.max() - vols.min()) == 0.0:
        params = SmileParams(
            g=float(vols[0]),
            chi=1.0,
            n=max((float(xs.max() - xs.min()) / 4.0) ** 2, 1e-12),
            maturity=maturity,
        )
        return SmileFitResult(params, residual_rms=0.0, converged=True, iterations=0)

    start = init if init is not None else _default_init(xs, vols, maturity)
    theta0 = np.array(
        [
            math.log(start.g),
            math.log(max(start.chi - 1.0, 0.0) + _CHI_FLOOR_EPS),
            math.log(start.n),
        ]
    )
    result = levenberg_marquardt(
        lambda th: _residuals_and_jacobian(th, xs, vols, maturity, None),
        theta0,
        max_iter=max_iter,
        rel_tol=rel_tol,
    )
    g, height, n = np.exp(result.theta)
    params = _fitted_params(g, 1.0 + height, n, maturity)
    rms = math.sqrt(2.0 * result.cost / xs.size)
    return SmileFitResult(
        params,
        residual_rms=rms,
        converged=result.converged,
        iterations=result.iterations,
    )


def constrained_fit_smile(
    quotes: list[VolQuote],
    maturity: float,
    chi_max: float,
    init: SmileParams | None = None,
    max_iter: int = 200,
    rel_tol: float = 1e-10,
) -> SmileFitResult:
    """Fit with the plateau ratio capped at ``chi_max``.

    If the unconstrained optimum already satisfies the cap the result is
    identical to :func:`fit_smile`. Otherwise chi is clamped to the bound
    and (g, n) are re-optimized; for a single scalar bound this active-set
    treatment is exact.
    """
    if chi_max < 1.0:
        raise DomainError(f"chi_max must be >= 1, got {chi_max}")
    free = fit_smile(quotes, maturity, init=init, max_iter=max_iter, rel_tol=rel_tol)
    if free.params.chi <= chi_max:
        return free

    xs, vols = _quotes_to_arrays(quotes, maturity)
    if chi_max == 1.0:
        # degenerate cap: best flat curve is the plain mean of the vols
        g = float(vols.mean())
        params = SmileParams(g=g, chi=1.0, n=free.params.n, maturity=maturity)
        rms = math.sqrt(float(np.mean((vols - g) ** 2)))
        return SmileFitResult(params, residual_rms=rms, converged=True, constrained=True)

    theta0 = np.array([math.log(free.params.g), math.log(free.params.n)])
    result = levenberg_marquardt(
        lambda th: _residuals_and_jacobian(th, xs, vols, maturity, chi_max),
        theta0,
        max_iter=max_iter,
        rel_tol=rel_tol,
    )
    g, n = np.exp(result.theta)
    params = _fitted_params(g, chi_max, n, maturity)
    rms = math.sqrt(2.0 * result.cost / xs.size)
    return SmileFitResult(
        params,
        residual_rms=rms,
        converged=result.converged,
        constrained=True,
        iterations=result.iterations,
    )


def scaling_fit(smiles: list[SmileParams]) -> ScalingFitResult:
    """Intercept-only regression of ln(g^2 T) on ln(n) with unit slope.

    Estimates the constant ``c`` in ``ln(g^2 T) = ln(n) + c`` across
    independently fitted smiles, with its standard error.
    """
    if len(smiles) < 3:
        raise DomainError(f"scaling fit needs at least 3 smiles, got {len(smiles)}")
    offsets = np.array(
        [math.log(p.g * p.g * p.maturity) - math.log(p.n) for p in smiles], dtype=float
    )
    c = float(offsets.mean())
    stderr = float(offsets.std(ddof=1) / math.sqrt(offsets.size))
    return ScalingFitResult(c=c, c_stderr=stderr, n_smiles=len(smiles))
