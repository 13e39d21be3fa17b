"""Three-parameter volatility smile: curve, derivatives and fitting.

The smile is parametrized by a floor volatility ``g``, a plateau ratio
``chi`` and a squared half-width ``n``:

    sigma(x) = g * [1 + (chi - 1) * u^2 / (u^2 + n)],   u = x + g^2 T / 2

so the curve attains its minimum ``g`` at ``x = -g^2 T / 2``, reaches the
half-height ``g * (1 + (chi - 1)/2)`` at distance ``sqrt(n)`` from the
minimum, and saturates at ``g * chi`` far out on either wing. Numpy
arithmetic runs under ``np.errstate(all="ignore")``, and the finiteness checks
of the fit and of its callers reject a value that leaves the float range.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._lm import levenberg_marquardt
from .bs_core import _as_float_or_array, delta_to_x
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

# A plateau ratio as a function of (g, n): ``pin(g, n)`` returns ``(chi,
# dchi/dln g, dchi/dln n)``, or ``None`` where it has no value.
Pin = Callable[[float, float], tuple[float, float, float] | None]


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
        if self.x is not None and not math.isfinite(self.x):
            raise DomainError(f"quote x must be finite, got {self.x}")
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
    with np.errstate(all="ignore"):
        terms = _sigma_terms(params, np.asarray(x, dtype=float))
    return tuple(_as_float_or_array(v, x) for v in terms)


def _sigma_terms(params: SmileParams, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays of :func:`sigma_derivatives` at the float array ``x``,
    unconverted, for a caller inside ``np.errstate``. Each is an array of
    ``x``'s shape, 0-d for a 0-d ``x``.

    The terms are formed in place, in six arrays of ``x``'s shape, three
    of them the terms, by the elementwise operations of the closed form in
    its order, so a sample depends on its own ``x`` alone, whatever the
    shape::

        u = x + g^2 T / 2,  den = u^2 + n,  slope = 2 g (chi - 1) n
        sigma = g (1 + (chi - 1) u^2 / den)
        sigma' = slope u / den^2
        sigma'' = slope (n - (3 u) u) / (den^2 den)
    """
    g, chi, n = params.g, params.chi, params.n
    height = chi - 1.0
    slope = g * height * 2.0 * n
    u = np.add(x, 0.5 * g * g * params.maturity, out=np.empty_like(x))
    sig = np.multiply(u, u, out=np.empty_like(x))  # u^2 until sig is formed
    den = np.add(sig, n, out=np.empty_like(x))
    sig *= height
    sig /= den
    sig += 1.0
    sig *= g
    den2 = np.multiply(den, den, out=np.empty_like(x))
    d1 = np.multiply(slope, u, out=np.empty_like(x))
    d1 /= den2
    # not 3.0 * u^2: (3.0 * u) * u rounds differently
    d2 = np.multiply(3.0, u, out=np.empty_like(x))
    d2 *= u
    np.subtract(n, d2, out=d2)
    d2 *= slope
    den2 *= den
    d2 /= den2
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
    chi_fixed: Pin | None,
):
    """Vol-space residuals and Jacobian in log-parameters.

    theta = (ln g, ln(chi - 1 + eps), ln n), or (ln g, ln n) when chi is
    pinned by a :data:`Pin`, whose chi-gradient enters the Jacobian by the
    chain rule. Where the pin has no value the residuals are NaN, so the LM
    core rejects the step. A step whose parameters overflow raises
    :class:`ConvergenceError`: the fit has diverged.
    """
    try:
        if chi_fixed is None:
            g, height, n = math.exp(theta[0]), math.exp(theta[1]), math.exp(theta[2])
        else:
            g, n = math.exp(theta[0]), math.exp(theta[1])
    except OverflowError as exc:
        raise ConvergenceError(f"smile fit diverged: {exc}") from exc
    if chi_fixed is not None:
        pinned = chi_fixed(g, n)
        if pinned is None:
            return np.full(xs.size, math.nan), np.full((xs.size, 2), math.nan)
        chi, chi_g, chi_n = pinned
        height = chi - 1.0

    u = xs + 0.5 * g * g * maturity
    den = u * u + n
    w = (u * u) / den
    model = g * (1.0 + height * w)
    r = model - vols

    w_u = 2.0 * n * u / (den * den)  # dw/du
    # u depends on g through the g^2 T / 2 shift
    dm_dg = (1.0 + height * w) + g * height * w_u * (g * maturity)
    dm_dn = -g * height * (u * u) / (den * den)
    dm_dheight = g * w
    if chi_fixed is None:
        jac = np.stack([dm_dg * g, dm_dheight * height, dm_dn * n], axis=1)
    else:
        jac = np.stack([dm_dg * g + dm_dheight * chi_g, dm_dn * n + dm_dheight * chi_n], axis=1)
    return r, jac


def _solve(
    xs: np.ndarray, vols: np.ndarray, start: SmileParams, chi_fixed: Pin | None
) -> SmileFitResult:
    """LM fit from ``start`` of (g, chi, n), or of (g, n) with chi pinned by
    the :data:`Pin` ``chi_fixed``. A g or n that underflows to
    zero, a pin with no value at the fitted (g, n), or a fitted smile whose
    derivatives are not finite at its own minimum, raises
    :class:`ConvergenceError`: the fit diverged, the input need not be at fault.
    The LM core rejects a trial step whose cost is not finite."""
    logs = [math.log(start.g), math.log(start.n)]
    if chi_fixed is None:
        logs.insert(1, math.log(max(start.chi - 1.0, 0.0) + _CHI_FLOOR_EPS))
    maturity = start.maturity
    with np.errstate(all="ignore"):
        result = levenberg_marquardt(
            lambda th: _residuals_and_jacobian(th, xs, vols, maturity, chi_fixed),
            np.array(logs),
        )
        values = [float(v) for v in np.exp(result.theta)]
        g, n = values[0], values[-1]
        if g == 0.0 or n == 0.0:
            raise ConvergenceError(f"smile fit diverged: g={g}, n={n} underflowed to zero")
        if chi_fixed is None:
            chi = 1.0 + values[1]
        else:
            pinned = chi_fixed(g, n)
            if pinned is None:
                raise ConvergenceError(f"smile fit diverged: no pinned chi at g={g}, n={n}")
            chi = pinned[0]
        params = SmileParams(g=g, chi=float(chi), n=n, maturity=maturity)
        if not all(map(math.isfinite, sigma_derivatives(params, params.x_min))):
            raise ConvergenceError(
                f"smile fit diverged: collapsed to g={g}, chi={chi}, n={n}, "
                "whose derivatives are not finite"
            )
    return SmileFitResult(
        params,
        residual_rms=math.sqrt(2.0 * result.cost / xs.size),
        converged=result.converged,
        constrained=chi_fixed is not None,
        iterations=result.iterations,
    )


def fit_smile(quotes: list[VolQuote], maturity: float) -> SmileFitResult:
    """Least-squares fit of the smile to observed vol quotes.

    Minimizes the unweighted sum of squared volatility residuals over
    (g, chi, n) via damped Gauss-Newton on (ln g, ln(chi-1), ln n), which
    enforces positivity without explicit bounds. Delta-quoted points are
    converted to x once, using each quote's own vol; the conversion is not
    iterated against the fitted curve. The fit starts at the lowest vol,
    chi = highest / lowest vol and a half-width of a quarter of the quoted
    span.

    A flat quote set (all vols equal) short-circuits to the exact chi = 1
    solution. Raises :class:`ConvergenceError` if a start chi or half-width
    overflows, or the iteration diverges beyond the range of floats, by
    overflow or by underflow, or collapses to a smile whose derivatives are
    not finite.
    """
    xs, vols = _quotes_to_arrays(quotes, maturity)
    with np.errstate(all="ignore"):
        quarter = float(xs.max() - xs.min()) / 4.0  # inf, no warning
    try:
        n0 = max(quarter**2, 1e-12)
    except OverflowError:
        n0 = math.inf
    if n0 == math.inf:
        raise ConvergenceError(f"smile fit diverged: start n = {quarter}^2 overflows")
    if float(vols.max() - vols.min()) == 0.0:
        params = SmileParams(g=float(vols[0]), chi=1.0, n=n0, maturity=maturity)
        return SmileFitResult(params, residual_rms=0.0, converged=True, iterations=0)
    g0, chi0 = float(vols.min()), float(vols.max()) / float(vols.min())  # inf, no warning
    if chi0 == math.inf:
        raise ConvergenceError(f"smile fit diverged: start chi {float(vols.max())} / {g0} overflows")
    return _solve(xs, vols, SmileParams(g0, chi0, n0, maturity), None)


def constrained_fit_smile(
    quotes: list[VolQuote], start: SmileParams, pin: Pin
) -> SmileFitResult:
    """The least-squares fit of (g, n) from ``start``, with chi pinned by
    ``pin``: a fixed cap ``c`` is the pin ``lambda g, n: (c, 0.0, 0.0)``.
    Raises :class:`ConvergenceError` as :func:`_solve` does."""
    return _solve(*_quotes_to_arrays(quotes, start.maturity), start, pin)


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
