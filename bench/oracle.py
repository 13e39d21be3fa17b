"""Reference computations made apart from the package under test.

Nothing here imports ``smilecal``: the smile formula, Black-Scholes prices
and the density verdict are written out again so that the benchmark can
check the program's answers against an independent route.

The density is the discounted second strike-difference of Black-Scholes
prices under the smile formula (Breeden-Litzenberger), mapped to the
log-return axis ``x = ln(K/S0) - rT`` by ``p(x) = K * q(K)``. With S0 = 1
and r = 0 the return density depends on (g, chi, n, T) only.
"""

from __future__ import annotations

import math

import numpy as np

GRID_POINTS = 4001
GRID_SPAN = 10.0  # half-width in units of g*chi*sqrt(T) around the smile minimum
STEP_FRAC = 0.02  # stencil half-width as a share of the floor width g*sqrt(T)
NEG_REL = 1e-9  # negativity threshold relative to the peak
MINIMA_FLOOR_REL = 1e-9  # ignore slope signs where the density is below this share of the peak

# packaged critical-ratio surface: the acceptance bands of its constants
# and the constants themselves, used only to place generated smiles away
# from the transition
SURFACE_BANDS = {
    "alpha": (1.4373, 0.05),
    "beta": (0.2787, 0.02),
    "gamma": (-0.1738, 0.05),
    "delta": (0.4683, 0.05),
}


def smile_vol(g: float, chi: float, n: float, t: float, x):
    """sigma(x) = g [1 + (chi - 1) u^2 / (u^2 + n)], u = x + g^2 T / 2."""
    u = np.asarray(x, dtype=float) + 0.5 * g * g * t
    return g * (1.0 + (chi - 1.0) * u * u / (u * u + n))


def surface_chi_c(g: float, n: float, t: float) -> float:
    """Critical ratio from the packaged surface constants."""
    c = {k: v[0] for k, v in SURFACE_BANDS.items()}
    rho = n / (g * g * t)
    return c["alpha"] * rho ** c["beta"] + c["gamma"] * math.sqrt(t) * g * rho ** c["delta"]


def _otm_price(strike: np.ndarray, vol: np.ndarray, t: float, put: np.ndarray) -> np.ndarray:
    # out-of-the-money side keeps the second difference free of cancellation;
    # calls and puts share the same second strike-derivative. scipy loads
    # here, after the timed region, so that the benchmark process holds no
    # module the package itself does not import
    from scipy.special import ndtr

    s = vol * math.sqrt(t)
    d1 = (-np.log(strike) + 0.5 * s * s) / s
    d2 = d1 - s
    call = ndtr(d1) - strike * ndtr(d2)
    put_v = strike * ndtr(-d2) - ndtr(-d1)
    return np.where(put, put_v, call)


def fd_density(g: float, chi: float, n: float, t: float, points: int = GRID_POINTS):
    """Return density on a uniform x-grid by Richardson-extrapolated second
    strike-differences of smile-priced options. Returns (xs, ps)."""
    scale = g * chi * math.sqrt(t)
    x_min = -0.5 * g * g * t
    xs = np.linspace(x_min - GRID_SPAN * scale, x_min + GRID_SPAN * scale, points)
    k = np.exp(xs)
    put = k < 1.0

    def second_diff(h):
        lo, hi = k - h, k + h
        p_lo = _otm_price(lo, smile_vol(g, chi, n, t, np.log(lo)), t, put)
        p_mid = _otm_price(k, smile_vol(g, chi, n, t, xs), t, put)
        p_hi = _otm_price(hi, smile_vol(g, chi, n, t, np.log(hi)), t, put)
        return (p_lo - 2.0 * p_mid + p_hi) / (h * h)

    h = k * STEP_FRAC * g * math.sqrt(t)
    coarse, fine = second_diff(h), second_diff(0.5 * h)
    q = (4.0 * fine - coarse) / 3.0
    return xs, q * k


def verdict(ps: np.ndarray) -> int:
    """Exit-code style verdict of a sampled density: 4 negative, 1 interior
    minimum, 0 clean."""
    peak = float(np.max(np.abs(ps)))
    if np.any(ps < -NEG_REL * peak):
        return 4
    slope = np.sign(np.diff(ps))
    slope[ps[:-1] < MINIMA_FLOOR_REL * peak] = 0.0
    signs = slope[slope != 0.0]
    if np.any((signs[:-1] < 0.0) & (signs[1:] > 0.0)):
        return 1
    return 0


def density_verdict(g: float, chi: float, n: float, t: float) -> int:
    return verdict(fd_density(g, chi, n, t)[1])


def gaussian_density(vol: float, t: float, xs: np.ndarray) -> np.ndarray:
    """Flat-vol return density: normal with mean -vol^2 T / 2."""
    var = vol * vol * t
    return np.exp(-((xs + 0.5 * var) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def smile_param_stderr(
    g: float, chi: float, n: float, t: float, xs: np.ndarray, noise: float
) -> np.ndarray:
    """Asymptotic standard errors of (g, chi, n) from a least-squares fit of
    the smile to quotes at ``xs`` with vol noise of sd ``noise``."""
    theta = np.array([g, chi, n])
    jac = np.empty((xs.size, 3))
    for i in range(3):
        step = 1e-6 * theta[i]
        up, dn = theta.copy(), theta.copy()
        up[i] += step
        dn[i] -= step
        jac[:, i] = (smile_vol(*up, t, xs) - smile_vol(*dn, t, xs)) / (2.0 * step)
    cov = noise * noise * np.linalg.inv(jac.T @ jac)
    return np.sqrt(np.diag(cov))
