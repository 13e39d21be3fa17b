"""Small damped Gauss-Newton (Levenberg-Marquardt) core.

Shared by the smile fit and the critical-ratio surface calibration.
Deterministic: no randomness, fixed damping schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

ResidJac = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class LMResult:
    theta: np.ndarray
    cost: float  # 0.5 * sum of squared residuals
    iterations: int
    converged: bool


def levenberg_marquardt(
    resid_jac: ResidJac,
    theta0: np.ndarray,
    max_iter: int = 200,
    rel_tol: float = 1e-10,
    lam0: float = 1e-3,
) -> LMResult:
    """Minimize 0.5*||r(theta)||^2 given residuals and their Jacobian.

    Damping multiplies the diagonal of the normal matrix; it shrinks by 3x
    on accepted steps and grows by 10x on rejected ones. Stops when the
    relative cost improvement of an accepted step falls below ``rel_tol``;
    only that stop sets ``converged``. Running out of iterations or damping
    (beyond 1e14) returns the best point found with ``converged=False``.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    lam = lam0
    r, jac = resid_jac(theta)
    cost = 0.5 * float(r @ r)
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        a_mat = jac.T @ jac
        a_mat = a_mat + lam * np.diag(np.diag(a_mat).clip(min=1e-12))
        try:
            step = np.linalg.solve(a_mat, -(jac.T @ r))
        except np.linalg.LinAlgError:
            lam *= 10.0
            if lam > 1e14:
                break
            continue
        r_new, jac_new = resid_jac(theta + step)
        cost_new = 0.5 * float(r_new @ r_new)
        if np.isfinite(cost_new) and cost_new <= cost:
            improvement = (cost - cost_new) / max(cost, 1e-300)
            theta, r, jac, cost = theta + step, r_new, jac_new, cost_new
            lam = max(lam / 3.0, 1e-14)
            if improvement < rel_tol:
                converged = True
                break
        else:
            lam *= 10.0
            if lam > 1e14:
                # no step, however short, lowers the cost: a stall, not convergence
                break

    return LMResult(theta=theta, cost=cost, iterations=iterations, converged=converged)
