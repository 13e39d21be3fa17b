"""Mapping and refitting the critical-ratio surface.
=====================================================

chi_c is located numerically, point by point, by continuation in chi
with bisection on the unimodality verdict. Sweeping a (g, rho, T)
lattice and refitting the power-law surface recovers the packaged
constants; this desk-scale version uses a 4x4x4 lattice to stay quick
(the full 6x6x6 run lives in the acceptance suite).
"""

from pathlib import Path

from smilecal import (
    DEFAULT_CRITICAL_FIT,
    calibrate_critical_fit,
    chi_critical_formula,
    chi_critical_numeric,
    default_sweep_axes,
    sweep,
)
from smilecal._svg import write_line_plot

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

# One point, slowly: the search brackets the loss of unimodality.
g, n, t = 0.1, 0.04, 0.5
numeric = chi_critical_numeric(g, n, t)
formula = chi_critical_formula(g, n, t)
print(f"chi_c at (g={g}, n={n}, T={t}): numeric {numeric:.4f}, "
      f"surface {formula:.4f} ({abs(formula / numeric - 1):.2%} apart)")

# Now the lattice: one search per point, in lattice order.
axes = default_sweep_axes(4, 4, 4)
rows = sweep(*axes)
ok = [r for r in rows if r.status == "ok"]
print(f"\nswept {len(rows)} lattice points, {len(ok)} ok")

result = calibrate_critical_fit(rows)
p, e = result.params, result.stderr
ref = DEFAULT_CRITICAL_FIT
print("refitted surface constants (packaged values in parentheses):")
print(f"  alpha = {p.alpha:+.4f} +- {e[0]:.4f}   ({ref.alpha:+.4f})")
print(f"  beta  = {p.beta:+.4f} +- {e[1]:.4f}   ({ref.beta:+.4f})")
print(f"  gamma = {p.gamma:+.4f} +- {e[2]:.4f}   ({ref.gamma:+.4f})")
print(f"  delta = {p.delta:+.4f} +- {e[3]:.4f}   ({ref.delta:+.4f})")
print(f"  mse   = {result.mse:.2e}")

# Phase-boundary slices: chi_c against n at fixed (g, T). Above each
# line the density develops minima; below it stays unimodal.
series = []
for g_fixed in (axes[0][0], axes[0][-1]):
    t_fixed = axes[2][2]
    pts = sorted(
        (r.n, r.chi_c) for r in ok if r.g == g_fixed and r.maturity == t_fixed
    )
    series.append(
        (f"g={g_fixed:.3g}, T={t_fixed:.3g}", [a for a, _ in pts], [b for _, b in pts])
    )
write_line_plot(
    OUT / "phase_boundary.svg",
    series,
    title="critical plateau ratio vs squared half-width",
    xlabel="n",
    ylabel="chi_c",
)
print(f"\nwrote {OUT / 'phase_boundary.svg'}")
