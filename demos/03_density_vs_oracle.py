"""The smile-implied density, two independent ways.
====================================================

A strike-dependent vol turns the flat-vol Gaussian into a Gaussian
times a curvature factor. The same density is also the discounted
second strike-derivative of the call price, which we compute by finite
differences -- a genuinely independent route. This script overlays both
and shows the pathologies a too-fast smile produces.
"""

from pathlib import Path

import numpy as np

from smilecal import (
    MarketEnv,
    SmileParams,
    analyze,
    bl_density_oracle,
    density_curve,
    smile_vol_of_strike,
)
from smilecal._svg import write_line_plot

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

# A classic pathological configuration: plateau ratio 2.7 is far above
# critical for this width, so the density grows side lobes.
bad = SmileParams(g=0.1, chi=2.7, n=0.04, maturity=0.5)
curve = density_curve(bad)
report = analyze(curve)
print(f"chi = {bad.chi}: unimodal = {report.unimodal}")
for pt in report.minima:
    print(f"  relative minimum at x = {pt.x:+.4f} (density {pt.p:.4f})")
print(f"  total mass      = {report.total_mass:.12f}")
print(f"  martingale gap  = {report.martingale_gap:.2e}")

# Cross-check the closed form against the finite-difference oracle on
# the part of the grid that carries real probability.
env = MarketEnv(spot=1.0, rate=0.0, maturity=bad.maturity)
keep = curve.ps > 1e-3 * curve.ps.max()
strikes = np.exp(curve.xs[keep])
oracle = bl_density_oracle(env, smile_vol_of_strike(env, bad), strikes)[0] * strikes
rel = np.max(np.abs(oracle - curve.ps[keep]) / curve.ps[keep])
print(f"\nclosed form vs strike-space oracle: max rel diff = {rel:.2e}")

write_line_plot(
    OUT / "density_vs_oracle.svg",
    [
        ("closed form", curve.xs[keep], curve.ps[keep]),
        ("finite-difference oracle", curve.xs[keep], oracle),
    ],
    title="smile-implied density, two routes",
    xlabel="x",
    ylabel="p(x)",
)
print(f"wrote {OUT / 'density_vs_oracle.svg'}")

# Push the smile harder and the density goes negative: butterfly
# arbitrage, not just an ugly shape.
violent = SmileParams(g=0.2, chi=10.0, n=1e-4, maturity=0.5)
vreport = analyze(density_curve(violent))
print(f"\nchi = {violent.chi}, n = {violent.n}: "
      f"{len(vreport.negative_regions)} negative region(s)")
for lo, hi in vreport.negative_regions:
    print(f"  p < 0 on [{lo:+.4f}, {hi:+.4f}]")
