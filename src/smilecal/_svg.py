"""Minimal deterministic SVG line plots.

Plots are artifacts rendered from already-written CSV data, never inputs;
a hand-rolled writer keeps the output byte-stable across runs and avoids a
plotting dependency.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

from ._csv import write_whole

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 800, 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 36, 44


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / 4.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mag * mult >= raw:
            step = mag * mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def write_line_plot(
    path: str | Path,
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Write labelled polylines with axes and tick marks to an SVG file."""
    xs_all = [float(v) for _, xs, _ in series for v in xs]
    ys_all = [float(v) for _, _, ys in series for v in ys]
    if not xs_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]

    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_T + plot_h}" x2="{x:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:.6g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{y:.2f}" x2="{_MARGIN_L}" y2="{y:.2f}" '
            'stroke="#444"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{t:.6g}</text>'
        )
    y_mid = _MARGIN_T + plot_h / 2
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 8}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{y_mid:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {y_mid:.1f})">{ylabel}</text>'
    )

    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MARGIN_T + 16 + 16 * i
        parts.append(
            f'<line x1="{_WIDTH - 150}" y1="{ly - 4}" x2="{_WIDTH - 126}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - 120}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )

    parts.append("</svg>")
    write_whole(Path(path), [("\n".join(parts) + "\n").encode("utf-8")])
