"""Time each layer of the ``chi_c`` search's hot path in two source trees.

Usage::

    python tools/layer_times.py OLD_SRC NEW_SRC [--rounds N] [--reference LAYER]

``OLD_SRC`` and ``NEW_SRC`` are the ``src`` directories of two checkouts.
One child interpreter per tree imports that tree's smilecal and prepares
the 216-point Table-1 lattice: each point's ``chi_c`` and the smile at it,
its fold, its 4001-point density curve and the slice of that grid that
the tree's own window verdict reads at the fold's ``x``, taken from
``density._window_curve``, so each tree times the samples its verdict reads.
A tree whose ``density`` has no ``_window_curve`` (one from before the
window moved there) cannot be timed here; compare such a tree end to end
with ``tools/bench_pairs.py``.
The children then take turns, ``N`` rounds each (default 20), and which
one goes first alternates: in a round a child times one pass of every
layer over the whole lattice, in-process, so drift on a shared machine
falls on both trees alike. Only one child runs at a time. The layers,
each timed per call:

* ``sigma_derivatives`` on the 4001-point grid;
* ``return_density`` on the 4001-point grid and on the window's slice;
* ``density_curve`` and ``analyze`` of its curve;
* the window verdict at the fold's ``x``: the minima of
  ``stationary_points`` on ``_window_curve``, as the search reads them;
* ``_fold_point`` at the point's ``(rho, s)``;
* one ``sweep`` row: the point's whole ``chi_c`` search;
* ``cli.write_csv`` of the desk's three big layouts at the grid's 4001
  rows, on every 27th point: ``density.csv`` (2 columns),
  ``refit_comparison.csv`` (5, the constrained smile at 0.99 chi) and
  ``bl_oracle.csv`` (6, one of them bools), as the CLI builds them.

Prints, per layer and tree, the median and the quartiles over the rounds of
the mean time per call in microseconds, and the ratio of the medians, new
over old. It also prints that ratio normalised by a reference layer whose
code the trees should share, ``--reference`` (default ``return_density
4001``; for a change to the density kernel, ``_fold_point``): in each round
a layer's time is divided by the reference's time in the same child, and
the column gives the median of those quotients, new over old. On a loaded
shared machine a child can run slower as a whole, and the normalised
ratio cancels that, so that a layer that did not change reads about 1.
Each child writes its CSVs into a temporary directory that it removes
when it exits.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from itertools import product
from pathlib import Path

LAYERS = ("sigma_derivatives 4001", "return_density 4001", "return_density window",
          "density_curve", "analyze", "window verdict", "_fold_point", "sweep row",
          "write density.csv", "write refit_comparison.csv", "write bl_oracle.csv")
WRITE_STRIDE = 27  # the write layers run on every 27th lattice point
# one lattice point: its smile at chi_c, fold x, curve and the grid's slice
Case = namedtuple("Case", "g rho t params reduced x curve part")


def serve(src: str) -> None:
    """In a child interpreter: prepare the lattice on ``src``, then time one
    pass of every layer for each line read, answering with one JSON line."""
    sys.path.insert(0, src)
    import numpy as np

    import smilecal.adiabatic as adiab
    from smilecal import (ChiSearchSettings, MarketEnv, SmileParams, analyze,
                          bl_density_oracle, density_curve, return_density,
                          sigma_derivatives, sigma_of_x, smile_vol_of_strike, x_to_strike)
    from smilecal.cli import write_csv
    from smilecal.density import _window_curve

    if not Path(adiab.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"smilecal was imported from {adiab.__file__}, not from {src}")
    settings = ChiSearchSettings()

    def window(params, x):
        """The curve on the grid slice that the window verdict reads at ``x``."""
        return _window_curve(params, settings.grid_points, settings.span, x,
                             adiab._WINDOW_POINTS)

    cases = []
    for g, rho, t in product(*adiab.default_sweep_axes()):
        n = rho * g * g * t
        params = SmileParams(g=g, chi=adiab.chi_critical_numeric(g, n, t), n=n, maturity=t)
        reduced = adiab._reduced(g, n, t)
        x = adiab._fold_point(*reduced)[0] * g * math.sqrt(t)
        cases.append(Case(g, rho, t, params, reduced, x, density_curve(params),
                          window(params, x).xs))
    calls = {name: (cases, call) for name, call in zip(LAYERS, (
        lambda c: sigma_derivatives(c.params, c.curve.xs),
        lambda c: return_density(c.params, c.curve.xs),
        lambda c: return_density(c.params, c.part),
        lambda c: density_curve(c.params),
        lambda c: analyze(c.curve),
        lambda c: any(p.kind == "minimum"
                      for p in adiab.stationary_points(window(c.params, c.x))),
        lambda c: adiab._fold_point(*c.reduced),
        lambda c: adiab._sweep_one(c.g, c.rho, c.t, settings),
    ))}
    # each written file's header and columns, as cmd_density, cmd_refit and
    # cmd_bl_oracle build them
    files = {name: [] for name in LAYERS[-3:]}
    for c in cases[::WRITE_STRIDE]:
        xs, ps = c.curve.xs, c.curve.ps
        files["write density.csv"].append((["x", "density"], [xs, ps]))
        capped = SmileParams(g=c.g, chi=1.0 + 0.99 * (c.params.chi - 1.0), n=c.params.n,
                             maturity=c.t)
        files["write refit_comparison.csv"].append((
            ["x", "vol_unconstrained", "vol_constrained", "density_unconstrained",
             "density_constrained"],
            [xs, sigma_of_x(c.params, xs), sigma_of_x(capped, xs), ps,
             return_density(capped, xs)]))
        env = MarketEnv(spot=100.0, rate=0.0, maturity=c.t)
        strikes = x_to_strike(env, xs)
        oracle, err = bl_density_oracle(env, smile_vol_of_strike(env, c.params), strikes)
        oracle_x = oracle * strikes
        rel = np.abs(oracle_x - ps) / np.maximum(np.abs(ps), 1e-300)
        files["write bl_oracle.csv"].append((
            ["strike", "x", "density_oracle", "density_analytic", "rel_diff", "flagged"],
            [strikes, xs, oracle_x, ps, rel, (err * strikes) > 1e-3 * np.abs(oracle_x)]))
    with tempfile.TemporaryDirectory() as tmp:
        for name, layouts in files.items():
            path = Path(tmp) / name.split()[1]
            calls[name] = (layouts, lambda layout, path=path: write_csv(path, *layout))
        print(json.dumps(adiab.__file__), flush=True)
        for _ in sys.stdin:
            out = {}
            for name, (items, call) in calls.items():
                start = time.perf_counter()
                for item in items:
                    call(item)
                out[name] = (time.perf_counter() - start) / len(items)
            print(json.dumps(out), flush=True)


def _summary(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median * 1e6, q1 * 1e6, q3 * 1e6


def _answer(child: subprocess.Popen):
    line = child.stdout.readline()
    if not line:
        raise SystemExit(f"the child for {child.args[-1]} exited with code {child.wait()}")
    return json.loads(line)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--reference", choices=LAYERS, default="return_density 4001",
                        help="the layer the normalised ratio divides by")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    children = [subprocess.Popen([sys.executable, __file__, "--serve", src],
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
                for src in (args.old_src, args.new_src)]
    samples: list[dict[str, list[float]]] = [{name: [] for name in LAYERS} for _ in children]
    try:
        for label, child in zip(("old", "new"), children):
            print(f"{label}: {_answer(child)}")
        for k in range(args.rounds):
            for i in ((0, 1) if k % 2 == 0 else (1, 0)):
                children[i].stdin.write("go\n")
                children[i].stdin.flush()
                for name, value in _answer(children[i]).items():
                    samples[i][name].append(value)
    finally:
        for child in children:
            child.stdin.close()
            child.wait()
    print(f"{args.rounds} rounds per tree over the 216-point Table-1 lattice; "
          "us per call, median [quartiles]")
    print(f"normalised by {args.reference}")
    print(f"{'layer':<28}{'old':>28}{'new':>28}{'new/old':>9}{'norm':>9}")
    for name in LAYERS:
        old, new = (_summary(s[name]) for s in samples)
        cells = [f"{m:9.1f} [{a:7.1f}, {b:7.1f}]" for m, a, b in (old, new)]
        old_rel, new_rel = (statistics.median(t / r for t, r in zip(s[name], s[args.reference]))
                            for s in samples)
        print(f"{name:<28}{cells[0]:>28}{cells[1]:>28}{new[0] / old[0]:9.3f}"
              f"{new_rel / old_rel:9.3f}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--serve"]:
        serve(sys.argv[2])
    else:
        sys.exit(main(sys.argv[1:]))
