"""Check that two source trees of smilecal give byte-identical outputs.

Usage::

    python tools/same_outputs.py OLD_SRC NEW_SRC

``OLD_SRC`` and ``NEW_SRC`` are the ``src`` directories of two checkouts;
each tree's demos are read from the ``demos`` directory next to its
``src``. One fresh interpreter per tree runs the same command set in its
own scratch directory, with the same relative input and output paths:

* the desk commands of ``bench/gen.py`` seeds 3 and 7, without ``--svg``
  and with it on each command that reads it (all but ``bl-oracle``);
* every ``refit`` of the desk rounds of seeds 1-40;
* a 3x3x3 ``sweep`` followed by a ``calibrate`` of its CSV, the same
  27-point ``sweep`` with ``--svg``, with a config file setting
  ``chi-tol=1e-6`` and with ``--span 20``, where the fold is off by more
  than the final bracket and the search retries with real verdicts
  around it, with ``--grid 16001`` and with ``--span 4 --grid 101``, the
  finest and the coarsest grid spacing for the window verdict's slice of
  the grid, and the 216-point Table-1 ``sweep`` with the default
  settings, with ``--grid 8001`` and with a config file setting
  ``chi-tol=0.01``;
* the 72-point ``sweep`` with g in 3e-4..3 and rho in 0.3..60 at T = 1,
  62 of whose points lie outside the calibrated box, and ``check --mode
  numeric`` on two ``--params`` smiles outside the box (rho 40 and 60);
* ``refit`` on a narrow flat quote file;
* ``refit`` and ``check``, in formula and numeric mode, on a 4-row quote
  file whose fit capped at the check's ``chi_c`` collapses (``refit``
  pins chi to the refitted smile's fold instead);
* hostile inputs that must end in exit 2: ``bl-oracle --step-frac 0``,
  a ``sweep`` whose g axis has an infinite bound, and ``bl-oracle`` with
  a stencil that floats cannot resolve (``--step-frac 1e-300`` and
  ``1e-150``, ``--spot 1e-200`` and ``1e200``);
* ``bl-oracle --params 0.2,1.8,0.05 --maturity 0.5 --span 40 --grid
  801``, whose normal CDF arguments reach |a| = 40.2 and so every branch
  of ``ndtr``: erf, erfc below 8 and from 8 on, and erfc's cut to 0 past
  ``MAXLOG`` (no desk ``bl-oracle`` passes |a| = 10.2);
* grids that break the density grid rule, which must end in exit 2:
  ``density`` and ``bl-oracle`` with ``--span`` ``nan``, ``-5``, ``3``
  and ``1e308``, ``bl-oracle --grid 150`` and a 1-point
  ``sweep --grid 150``;
* ``fit``, ``check`` and ``refit`` on 4-row quote files with a ``nan``
  or ``inf`` coordinate (``x`` or ``strike``), or a delta quote with vol
  ``1e300`` whose ``x`` overflows, which must exit 2, and with one
  subnormal vol, ``5e-324``, or an ``x`` span of ``2e300`` whose start
  half-width overflows, which must exit 3;
* ``fit``, ``check`` and ``refit`` on delta-quoted files whose deltas
  fall, on both wings, in each of the three ranges of the inverse normal
  CDF: central, between ``exp(-32)`` and ``exp(-2)`` from either end, and
  beyond (down to ``1e-300`` and up to ``1 - 2**-53``);
* extreme smiles whose numbers overflow: ``fit`` with ``--maturity
  1e300`` on a 5-row x file, which must exit 3, and ``check`` and
  ``density`` with ``--params 1e-200,1.5,1e-300 --maturity 0.5`` and
  ``--params 1e-150,1.5,1e300 --maturity 1``, which must exit 2;
* five smiles whose numbers leave the float range, each of which once
  printed a numpy ``RuntimeWarning``: ``bl-oracle`` with ``--spot 1e200``
  far from its strikes (exit 0) and with strikes that underflow to 0,
  ``density`` whose curvature factor overflows and whose grid width is not
  finite, and ``check --mode numeric`` whose factor divides inf by inf
  (each exit 2);
* ``bl-oracle`` whose strikes ``spot * exp(x + rT)`` overflow to inf or
  underflow to 0 at a hostile ``--rate``, which must exit 2;
* ``check --params-file`` on the report of an earlier ``fit``, with a
  ``#`` comment and a blank line appended to it, and ``check --params``
  with a ``--config`` file holding a line without ``=``, an unknown key,
  ``chi_tol=abc`` or `` CHI-MAX = 5 ``;
* outputs that cannot be written, which must exit 2: ``fit`` whose
  ``fit.txt``, ``fit --svg`` whose ``smile.svg`` and ``density`` whose
  ``density.csv`` is a directory, and ``density`` with a ``--config``
  file setting ``svg=ture``;
* a flag the command does not read (``bl-oracle --svg``, ``fit --grid
  201``, ``calibrate --maturity 1``, ``density --spot 2``, ``sweep --mode
  numeric``), and two smile sources at once (``check`` on a quote file
  with ``--params``, ``density`` with ``--params`` and ``--params-file``,
  and with ``--params-file`` and ``--maturity``), which must exit 2;
* demos 01-05, each from its own working directory.

Commands run in-process through ``smilecal.cli.main``. Every warning is
shown, as ``Category: message`` without its source location, so that a
command's stderr does not depend on the commands run before it or on
where the warning's line sits.

Prints each differing exit code, stdout, stderr and output file, and, on
a line of its own, each temporary ``*.tmp`` file left in either tree's
outputs, even one both trees leave; exits 1 if it printed any, else 0. Reads ``bench/`` of the checkout
this script belongs to and writes nothing there.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
import traceback
import warnings
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = "commands.json"
RESULTS = "results.json"
FLAT_QUOTES = "maturity,2.0\nx,vol\n-0.05,0.5\n-0.02,0.5\n0.01,0.5\n0.04,0.5\n"
COLLAPSING_QUOTES = (
    "maturity,4.0\nx,vol\n0.49772525820941405,1.5189508395823534\n"
    "4.54313625062083e-234,0.6565408442132676\n0.29490456440431667,1.4910045167370825\n"
    "1.1125369292536007e-308,2.109561358793571\n"
)
HOSTILE_QUOTES = {
    "x_nan.csv": "maturity,0.5\nx,vol\n-0.1,0.2\nnan,0.18\n0.1,0.21\n0.2,0.25\n",
    "x_inf.csv": "maturity,0.5\nx,vol\n-0.1,0.2\ninf,0.18\n0.1,0.21\n0.2,0.25\n",
    "strike_nan.csv": "maturity,0.5\nstrike,vol\n0.9,0.2\nnan,0.18\n1.0,0.21\n1.1,0.25\n",
    "strike_inf.csv": "maturity,0.5\nstrike,vol\n0.9,0.2\ninf,0.18\n1.0,0.21\n1.1,0.25\n",
    "subnormal_vol.csv": "maturity,0.5\nx,vol\n-0.1,0.2\n0.0,5e-324\n0.1,0.21\n0.2,0.25\n",
    "x_span_overflow.csv": "maturity,0.5\nx,vol\n-1e300,0.2\n0,0.18\n0.1,0.21\n1e300,0.25\n",
    "delta_vol_overflow.csv": (
        "maturity,0.5\ndelta,vol\n0.2,0.2\n0.4,1e300\n0.6,0.21\n0.8,0.25\n"
    ),
}
# delta quotes whose inverse normal CDF falls, on both wings, in the central
# range (exp(-2) < delta < 1 - exp(-2)), in the near tails (sqrt(-2 ln y) < 8
# with y = min(delta, 1 - delta)) and in the far tails beyond, from the smile
# g = 0.2, chi = 1.5, n = 0.04 at T = 0.5; the far file's at-the-money quote
# lets its fit converge
DELTA_QUOTES = {
    "delta_central.csv": (
        "maturity,0.5\ndelta,vol\n0.15,0.2527\n0.3,0.2214\n0.5,0.201\n0.7,0.2073\n"
        "0.85,0.2356\n"
    ),
    "delta_tail.csv": (
        "maturity,0.5\ndelta,vol\n1e-12,0.2983\n1e-06,0.2964\n0.01,0.2863\n0.1,0.264\n"
        "0.9,0.2503\n0.99,0.2825\n0.999999,0.2959\n0.999999999999,0.2981\n"
    ),
    "delta_far.csv": (
        "maturity,0.5\ndelta,vol\n1e-300,0.2999\n1e-20,0.299\n1e-15,0.2986\n0.5,0.201\n"
        "0.999999999999999,0.2985\n0.9999999999999999,0.2986\n"
    ),
}
EXTREME_QUOTES = "x,vol\n-0.2,0.3\n-0.1,0.25\n0,0.2\n0.1,0.24\n0.2,0.31\n"
COARSE_TOL_CONFIG = "chi-tol=0.01\n"
FINE_TOL_CONFIG = "chi-tol=1e-6\n"
HOSTILE_CONFIGS = {
    f"config_{name}.cfg": f"# {name}\n\n{line}\n"
    for name, line in (("no_equals", "chi-max 5"), ("unknown_key", "chi-min=5"),
                       ("bad_value", "chi_tol=abc"), ("spaced_key", " CHI-MAX = 5 "))
}
FIG1_ARGS = ["--params", "0.1,2.7,0.04", "--maturity", "0.5"]
# each output directory holds a directory in the place of the named file
UNWRITABLE = {
    "unwritable_fit": (["fit", "extreme.csv", "--maturity", "0.5"], "fit.txt"),
    "unwritable_fit_svg": (["fit", "extreme.csv", "--maturity", "0.5", "--svg"], "smile.svg"),
    "unwritable_density": (["density", *FIG1_ARGS], "density.csv"),
}
SMALL_AXES = ["--g-range", "0.03:0.5:3", "--rho-range", "2.5:10:3",
              "--t-range", "0.0027397260273972603:4:3"]
OUT_OF_BOX_AXES = ["--g-range", "3e-4:3:8", "--rho-range", "0.3:60:9", "--t-range", "1:1:1"]
OUT_OF_BOX_SMILES = {"rho40": ["--params", "0.1,4.0,0.2", "--maturity", "0.5"],
                     "rho60": ["--params", "0.8,2.0,38.4", "--maturity", "1"]}
EXTREME_SMILES = {"tiny": ["--params", "1e-200,1.5,1e-300", "--maturity", "0.5"],
                  "huge_n": ["--params", "1e-150,1.5,1e300", "--maturity", "1"]}
FLOAT_RANGE_SMILES = {
    "oracle_spot_far": ["bl-oracle", "--params", "1.0000001,1.0000001,640.0552019112725",
                        "--maturity", "846.7202085880854", "--spot", "1e200"],
    "density_factor_overflow": ["density", "--params", "1e10,1e150,1e10", "--maturity", "1e10",
                                "--grid", "201"],
    "density_grid_width": ["density", "--params", "1e300,210.54654510770922,919.5924988003864",
                           "--maturity", "0.1", "--grid", "201"],
    "check_factor_nan": ["check", "--params", "24.444074325898978,1e300,24.444074325898978",
                         "--maturity", "721.831930458675", "--mode", "numeric", "--grid", "201"],
    "oracle_strike_underflow": ["bl-oracle", "--params", "0.5,20,1", "--maturity", "100"],
}
STRIKE_RANGE = {
    "oracle_rate_underflow": ["bl-oracle", "--params", "0.1,2.7,0.04", "--maturity", "10",
                              "--rate=-8.783151347764393e+237"],
    "oracle_rate_overflow": ["bl-oracle", "--params", "0.1,2.7,0.04", "--maturity", "10",
                             "--rate=1689.2999866616678"],
}
# the commands that take --svg
SVG_COMMANDS = ("fit", "check", "refit", "density", "sweep")
# flags a command does not read, and two smile sources at once; run after
# params_file/fit.txt and sweep_small/sweep.csv are written
REFUSED = {
    "refused_oracle_svg": ["bl-oracle", *FIG1_ARGS, "--svg"],
    "refused_fit_grid": ["fit", "extreme.csv", "--maturity", "0.5", "--grid", "201"],
    "refused_calibrate_maturity": ["calibrate", "sweep_small/sweep.csv", "--maturity", "1"],
    "refused_density_spot": ["density", *FIG1_ARGS, "--spot", "2"],
    "refused_sweep_mode": ["sweep", *SMALL_AXES, "--mode", "numeric"],
    "conflict_quotes_params": ["check", "extreme.csv", *FIG1_ARGS],
    "conflict_params_params_file": ["density", *FIG1_ARGS, "--params-file",
                                    "params_file/fit.txt"],
    "conflict_params_file_maturity": ["density", "--params-file", "params_file/fit.txt",
                                      "--maturity", "99"],
}


def command_set() -> tuple[list[dict], dict[str, str]]:
    """The commands, as ``{"id", "argv"}``, ``{"id", "demo"}`` or ``{"id",
    "append": [path, text]}``, and the input files (relative path -> text)
    they read. Imports ``bench/gen.py``, which imports ``bench/oracle.py``,
    and then restores the caller's ``sys.path`` and
    ``sys.dont_write_bytecode`` and unloads the two if it loaded them; a
    module they import from elsewhere (numpy) stays loaded."""
    path, dont_write = list(sys.path), sys.dont_write_bytecode
    fresh = {"gen", "oracle"} - sys.modules.keys()
    sys.dont_write_bytecode = True  # leave no __pycache__ in bench/
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import gen
    finally:
        sys.path[:], sys.dont_write_bytecode = path, dont_write
        for name in fresh:
            sys.modules.pop(name, None)

    commands: list[dict] = []
    files: dict[str, str] = {"flat.csv": FLAT_QUOTES, "collapsing.csv": COLLAPSING_QUOTES,
                             "extreme.csv": EXTREME_QUOTES, "coarse_tol.cfg": COARSE_TOL_CONFIG,
                             "fine_tol.cfg": FINE_TOL_CONFIG, "bool_typo.cfg": "svg=ture\n",
                             **HOSTILE_QUOTES, **DELTA_QUOTES, **HOSTILE_CONFIGS}

    def add_round(seed: int, root: str, svg: bool, only: str | None = None) -> None:
        _, ops, round_files = gen.desk_round(seed, Path(root))
        files.update(round_files)
        for op in ops:
            if only is None or op.command == only:
                argv = list(op.argv) + (["--svg"] if svg and op.command in SVG_COMMANDS else [])
                commands.append({"id": op.out, "argv": argv})

    for seed in (3, 7):
        add_round(seed, f"desk{seed}", svg=False)
        add_round(seed, f"desk{seed}_svg", svg=True)
    for seed in range(1, 41):
        add_round(seed, f"refits{seed}", svg=False, only="refit")
    commands.append({"id": "sweep_small",
                     "argv": ["sweep", *SMALL_AXES, "--out", "sweep_small"]})
    commands.append({"id": "sweep_small/calibrate",
                     "argv": ["calibrate", "sweep_small/sweep.csv", "--out", "sweep_small"]})
    commands.append({"id": "sweep_small_svg",
                     "argv": ["sweep", *SMALL_AXES, "--svg", "--out", "sweep_small_svg"]})
    commands.append({"id": "sweep_small_fine_tol",
                     "argv": ["sweep", *SMALL_AXES, "--config", "fine_tol.cfg",
                              "--out", "sweep_small_fine_tol"]})
    commands.append({"id": "sweep_small_span_20",
                     "argv": ["sweep", *SMALL_AXES, "--span", "20",
                              "--out", "sweep_small_span_20"]})
    for name, args in (("grid_16001", ["--grid", "16001"]),
                       ("span_4_grid_101", ["--span", "4", "--grid", "101"])):
        commands.append({"id": f"sweep_small_{name}",
                         "argv": ["sweep", *SMALL_AXES, *args, "--out", f"sweep_small_{name}"]})
    commands.append({"id": "sweep_table1", "argv": ["sweep", "--out", "sweep_table1"]})
    commands.append({"id": "sweep_table1_grid_8001",
                     "argv": ["sweep", "--grid", "8001", "--out", "sweep_table1_grid_8001"]})
    commands.append({"id": "sweep_table1_coarse_tol",
                     "argv": ["sweep", "--config", "coarse_tol.cfg",
                              "--out", "sweep_table1_coarse_tol"]})
    commands.append({"id": "sweep_out_of_box",
                     "argv": ["sweep", *OUT_OF_BOX_AXES, "--out", "sweep_out_of_box"]})
    for name, args in OUT_OF_BOX_SMILES.items():
        out = f"check_numeric_{name}"
        commands.append({"id": out, "argv": ["check", *args, "--mode", "numeric",
                                             "--out", out]})
    commands.append({"id": "flat", "argv": ["refit", "flat.csv", "--out", "flat"]})
    for command, mode in product(("refit", "check"), ("formula", "numeric")):
        out = f"collapsing_{command}_{mode}"
        commands.append({"id": out, "argv": [command, "collapsing.csv", "--mode", mode,
                                             "--out", out]})
    commands.append({"id": "oracle_step_zero",
                     "argv": ["bl-oracle", "--params", "0.1,2.7,0.04", "--maturity", "0.5",
                              "--step-frac", "0", "--out", "oracle_step_zero"]})
    for flag, value in (("--step-frac", "1e-300"), ("--step-frac", "1e-150"),
                        ("--spot", "1e-200"), ("--spot", "1e200")):
        out = f"oracle_unresolvable{flag[1:]}_{value}"
        commands.append({"id": out,
                         "argv": ["bl-oracle", "--params", "0.1,2.7,0.04", "--maturity", "0.5",
                                  flag, value, "--out", out]})
    commands.append({"id": "oracle_span_40",
                     "argv": ["bl-oracle", "--params", "0.2,1.8,0.05", "--maturity", "0.5",
                              "--span", "40", "--grid", "801", "--out", "oracle_span_40"]})
    commands.append({"id": "sweep_inf_axis",
                     "argv": ["sweep", "--g-range", "0.1:inf:2", "--rho-range", "3:3:1",
                              "--t-range", "1:1:1", "--out", "sweep_inf_axis"]})
    for command, span in product(("density", "bl-oracle"), ("nan", "-5", "3", "1e308")):
        out = f"{command}_span_{span}"
        commands.append({"id": out, "argv": [command, *FIG1_ARGS, "--span", span,
                                             "--out", out]})
    commands.append({"id": "oracle_grid_150",
                     "argv": ["bl-oracle", *FIG1_ARGS, "--grid", "150",
                              "--out", "oracle_grid_150"]})
    commands.append({"id": "sweep_grid_150",
                     "argv": ["sweep", "--g-range", "0.1:0.1:1", "--rho-range", "3:3:1",
                              "--t-range", "1:1:1", "--grid", "150", "--out", "sweep_grid_150"]})
    for name, command in product((*HOSTILE_QUOTES, *DELTA_QUOTES), ("fit", "check", "refit")):
        out = f"{name.removesuffix('.csv')}_{command}"
        commands.append({"id": out, "argv": [command, name, "--out", out]})
    commands.append({"id": "extreme_fit",
                     "argv": ["fit", "extreme.csv", "--maturity", "1e300",
                              "--out", "extreme_fit"]})
    for (name, args), command in product(EXTREME_SMILES.items(), ("check", "density")):
        out = f"extreme_{name}_{command}"
        commands.append({"id": out, "argv": [command, *args, "--out", out]})
    for name, argv in {**FLOAT_RANGE_SMILES, **STRIKE_RANGE}.items():
        commands.append({"id": name, "argv": [*argv, "--out", name]})
    commands.append({"id": "params_file_fit",
                     "argv": ["fit", "extreme.csv", "--maturity", "0.5", "--out", "params_file"]})
    commands.append({"id": "params_file_append",
                     "append": ["params_file/fit.txt", "# appended by hand\n\n"]})
    commands.append({"id": "params_file_check",
                     "argv": ["check", "--params-file", "params_file/fit.txt",
                              "--out", "params_file/check"]})
    for name, argv in REFUSED.items():
        commands.append({"id": name, "argv": [*argv, "--out", name]})
    for name, (argv, blocked) in UNWRITABLE.items():
        files[f"{name}/{blocked}/.keep"] = ""
        commands.append({"id": name, "argv": [*argv, "--out", name]})
    commands.append({"id": "density_bool_typo",
                     "argv": ["density", *FIG1_ARGS, "--config", "bool_typo.cfg",
                              "--out", "density_bool_typo"]})
    for name in HOSTILE_CONFIGS:
        out = name.removesuffix(".cfg")
        commands.append({"id": out, "argv": ["check", *FIG1_ARGS, "--config", name,
                                             "--out", out]})
    for demo in sorted((ROOT / "demos").glob("0*.py")):
        commands.append({"id": f"demo_{demo.stem[:2]}", "demo": demo.name})
    return commands, files


def run_tree(src: Path, work: Path) -> None:
    """In a fresh interpreter: run every command of ``work`` on ``src``."""
    sys.path.insert(0, str(src))
    from smilecal import cli

    warnings.simplefilter("always")
    warnings.formatwarning = lambda msg, cat, *_: f"{cat.__name__}: {msg}\n"
    results = {}
    for cmd in json.loads((work / COMMANDS).read_text(encoding="utf-8")):
        cwd = work / cmd["id"] if "demo" in cmd else work
        cwd.mkdir(parents=True, exist_ok=True)
        os.chdir(cwd)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                if "demo" in cmd:
                    runpy.run_path(str(src.parent / "demos" / cmd["demo"]), run_name="__main__")
                    code = 0
                elif "append" in cmd:
                    rel, text = cmd["append"]
                    with open(rel, "a", encoding="utf-8") as fh:
                        fh.write(text)
                    code = 0
                else:
                    code = cli.main(cmd["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an escaping exception is an outcome to compare
                code = f"raised {type(exc).__name__}"
                stderr.write("".join(traceback.format_exception_only(exc)))
        results[cmd["id"]] = [code, stdout.getvalue(), stderr.getvalue()]
    (work / RESULTS).write_text(json.dumps(results), encoding="utf-8")


def tree_files(work: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(work)): p.read_bytes()
        for p in sorted(work.rglob("*"))
        if p.is_file() and p.name != RESULTS
    }


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--run":
        run_tree(Path(argv[1]).resolve(), Path(argv[2]))
        return 0
    if len(argv) != 2:
        print("usage: python tools/same_outputs.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    commands, files = command_set()
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        works = []
        for side, src in zip(("old", "new"), argv):
            work = Path(tmp) / side
            for rel, text in files.items():
                (work / rel).parent.mkdir(parents=True, exist_ok=True)
                (work / rel).write_text(text, encoding="utf-8")
            (work / COMMANDS).write_text(json.dumps(commands), encoding="utf-8")
            subprocess.run([sys.executable, __file__, "--run", src, str(work)], check=True)
            works.append(work)

        old, new = (json.loads((w / RESULTS).read_text(encoding="utf-8")) for w in works)
        diffs = 0
        for cmd in commands:
            for what, a, b in zip(("exit code", "stdout", "stderr"), old[cmd["id"]], new[cmd["id"]]):
                if a != b:
                    diffs += 1
                    print(f"{cmd['id']}: {what} differs:\n  old: {a!r}\n  new: {b!r}")
        old_files, new_files = (tree_files(w) for w in works)
        for rel in sorted(old_files.keys() | new_files.keys()):
            if old_files.get(rel) != new_files.get(rel):
                diffs += 1
                state = ("only in old" if rel not in new_files
                         else "only in new" if rel not in old_files else "differs")
                print(f"file {rel}: {state}")
        for rel in sorted(old_files.keys() | new_files.keys()):
            if rel.endswith(".tmp"):
                diffs += 1
                trees = [side for side, f in (("old", old_files), ("new", new_files)) if rel in f]
                print(f"file {rel}: temporary file left in {' and '.join(trees)}")
    print(f"{len(commands)} commands, {len(old_files)} files: {diffs} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
