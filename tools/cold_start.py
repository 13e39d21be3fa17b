"""Split the cold command line's time into phases in two source trees.

Usage::

    python tools/cold_start.py OLD_SRC NEW_SRC [--rounds N] [--seed K]

``OLD_SRC`` and ``NEW_SRC`` are the ``src`` directories of two checkouts.
The commands are those of one round of the benchmark's ``cli_cold``
workload (``bench/gen.py``'s ``cli_cold_round`` for seed ``K``, default 1),
run on quote files written into a temporary directory. Each command runs in
a fresh interpreter, as ``cli_cold`` runs it, with
``PYTHONDONTWRITEBYTECODE=1`` and one BLAS thread, so every process compiles
what it imports. In each of ``N`` rounds (default 10) one tree runs the
whole round and then the other, and which tree goes first alternates, so
drift on a shared machine falls on both alike. Only one process runs at a
time.

The child imports ``numpy``, then ``smilecal.cli``, then calls the tree's
script entry (``script_main`` where the tree has one, else ``main``) and
exits with its code. Its phases, in milliseconds:

* ``start``: from the spawn to the child's first statement;
* ``import numpy``;
* ``import smilecal.cli``: the package's imports;
* ``command``: the entry, with any module it imports itself;
* ``exit``: from the entry's return to the end of the process;
* ``total``: the whole command, as ``cli_cold`` times it.

Prints, per phase and tree, the median and the quartiles over every command
of every round, and the difference of the medians, new minus old; then each
command kind's total. Exits 1 if the trees give any command different exit
codes.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402

PHASES = ("start", "import numpy", "import smilecal.cli", "command", "exit", "total")

# the child: the times after its first statement, numpy, the package's
# imports and the entry, then where smilecal.cli came from
_CHILD = """
import time
t1 = time.perf_counter()
import sys
import numpy
t2 = time.perf_counter()
import smilecal.cli as cli
t3 = time.perf_counter()
report, sys.argv = sys.argv[1], ["smilecal", *sys.argv[2:]]
code = getattr(cli, "script_main", cli.main)()
t4 = time.perf_counter()
with open(report, "w", encoding="utf-8") as fh:
    fh.write(f"{t1!r} {t2!r} {t3!r} {t4!r}\\n{cli.__file__}")
sys.exit(code)
"""


def child_env(src: str) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env


def run_command(src: str, argv: tuple[str, ...], report: Path) -> tuple[int, list[float]]:
    """One command in a fresh interpreter: its exit code and phase times in ms."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(report), *argv],
                          env=child_env(src), capture_output=True, text=True)
    t5 = time.perf_counter()
    times, origin = report.read_text(encoding="utf-8").split("\n")
    if not Path(origin).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"smilecal.cli was imported from {origin}, not from {src}")
    t1, t2, t3, t4 = map(float, times.split())
    marks = [t0, t1, t2, t3, t4, t5]
    return proc.returncode, [1e3 * (b - a) for a, b in zip(marks, marks[1:])] + [1e3 * (t5 - t0)]


def _summary(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    srcs = (args.old_src, args.new_src)
    phases = [{name: [] for name in PHASES} for _ in srcs]
    totals: list[dict[str, list[float]]] = [{} for _ in srcs]
    codes: list[dict[int, set[int]]] = [{} for _ in srcs]
    with tempfile.TemporaryDirectory() as tmp:
        tree_ops = []
        for i in range(len(srcs)):
            _, ops, files = gen.cli_cold_round(args.seed, Path(tmp) / f"tree{i}")
            for path, text in files.items():
                Path(path).parent.mkdir(parents=True, exist_ok=True)
                Path(path).write_text(text, encoding="utf-8")
            tree_ops.append(ops)
        report = Path(tmp) / "phases.txt"
        for k in range(args.rounds):
            for i in ((0, 1) if k % 2 == 0 else (1, 0)):
                for j, op in enumerate(tree_ops[i]):
                    code, times = run_command(srcs[i], op.argv, report)
                    codes[i].setdefault(j, set()).add(code)
                    for name, ms in zip(PHASES, times):
                        phases[i][name].append(ms)
                    totals[i].setdefault(op.command, []).append(times[-1])
    print(f"cli_cold round of seed {args.seed}: {len(tree_ops[0])} commands, {args.rounds} "
          "rounds per tree; ms per command, median [quartiles]")
    print(f"{'phase':<22}{'old':>26}{'new':>26}{'new-old':>9}")
    for name in PHASES:
        old, new = (_summary(p[name]) for p in phases)
        cells = [f"{m:8.1f} [{a:6.1f}, {b:6.1f}]" for m, a, b in (old, new)]
        print(f"{name:<22}{cells[0]:>26}{cells[1]:>26}{new[0] - old[0]:9.1f}")
    for command in sorted(totals[0]):
        old, new = (statistics.median(t[command]) for t in totals)
        print(f"{'total ' + command:<22}{old:8.1f}{'':>18}{new:8.1f}{'':>18}{new - old:9.1f}")
    differ = [tree_ops[0][j].argv for j in codes[0] if codes[0][j] != codes[1][j]]
    for argv in differ:
        print(f"MISMATCH: exit codes differ: {' '.join(argv[:2])}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
