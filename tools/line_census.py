"""Census of the package's lines: which ones each kind of run reaches.

Usage::

    python tools/line_census.py [--seconds S] [--seed N]

Run from anywhere; the checkout is the one this file lies in. One
interpreter imports that checkout's ``src/smilecal`` and runs, in turn,
under a ``sys.settrace`` line collector that records only the lines of
``src/smilecal``:

* the demos, each through ``runpy`` in a temporary working directory;
* one ``cli_cold`` round of ``bench/gen.py`` (seed ``N``, default 1), its
  commands through ``cli.main`` in a temporary directory;
* ``bench/run.py --workload sweep`` and ``--workload desk``, ``S`` seconds
  each (default 3), through ``runpy`` with ``bench`` on ``sys.path``; they
  write into ``.bench_out`` of the checkout, as they always do;
* the tier-1 suite, through ``pytest.main``, last, so that a module-level
  line counts for whichever run imported its module first.

For each module it then prints the executable lines (those of the
compiled module's code objects, from ``co_lines``) that no run reached,
and those that only tier-1 reached: code that the workloads, the CLI and
the demos never run. Lines that only a child process runs (``bench/run.py``
times fresh imports in children, and tier-1 tests run fresh interpreters)
are not seen, as the report's header says. Uses the standard library
alone.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "smilecal"


class Census:
    """Lines of ``PACKAGE`` reached, by the name of the run that reached them."""

    def __init__(self) -> None:
        self.runs: dict[str, set[tuple[str, int]]] = {}
        self.hits: set[tuple[str, int]] = set()
        self.prefix = str(PACKAGE) + os.sep

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def _call(self, frame, event, arg):
        return self._line if frame.f_code.co_filename.startswith(self.prefix) else None

    @contextlib.contextmanager
    def run(self, name: str):
        if name not in self.runs:
            print(f"census: {name}", file=sys.stderr, flush=True)
        self.hits = self.runs.setdefault(name, set())
        sys.settrace(self._call)
        try:
            yield
        finally:
            sys.settrace(None)


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from ``path``."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no source line
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _ranges(lines: list[int]) -> str:
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans) or "-"


def run_demos(census: Census) -> None:
    for demo in sorted((ROOT / "demos").glob("0*.py")):
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), \
                contextlib.redirect_stdout(io.StringIO()), census.run("demos"):
            runpy.run_path(str(demo), run_name="__main__")


def run_cli_cold(census: Census, seed: int) -> None:
    with census.run("cli_cold"):  # a cold command imports the CLI
        import gen

        from smilecal import cli
    with tempfile.TemporaryDirectory() as tmp:
        _, ops, files = gen.cli_cold_round(seed, Path(tmp))
        for path, text in files.items():
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            Path(path).write_text(text, encoding="utf-8")
        for op in ops:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()), census.run("cli_cold"):
                cli.main(list(op.argv))


def run_bench(census: Census, workload: str, seed: int, seconds: float) -> None:
    argv = sys.argv
    sys.argv = ["run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds)]
    try:
        with contextlib.chdir(ROOT), census.run(workload):
            runpy.run_path(str(ROOT / "bench" / "run.py"), run_name="__main__")
    except SystemExit as exc:
        if exc.code:
            print(f"census: bench/run.py {workload} exited with {exc.code}", file=sys.stderr)
    finally:
        sys.argv = argv


def run_tier1(census: Census) -> None:
    import pytest

    with contextlib.chdir(ROOT), census.run("tier-1"):
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    if code:
        print(f"census: tier-1 exited with {code}", file=sys.stderr)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=3.0,
                        help="seconds of each bench workload (default 3)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

    census = Census()
    run_demos(census)
    run_cli_cold(census, args.seed)
    for workload in ("sweep", "desk"):
        run_bench(census, workload, args.seed, args.seconds)
    run_tier1(census)

    tier1 = census.runs["tier-1"]
    others = set().union(*(hits for name, hits in census.runs.items() if name != "tier-1"))
    reached, tier1_only = tier1 | others, tier1 - others
    print(f"lines of {PACKAGE.relative_to(ROOT)} reached by no run, and by tier-1 only "
          f"(runs: {', '.join(census.runs)})")
    print("only this process is traced: lines that only a child interpreter runs (a test's "
          "subprocess, a fresh import) read as unreached")
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        never = sorted(n for n in lines if (str(path), n) not in reached)
        only = sorted(n for n in lines if (str(path), n) in tier1_only)
        print(f"{path.name}: {len(lines)} executable, {len(never)} reached by no run, "
              f"{len(only)} by tier-1 only")
        print(f"  no run:      {_ranges(never)}")
        print(f"  tier-1 only: {_ranges(only)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
