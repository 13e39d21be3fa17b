#!/usr/bin/env python3
"""Benchmark harness for smilecal.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep|desk|cli_cold --seed N --seconds S --trace 0|1

Each run builds its inputs from the seed, times whole rounds of the
workload's ops for at least ``--seconds`` seconds, checks every output
against computations made apart from the program, and prints one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones, measured untraced; with ``--trace 1``
one untraced and one traced round give the per-layer metrics and the
tracing overhead. The exit code is 0 only when every check passed.
See bench/README.md.
"""

import os

# numpy's BLAS would start one thread per core at import; the package only
# solves 2x2 to 4x4 systems, so extra threads add noise and no speed
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import oracle
import tracing

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCH = Path(__file__).resolve().parent

SETUP_SAMPLES = 15  # fresh-interpreter imports per run, spread over it; setup_s is their median
IMPORT_SAMPLES = 5  # -X importtime samples in a traced run
# op_tail_ms percentile per workload: the highest with at least ten samples
# beyond it at the workload's minimum op count per run
TAIL = {"sweep": 95.0, "desk": 95.0, "cli_cold": 75.0}
MIN_OPS = {w: math.ceil(10 / (1 - q / 100)) for w, q in TAIL.items()}

SURFACE_MSE_MAX = 1e-3
FIT_TOL_SE = 5.0  # fit must land within this many noise-implied stderrs
MASS_TOL = 1e-6
GAP_TOL = 1e-4
ORACLE_TOL = 1e-4


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ----------------------------------------------------------------------
# set-up time and import profile
# ----------------------------------------------------------------------


def fresh_import_seconds() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import smilecal"], env=child_env(), check=True)
    return time.perf_counter() - t0


class SetupSampler:
    """Fresh-interpreter import times, taken between ops and spread evenly
    over the first ``seconds`` of timed wall time, so that setup_s sees
    the same stretch of machine time as the op metrics."""

    def __init__(self, seconds: float) -> None:
        fresh_import_seconds()  # first import may compile bytecode: not a sample
        self.interval = seconds / SETUP_SAMPLES
        self.samples = [fresh_import_seconds()]

    def __call__(self, elapsed: float) -> None:
        if len(self.samples) < SETUP_SAMPLES and elapsed >= len(self.samples) * self.interval:
            self.samples.append(fresh_import_seconds())

    def median(self) -> float:
        while len(self.samples) < SETUP_SAMPLES:  # a run shorter than ``seconds``
            self.samples.append(fresh_import_seconds())
        return statistics.median(self.samples)


def import_profile() -> tuple[float, float]:
    """(smilecal, scipy) cumulative import ms from ``-X importtime``."""
    line = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")
    pkg, sci = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import smilecal"],
            env=child_env(), capture_output=True, text=True, check=True,
        )
        matches = filter(None, map(line.match, proc.stderr.splitlines()))
        rows = [(len(m[3]) // 2, m[4], int(m[2])) for m in matches]  # (depth, name, cumulative us)
        pkg.append(sum(us for _, name, us in rows if name == "smilecal") / 1e3)
        # top-level scipy subtrees: rows are printed children first, so a
        # row's parent is the next row that is one level shallower
        total = 0
        for i, (depth, name, us) in enumerate(rows):
            if not name.startswith("scipy"):
                continue
            parent = next((r[1] for r in rows[i + 1:] if r[0] < depth), "")
            if not parent.startswith("scipy"):
                total += us
        sci.append(total / 1e3)
    return statistics.median(pkg), statistics.median(sci)


# ----------------------------------------------------------------------
# op records and the timed loop
# ----------------------------------------------------------------------


@dataclass
class Record:
    latencies: list[float] = field(default_factory=list)
    results: dict = field(default_factory=dict)  # op index -> result of its last run
    failed: int = 0
    errors: list[str] = field(default_factory=list)  # mismatches found by the checks


@dataclass
class Workload:
    """A workload's round, ready to time: ``run_op(i)`` runs op ``i`` of
    ``n_ops`` and returns its result; ``check(rec)`` checks the results
    outside the timed region; ``warm_ops`` untimed ops run first."""

    n_ops: int
    run_op: Callable[[int], object]
    check: Callable[[Record], None]
    warm_ops: int


def timed_rounds(work: Workload, seconds: float, min_ops: int, rec: Record,
                 max_rounds: int | None = None, between=None) -> float:
    """Run whole rounds of ops until both ``seconds`` and ``min_ops`` are
    reached (or ``max_rounds`` rounds ran). ``between(elapsed)`` is called
    after every op and its own time is left out. Returns the timed wall
    seconds."""
    start = time.perf_counter()
    paused = 0.0
    rounds = 0
    while True:
        for i in range(work.n_ops):
            t0 = time.perf_counter()
            result = work.run_op(i)
            t1 = time.perf_counter()
            rec.latencies.append(t1 - t0)
            previous = rec.results.get(i)
            if previous is not None and previous != result:
                rec.errors.append(f"op {i}: result changed between rounds: {previous} -> {result}")
            rec.results[i] = result
            if between is not None:
                t2 = time.perf_counter()
                between(t2 - start - paused)
                paused += time.perf_counter() - t2
        rounds += 1
        elapsed = time.perf_counter() - start - paused
        if max_rounds is not None and rounds >= max_rounds:
            return elapsed
        if elapsed >= seconds and len(rec.latencies) >= min_ops:
            return elapsed


def run_workload(name: str, work: Workload, seconds: float, max_rounds: int | None = None,
                 warm: bool = True, between=None) -> tuple[Record, float]:
    """Warm up, then time whole rounds. Returns the record and the timed
    wall seconds."""
    if warm:
        for i in range(work.warm_ops):
            work.run_op(i)
    rec = Record()
    wall = timed_rounds(work, seconds, MIN_OPS[name], rec, max_rounds, between)
    return rec, wall


# ----------------------------------------------------------------------
# sweep: the chi_c search over the Table-1 lattice, then calibration
# ----------------------------------------------------------------------


def sweep_workload(seed: int) -> Workload:
    """One op per lattice point, then one op that calibrates the surface on
    the round's rows."""
    from smilecal import adiabatic

    points = gen.lattice(seed)
    rows = [None] * len(points)

    def run_op(i):
        if i == len(points):
            return adiabatic.calibrate_critical_fit(rows)
        g, rho, t = points[i]
        (rows[i],) = adiabatic.sweep([g], [rho], [t])
        return rows[i]

    def check(rec: Record) -> None:
        rounds = len(rec.latencies) // (len(points) + 1)
        found = [rec.results[i] for i in range(len(points))]
        check_sweep(found, rec.results[len(points)], rec, rounds)

    return Workload(len(points) + 1, run_op, check, warm_ops=1)


def check_sweep(rows, fit, rec: Record, rounds: int) -> None:
    bad = [r for r in rows if r.status != "ok"]
    rec.failed += len(bad) * rounds
    good = [r for r in rows if r.status == "ok"]
    for r in good:
        below = oracle.density_verdict(r.g, 0.97 * r.chi_c, r.n, r.maturity)
        above = oracle.density_verdict(r.g, 1.03 * r.chi_c, r.n, r.maturity)
        if below != 0 or above == 0:
            rec.errors.append(
                f"independent density disagrees at g={r.g} rho={r.rho} T={r.maturity}: "
                f"verdict {below} at 0.97 chi_c, {above} at 1.03 chi_c")
    lines: dict = {}
    for r in good:
        lines.setdefault((r.g, r.maturity), []).append((r.rho, r.chi_c))
    for key, line in lines.items():
        chis = [c for _, c in sorted(line)]
        if any(b <= a for a, b in zip(chis, chis[1:])):
            rec.errors.append(f"chi_c not increasing in rho at (g, T) = {key}: {chis}")
    p = fit.params
    for name, (centre, band) in oracle.SURFACE_BANDS.items():
        if abs(getattr(p, name) - centre) > band:
            rec.errors.append(f"calibrated {name}={getattr(p, name)} outside {centre}+-{band}")
    if not fit.mse <= SURFACE_MSE_MAX:
        rec.errors.append(f"calibration mse {fit.mse} above {SURFACE_MSE_MAX}")


# ----------------------------------------------------------------------
# desk: an interleaved stream of in-process CLI commands
# ----------------------------------------------------------------------


def write_inputs(files: dict[str, str]) -> None:
    for path, text in files.items():
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8")


def classify_fault(exc: BaseException) -> str:
    """'overflow' for the OverflowError the fit's residuals raise, else ''."""
    tb = exc.__traceback__
    while tb is not None and tb.tb_next is not None:
        tb = tb.tb_next
    frame = tb.tb_frame.f_code.co_name if tb is not None else ""
    if isinstance(exc, OverflowError) and frame == "_residuals_and_jacobian":
        return "overflow"
    return ""


def desk_workload(seed: int) -> Workload:
    from smilecal import cli

    work = OUT / "desk"
    smiles, ops, files = gen.desk_round(seed, work)
    write_inputs(files)

    def run_op(i):
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(list(ops[i].argv))
        except Exception as exc:  # an escaping exception is an outcome to check
            return ("raised", "", classify_fault(exc) or repr(exc))
        return (code, stdout.getvalue(), stderr.getvalue())

    # a whole warm round: the first one also creates every output file
    return Workload(len(ops), run_op, lambda rec: check_cli_ops(smiles, ops, rec), len(ops))


def _report(path: str, name: str) -> dict:
    text = (Path(path) / name).read_text(encoding="utf-8")
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def check_cli_op(op, smile, result: tuple, rec: Record) -> None:
    """Check one CLI command's exit code and outputs against the oracle."""
    code, stdout, stderr = result
    where = f"{op.command} {' '.join(op.argv[1:2])}"
    if code == "raised":
        rec.errors.append(f"{where}: raised {stderr}")
        return
    if op.command == "fit":
        if code != 0:
            rec.errors.append(f"{where}: exit {code}")
            return
        rep = _report(op.out, "fit.txt")
        got = np.array([float(rep["g"]), float(rep["chi"]), float(rep["n"])])
        true = np.array([smile.g, smile.chi, smile.n])
        se = oracle.smile_param_stderr(smile.g, smile.chi, smile.n, smile.t,
                                       np.array(smile.xs), gen.DESK_NOISE)
        if np.any(np.abs(got - true) > FIT_TOL_SE * se):
            rec.errors.append(f"{where}: fitted {got} vs generating {true}, stderr {se}")
        return
    if op.command == "bl-oracle":
        m = re.search(r"max rel diff[^:]*: (\S+)", stdout)
        if code != 0 or m is None or not float(m[1]) < ORACLE_TOL:
            rec.errors.append(f"{where}: exit {code}, oracle line {m and m[0]!r}")
        return
    if op.command == "refit":
        rep = _report(op.out, "refit.txt")
        final = [float(rep[f"final_{k}"]) for k in ("g", "chi", "n", "maturity")]
        if code != 0 or rep["final_unimodal"] != "True" or oracle.density_verdict(*final) != 0:
            rec.errors.append(f"{where}: exit {code}, final {final} not clean")
        return
    expected = oracle.density_verdict(smile.g, smile.chi, smile.n, smile.t)
    if op.command == "check":
        rep = _report(op.out, "check.txt")
        ok = code == expected
    else:  # density: the exit code is 0; the report carries the verdict
        rep = _report(op.out, "density.txt")
        found = 4 if rep["n_negative_regions"] != "0" else (1 if rep["n_minima"] != "0" else 0)
        ok = code == 0 and found == expected and (rep["unimodal"] == "True") == (expected == 0)
    if not ok:
        rec.errors.append(f"{where}: exit {code}, report {rep}, independent verdict {expected}")
    if expected == 0 and not (abs(float(rep["total_mass"]) - 1.0) < MASS_TOL
                              and float(rep["martingale_gap"]) < GAP_TOL):
        rec.errors.append(f"{where}: mass {rep['total_mass']} gap {rep['martingale_gap']}")


def check_noisy(op, code, stderr: str, rec: Record) -> int:
    """1 if the noisy-set op failed with its named fault, 0 if it succeeded."""
    if code in (0, 1, 3, 4, 5):
        return 0
    if code == "raised" and stderr == "overflow" and op.fault == "overflow":
        return 1
    if code == 2 and "n must be positive, got 0.0" in stderr and op.fault == "underflow":
        return 1
    rec.errors.append(f"noisy {op.command} {op.argv[1]}: unexpected outcome {code} {stderr!r}")
    return 1


def check_cli_ops(smiles, ops, rec: Record) -> None:
    rounds = len(rec.latencies) // len(ops)
    for i, op in enumerate(ops):
        if op.smile < 0:
            code, _, stderr = rec.results[i]
            rec.failed += rounds * check_noisy(op, code, stderr, rec)
        else:
            check_cli_op(op, smiles[op.smile], rec.results[i], rec)


# ----------------------------------------------------------------------
# cli_cold: one fresh interpreter per command
# ----------------------------------------------------------------------


def cli_cold_workload(seed: int, spans_dir: Path | None = None) -> Workload:
    work = OUT / "cli_cold"
    smiles, ops, files = gen.cli_cold_round(seed, work)
    write_inputs(files)
    env = child_env()

    def run_op(i):
        argv = list(ops[i].argv)
        if spans_dir is None:
            cmd = [sys.executable, "-m", "smilecal.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "child.py"), str(spans_dir / f"{i}.jsonl"), *argv]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        return (proc.returncode, proc.stdout, proc.stderr)

    return Workload(len(ops), run_op, lambda rec: check_cli_ops(smiles, ops, rec), 1)


WORKLOADS = {"sweep": sweep_workload, "desk": desk_workload, "cli_cold": cli_cold_workload}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[Record, dict]:
    work = WORKLOADS[workload](seed)
    setup = SetupSampler(seconds)
    rec, wall = run_workload(workload, work, seconds, between=setup)
    rss = peak_rss_mb(workload)
    work.check(rec)
    lat_ms = 1e3 * np.array(rec.latencies)
    metrics = {
        "setup_s": (setup.median(), "s"),
        "ops_per_s": (len(lat_ms) / wall, "1/s"),
        "op_p50_ms": (float(np.percentile(lat_ms, 50.0)), "ms"),
        "op_tail_ms": (float(np.percentile(lat_ms, TAIL[workload])), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return rec, metrics


def per_layer(workload: str, seed: int, seconds: float) -> tuple[Record, dict]:
    import_ms, scipy_ms = import_profile()
    _, plain_wall = run_workload(workload, WORKLOADS[workload](seed), seconds, max_rounds=1)
    tracer = tracing.Tracer()
    if workload == "cli_cold":
        spans_dir = OUT / "cli_cold" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        work = cli_cold_workload(seed, spans_dir)
        rec, wall = run_workload(workload, work, seconds, max_rounds=1, warm=False)
        for i in range(work.n_ops):
            offset = len(tracer.spans)
            for name, start, end, parent, value in map(
                    json.loads, (spans_dir / f"{i}.jsonl").read_text().splitlines()):
                tracer.spans.append(tracing.Span(name, start, end,
                                               parent + offset if parent >= 0 else -1, value))
    else:
        tracing.install(tracer)
        try:
            work = WORKLOADS[workload](seed)
            rec, wall = run_workload(workload, work, seconds, max_rounds=1, warm=False)
        finally:
            tracer.restore()
    work.check(rec)
    tracer.write(OUT / f"spans-{workload}-{seed}.jsonl")
    metrics = tracing.layer_metrics(tracer.spans, work.n_ops)
    metrics["smilecal.import_ms"] = (import_ms, "ms")
    metrics["smilecal.import_scipy_ms"] = (scipy_ms, "ms")
    metrics["trace.overhead_pct"] = (100.0 * (wall / plain_wall - 1.0), "%")
    return rec, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "smilecal" / "__init__.py").is_file():
        print(f"error: {SRC / 'smilecal'} not found; run from the root of a smilecal checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    OUT.mkdir(exist_ok=True)

    measure = per_layer if args.trace else end_to_end
    rec, metrics = measure(args.workload, args.seed, args.seconds)
    for err in rec.errors:
        print(f"MISMATCH: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not rec.errors,
        "attempted": len(rec.latencies),
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not rec.errors else 1


if __name__ == "__main__":
    sys.exit(main())
