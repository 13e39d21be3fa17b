#!/usr/bin/env python3
"""Reference figures: repeated benchmark runs, summarised per metric.

    python3 bench/reference.py --runs 10 [--first-seed 1] [--workloads sweep desk cli_cold]

Runs bench/run.py once per workload and seed, the workloads interleaved,
seeds first-seed .. first-seed + runs - 1, each run as long as
``run_seconds`` in BENCHMARK.json, and prints a markdown table of
each end-to-end metric's median, quartiles and spread (quartile distance
over median), with the failed share of ops. Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", default=["sweep", "desk", "cli_cold"])
    args = ap.parse_args()
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]

    results: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in args.workloads:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True,
            )
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            print(f"{w} seed={seed} exit={proc.returncode} {last}", file=sys.stderr, flush=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            results[w].append(json.loads(last))

    print("| workload | metric | unit | median | q1 | q3 | spread |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for w, runs in results.items():
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"| {w} | {name} | {first['unit']} | {med:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {(q3 - q1) / med:.3f} |")
        failed = {(r["failed"], r["attempted"]) for r in runs}
        shares = sorted({f / a for f, a in failed})
        print(f"| {w} | failed share | 1 | {' '.join(f'{s:.4f}' for s in shares)} | | | |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
