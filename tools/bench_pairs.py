"""Run the benchmark on two checkouts in alternating pairs and record it.

Usage::

    python tools/bench_pairs.py OLD_ROOT NEW_ROOT --workload W --pairs N \\
        --seconds S --out FILE [--first-seed K]

``OLD_ROOT`` and ``NEW_ROOT`` are the roots of two checkouts. Pair ``i``
runs ``python3 bench/run.py --workload W --seed K+i --seconds S`` in each
root, each checkout's own harness on its own source, one run at a time; the
old tree goes first in even pairs and the new tree in odd ones, so drift on
a shared machine falls on both alike.

``FILE`` is a JSON record: the machine, and per workload the seeds, the run
length, each run's correctness and failed count, and for each end-to-end
metric of the new tree's ``BENCHMARK.json`` its per-pair values on both
trees, their medians and quartiles, and the number of pairs the new tree
won. Each tree is named by its git commit, where it has one, and by a hash
of its ``src`` files. A workload already in ``FILE`` is replaced and the
others are kept, so one file gathers several workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def tree_id(root: Path) -> dict:
    """The checkout's git commit and whether its files differ from it, if it
    is a git checkout, and a hash of its ``src`` files."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    git = [subprocess.run(["git", "-C", str(root), *cmd], capture_output=True, text=True)
           for cmd in (["rev-parse", "HEAD"], ["status", "--porcelain"])]
    is_git = all(p.returncode == 0 for p in git)
    return {"commit": git[0].stdout.strip() if is_git else None,
            "modified": bool(git[1].stdout.strip()) if is_git else None,
            "src_sha256": digest.hexdigest()}


def machine() -> dict:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        model = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                      if line.startswith("model name")), "")
    return {"platform": platform.platform(), "cpu": model, "cpus": os.cpu_count(),
            "python": platform.python_version()}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{root}: bench/run.py exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    out = {}
    for m in end_to_end:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        old = [p["old"]["metrics"][name] for p in pairs]
        new = [p["new"]["metrics"][name] for p in pairs]
        out[name] = {
            "unit": m["unit"], "better": m["better"], "old": old, "new": new,
            "old_median": statistics.median(old), "new_median": statistics.median(new),
            "old_quartiles": _quartiles(old), "new_quartiles": _quartiles(new),
            "new_won": sum(sign * (b - a) > 0.0 for a, b in zip(old, new)),
        }
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.new_root / "BENCHMARK.json").read_text(encoding="utf-8"))

    roots = {"old": args.old_root, "new": args.new_root}
    pairs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("old", "new") if i % 2 == 0 else ("new", "old")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(roots[side], args.workload, seed, args.seconds)
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
            f"{side} {pair[side]['metrics']['ops_per_s']:.4g} ops/s" for side in ("old", "new")),
            flush=True)

    record = {"machine": machine(), "workloads": {}}
    if args.out.is_file():
        record = json.loads(args.out.read_text(encoding="utf-8"))
    record["workloads"][args.workload] = {
        "seconds": args.seconds, "seeds": [p["seed"] for p in pairs],
        "trees": {side: tree_id(root) for side, root in roots.items()},
        "all_correct": all(p[s]["correct"] for p in pairs for s in roots),
        "failed": {s: [p[s]["failed"] for p in pairs] for s in roots},
        "metrics": summarize(pairs, spec["end_to_end"]),
        "pairs": pairs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, m in record["workloads"][args.workload]["metrics"].items():
        print(f"{name:12s} old {m['old_median']:10.4g}  new {m['new_median']:10.4g}  "
              f"new won {m['new_won']}/{len(pairs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
