#!/usr/bin/env python3
"""Run every workload several times and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/repeat.py [--runs 10] [--first-seed 1] [--seconds S]
        [--trace 0] [--workloads fig7,sweep-10k,queue-1k] [--out FILE]

Run `i` (0-based) uses seed `first-seed + i` for every workload, and runs
the workloads in an order rotated by `i`, each in a fresh process through
`run.py`, for `--seconds` (default: `run_seconds` of `BENCHMARK.json`).
For each workload and metric it prints the median, the first and
third quartiles (`statistics.quantiles(values, n=4)`), and the spread: the
distance between the quartiles as a share of the median. With `--trace 0`
it also prints each metric's bound from `BENCHMARK.json` and whether the
spread is within a third of it. Exits 1 if any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=REPO)
    wall = time.monotonic() - start
    lines = proc.stdout.decode().splitlines()
    result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    return proc.returncode, result, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workloads", default="fig7,sweep-10k,queue-1k")
    ap.add_argument("--out", help="also write every run's result here, as JSON")
    args = ap.parse_args()

    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = args.workloads.split(",")
    values = {w: {} for w in workloads}
    runs, failures = [], 0
    for i in range(args.runs):
        seed = args.first_seed + i
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            code, result, wall = run_once(w, seed, seconds, args.trace)
            runs.append({"workload": w, "seed": seed, "exit": code, "wall_s": wall,
                         "result": result})
            ok = code == 0 and result is not None and result["correct"]
            failures += not ok
            print(f"run {i} {w:<10} seed {seed:<6} exit {code} wall {wall:6.1f} s"
                  f"{'' if ok else '  FAILED'}", flush=True)
            for name, m in (result or {}).get("metrics", {}).items():
                values[w].setdefault(name, []).append(m["value"])

    print()
    for w in workloads:
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else float("inf") if q3 != q1 else 0.0
            line = (f"{w:<10} {name:<26} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g}"
                    f" spread {spread:.4f}")
            if name in bounds:
                line += f" bound {bounds[name]} {'ok' if spread < bounds[name] / 3 else 'WIDE'}"
            print(line)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(runs, fh, indent=1)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
