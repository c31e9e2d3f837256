#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload adhoc --seeds 1-5 [--trace 0]

Runs perfbench/run.py once per seed and prints, for every metric, the
median over the runs and the spread: the distance between the first and
third quartiles (statistics.quantiles(values, n=4)) as a share of the
median, beside the metric's bound from BENCHMARK.json. A change is judged
against these numbers, so check them on the workload a change touches.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--verbose", action="store_true",
                    help="also print every run's value")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    runs = []
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        runs.append(result["metrics"])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)

    worst = 0.0
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            if name != "setup_s":
                worst = max(worst, spread / bound)
            flag = "  over bound/3" if spread > bound / 3 else ""
        print(f"{name:36s} median {med:14.6g} {runs[0][name]['unit']:6s} "
              f"spread {spread:7.3f}  bound {bound}{flag}")
        if args.verbose:
            print("    " + " ".join(f"{v:.4g}" for v in values))
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
