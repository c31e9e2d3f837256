#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload dashboard|adhoc|ingest \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the pairwisehist library and the perfbench binary from source into
.bench_build/ (CMake, Release), runs the self-tests of the benchmark's own
statistics, then runs one workload. The binary's standard output passes
through unchanged; its last line is one JSON object with the keys
correct, attempted, failed and metrics. Build output goes to stderr.
Exits non-zero when the build, the self-tests or the run fail.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")
WORKLOADS = ("dashboard", "adhoc", "ingest")
# A run must finish within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log(f"no library sources under {ROOT}/src; nothing to benchmark")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def run(cmd, timeout):
    """Runs cmd with stdout passed through; returns its exit code."""
    proc = subprocess.Popen(cmd, stdout=sys.stdout, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"timed out after {timeout} s: {' '.join(cmd)}")
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="only run the statistics self-tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    if not build():
        return 1
    sys.stdout.flush()
    if run([os.path.join(BUILD_DIR, "perfbench_selftest")], 60) != 0:
        log("self-tests failed")
        return 1
    if args.selftest:
        return 0

    work_dir = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}")
    try:
        return run([os.path.join(BUILD_DIR, "perfbench"),
                    "--workload", args.workload,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(args.trace),
                    "--work-dir", work_dir], RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
