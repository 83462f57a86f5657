#!/usr/bin/env python3
"""Build and run the session-platform benchmark.

Run from the root of a source checkout:

    python3 sessbench/run.py --workload <name> [--seed <n>] --seconds <s> [--trace <0|1>]

Workloads: sim-mixed, sim-storm, thread-n3, wire-n3-loss10 (see
sessbench/src/workloads.hpp). The first run configures and builds
sessbench/ (which compiles the library from src/) in Release mode under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
re-check the build. Build output goes to stderr. The benchmark binary's
output is passed through, so the last line of stdout is its JSON result.
The exit code is non-zero, with no result printed, when the sources are
missing, the build fails, or the run fails or exceeds its time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sim-mixed", "sim-storm", "thread-n3", "wire-n3-loss10")
# The default workload seed; baseline.json records it with a held-out seed
# kept for re-checking later claims.
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 850
RUN_SLACK_S = 100  # beyond --seconds: set-up, checks, the traced extras


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "sessbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "svc", "client.hpp")):
        print("sessbench: run from the root of a source checkout "
              "(src/ not found)", file=sys.stderr)
        return 2

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(os.path.join(root, "sessbench"))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"sessbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        print("sessbench: run exceeded its time limit", file=sys.stderr)
        return 3
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        print(f"sessbench: run exited with {run.returncode}", file=sys.stderr)
        return 3
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
