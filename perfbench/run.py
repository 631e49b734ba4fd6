#!/usr/bin/env python3
"""Build and run the HetStream benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the
libraries from ../src) into $CARGO_TARGET_DIR, or .bench_build when that is
unset, then runs one workload. The binary's standard output is passed
through; its last line is the JSON result. Build output goes to stderr.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["archive-silesia", "archive-source", "serve-open"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        fail(f"no HetStream sources at {os.path.join(REPO_ROOT, 'src')}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "hsbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "hsbench")


def run_one(binary, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        # A run takes about --seconds plus set-up; a hung run is killed.
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=min(170, 60 + 4 * args.seconds))
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish in time")
    out = done.stdout.decode(errors="replace")
    sys.stdout.write(out)
    sys.stdout.flush()
    if done.returncode != 0:
        fail(f"{workload} exited with code {done.returncode}")
    try:
        json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail(f"{workload} did not end with a JSON result line")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be in [1, 60]")
    if args.seed < 0:
        fail("--seed must be >= 0")

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(REPO_ROOT,
                                                           ".bench_build"))
    binary = build(build_dir)
    for workload in (WORKLOADS if args.workload == "all" else [args.workload]):
        run_one(binary, workload, args)


if __name__ == "__main__":
    main()
