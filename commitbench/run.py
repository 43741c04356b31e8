#!/usr/bin/env python3
"""Build and run the live-cluster commit benchmark.

Run from the root of a checkout:

    python3 commitbench/run.py --workload kv-vanilla-heavy --seed 1 \
        --seconds 20 --trace 0
    python3 commitbench/run.py --selftest      # the benchmark's unit tests

The benchmark is compiled from the checkout's sources (CMake, Release) into
$CARGO_TARGET_DIR/commitbench, default .bench_build/commitbench, on first
use. The last line of standard output is the benchmark's JSON result; the
exit code is the benchmark's (0 = every correctness check passed).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175  # the benchmark must end within 180 s


def log(msg):
    print(f"commitbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "commitbench")


def build(bdir):
    """Configure (once) and build; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "load", "fleet.hpp")):
        log(f"no Setchain sources under {ROOT}/src; run from a full checkout")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_checked(cmd, timeout):
    """Run cmd, passing its stdout through; kill it (and wait) on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"timed out after {timeout} s")
        return 1, ""
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's unit tests")
    args = ap.parse_args()

    bdir = build_dir()
    if not build(bdir):
        return 2
    if args.selftest:
        return subprocess.run(["ctest", "--test-dir", bdir, "--output-on-failure"],
                              stdout=sys.stderr, stderr=sys.stderr).returncode
    if not args.workload:
        ap.error("--workload is required")

    work = os.path.join(bdir, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(bdir, "commitbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work]
    code, out = run_checked(cmd, RUN_TIMEOUT_S)
    lines = out.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        log("no result printed")
        return code or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("last line is not a JSON result")
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
