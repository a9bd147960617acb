#!/usr/bin/env python3
"""Build the benchmark from the sources next to this directory, then run it.

    python3 perfbench/run.py --workload sa-crc --seed 1 --seconds 10 --trace 0

The build directory is $CARGO_TARGET_DIR if set, else .bench_build, relative
to the repository root; the first run configures and compiles it, later runs
only rebuild what changed. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. Exits nonzero when the build fails, when the
repository sources are missing, or when any simulation run was wrong.
"""
import argparse
import ctypes
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Time the benchmark binary may take beyond --seconds (set-up, warm-up).
RUN_SLACK_S = 150
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Turn off address-space randomization for the benchmark process.

    With ASLR the heap and stack land somewhere else in every process, and
    the simulators' token pools and decode caches with them; measured on a
    shared 4-vCPU x86 host, that alone moved the per-repetition rate ratios
    by up to 9% between runs of one seed (about 3% without it). Best effort:
    where the kernel refuses, the run goes ahead randomized.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit("perfbench: repository sources not found (%s missing next to perfbench/)"
                     % needed)

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    try:
        if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build, "--target", "perfbench", "-j", jobs],
                       check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    cmd = [os.path.join(build, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    timeout = args.seconds + RUN_SLACK_S
    try:
        return subprocess.run(cmd, timeout=timeout, preexec_fn=fixed_layout).returncode or 0
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %g s" % timeout)


if __name__ == "__main__":
    sys.exit(main())
