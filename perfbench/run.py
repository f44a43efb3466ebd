#!/usr/bin/env python3
"""Builds the StreamLoader wall-clock benchmark and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload live_chain --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The benchmark binary is compiled from source into .bench_build/perfbench
(Release) on first use; later calls only re-run the incremental build.
Build output goes to stderr so that the last line on stdout is the
result object. A failed build exits non-zero without printing a result.
"""

import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "slbench")


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        # Concurrent invocations in one checkout share the build tree.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "slbench",
                      "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                return False
    return os.path.exists(BINARY)


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    os.execv(BINARY, [BINARY] + sys.argv[1:])
    return 2  # not reached


if __name__ == "__main__":
    sys.exit(main())
