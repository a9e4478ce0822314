#!/usr/bin/env python3
"""Builds the urpsm replay benchmark from source and runs it.

Run from the repository root:

    python3 perfbench/run.py --workload day_sequential --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

The library and the replay program are built with CMake into
.bench_build/perfbench (an incremental no-op after the first run). Build
output goes to stderr, so the last line of stdout is the replay program's
JSON result. The exit code is the replay program's: non-zero when an
argument is wrong, the build fails or an output check fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_replay")


def run(cmd):
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode == 0


def build():
    """Configures (once) and builds the replay program; True on success."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run(cmd):
            # Leave no half-configured tree behind for the next attempt.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run(["cmake", "--build", BUILD_DIR, "--target", "perfbench_replay",
                "-j", jobs])


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--trace" in args:
        args += ["--trace-dir", BUILD_DIR]
    sys.stdout.flush()
    return subprocess.run([BINARY] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
