#!/usr/bin/env python3
"""Builds the perfbench program from source and runs it.

    python3 perfbench/run.py --workload check-hot --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --short        # every workload, small, checked

Run from the repository root. The program and the library it measures are
compiled into $CARGO_TARGET_DIR (default .bench_build) with the CMake file in
this directory; later runs reuse the build. The program's standard output is
passed through unchanged: its last line is the JSON result. Build output
goes to standard error.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no sentinelpp sources (src/CMakeLists.txt) next to "
              "perfbench/", file=sys.stderr)
        return False
    cmake_dir = os.path.join(out, "perfbench")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    out = build_dir()
    if not build(out):
        return 2
    binary = os.path.join(out, "perfbench", "perfbench")
    command = [binary] + argv + ["--out-dir", os.path.join(out, "out")]
    sys.stdout.flush()
    child = subprocess.Popen(command, cwd=ROOT)
    try:
        return child.wait()
    except BaseException:
        child.kill()
        child.wait()
        raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
