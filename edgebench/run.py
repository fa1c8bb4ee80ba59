#!/usr/bin/env python3
"""Builds the edgebench binary from the checkout's sources and runs it.

Usage (from the root of a checkout):

    python3 edgebench/run.py --workload lr-intra --seed 1 --seconds 10 --trace 0

Every argument is passed to the binary unchanged (see edgebench/src/main.cc).
The build lives in .bench_build/edgebench and is incremental, so only the
first run in a checkout compiles the engine. Build output goes to stderr; the
binary's report goes to stdout, and its last line is the JSON result.

GENEALOG_* variables are removed from the binary's environment so every run
measures the engine's default options unless a workload states otherwise.
"""

import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def main(argv):
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "queries" / "queries.h").is_file():
        print(f"edgebench: no engine sources under {root / 'src'}",
              file=sys.stderr)
        return 2
    build = root / ".bench_build" / "edgebench"
    scratch = root / ".bench_build" / "edgebench-scratch"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "edgebench"), "-B", str(build),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build), "--target", "edgebench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("edgebench: build failed", file=sys.stderr)
            return 2

    env = {k: v for k, v in os.environ.items()
           if not k.startswith("GENEALOG_")}
    command = [str(build / "edgebench"), *argv, "--scratch", str(scratch)]
    sys.stdout.flush()
    try:
        return subprocess.run(command, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"edgebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
