#!/usr/bin/env python3
"""Checks that BENCHMARK.json lists exactly the metrics the binary prints.

Usage: catalogue_test.py <edgebench binary> <BENCHMARK.json>
"""

import json
import subprocess
import sys


def main(binary, benchmark_json):
    listed = subprocess.run([binary, "--list-metrics"], check=True,
                            capture_output=True, text=True).stdout
    catalogue = json.loads("{" + listed + "}")
    with open(benchmark_json) as f:
        bench = json.load(f)
    ok = True
    for key in ("end_to_end", "per_layer"):
        if bench[key] != catalogue[key]:
            print(f"{key}: BENCHMARK.json differs from `edgebench "
                  f"--list-metrics`", file=sys.stderr)
            ok = False
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    if len(names) != len(set(names)):
        print("duplicate metric names", file=sys.stderr)
        ok = False
    if not any(m["name"] == "setup_s" for m in bench["end_to_end"]):
        print("setup_s missing from end_to_end", file=sys.stderr)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
