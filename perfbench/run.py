#!/usr/bin/env python3
"""Benchmark command of gssynth.

    python3 perfbench/run.py --workload sweep-free --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from `src/`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`.  Progress and any wrong output go to
standard error.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    package = os.path.join(SRC, "gssynth")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"perfbench: no gssynth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench

    if os.path.dirname(os.path.abspath(bench.gssynth.__file__)) != package:
        print(f"perfbench: gssynth was imported from outside {SRC}", file=sys.stderr)
        return 2
    if args.workload not in bench.WORKLOADS:
        choices = ", ".join(bench.WORKLOADS)
        parser.error(f"unknown workload {args.workload!r}; choose from {choices}")
    result = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
