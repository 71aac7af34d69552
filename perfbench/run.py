#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper|serve-c7552 \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds perfbench/main.exe and
the daemon it drives (bin/merlin_cli.exe) with dune (build output goes
to stderr), runs the benchmark with the same arguments and passes its
exit code on; the last line of standard output is the
result, one JSON object.  It fails, without printing a result, when the
checkout does not hold the repository it measures.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["paper", "serve-c7552"]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("run.py: no dune-project at %s; nothing to build" % ROOT,
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe",
         "./bin/merlin_cli.exe"],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    built = os.path.join(ROOT, "_build", "default")
    run = subprocess.run(
        [os.path.join(built, "perfbench", "main.exe"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--daemon", os.path.join(built, "bin", "merlin_cli.exe")],
        cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
