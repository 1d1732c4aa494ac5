#!/usr/bin/env python3
"""Build and run the securebit benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload mp_lying --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The program is built from source
with dune into the checkout's own _build directory, then run as a single
process; its standard output is passed through, so the last line is the
JSON result.  Exits non-zero if the build fails, if the run fails any
output check, or if it does not finish in time.
"""

import argparse
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["mp_lying", "nw_dense", "sweep_s1"])
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    # Keep every build artefact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    run = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        # subprocess.run kills and reaps the child on timeout.
        done = subprocess.run(run, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
