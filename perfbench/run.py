#!/usr/bin/env python3
"""Run one benchmark workload of the dsouth library.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark driver (perfbench/CMakeLists.txt, which compiles the
library from ../src) on first use, then runs the named workload and passes
its output through. The last line of standard output is the driver's JSON
result object. Build output goes to standard error; a failed build exits
non-zero without printing a result.

The build directory is $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), relative to the repository root.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(bdir):
    """Configure (once) and build the driver; returns its path or None."""
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Keep the compiler's temporary files inside the build tree.
    env = dict(os.environ, TMPDIR=tmp)
    # Serialise concurrent builds in one checkout.
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            cfg = subprocess.run(
                ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr, env=env)
            if cfg.returncode != 0:
                return None
        res = subprocess.run(
            ["cmake", "--build", bdir, "--target", "perfbench_driver",
             "-j", BUILD_JOBS],
            stdout=sys.stderr, stderr=sys.stderr, env=env)
        if res.returncode != 0:
            return None
    exe = os.path.join(bdir, "perfbench_driver")
    return exe if os.path.exists(exe) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    exe = build(build_dir())
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    sys.stdout.flush()
    res = subprocess.run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT)
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
