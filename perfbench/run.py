#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload, or all three.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is suite_default, kernel_large, small_mixed, or `all` for the three in
turn. Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); cargo's own output goes to standard error, so the
last line of standard output is the benchmark's result object. Exits
non-zero, without a result, when the build or a run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["suite_default", "kernel_large", "small_mixed"]


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:]
    runs = [args]
    if "--workload" in args and args.index("--workload") + 1 < len(args):
        i = args.index("--workload") + 1
        if args[i] == "all":
            runs = [args[:i] + [w] + args[i + 1:] for w in WORKLOADS]
    for run in runs:
        code = subprocess.run([exe] + run, env=env).returncode
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
