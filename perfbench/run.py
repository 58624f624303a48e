#!/usr/bin/env python3
"""Builds and runs the T-Mark benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <paper-cold|scale-ann|serve-mutate> \
        --seed N --seconds S --trace 0|1

Builds `perfbench/` in release mode (into `$CARGO_TARGET_DIR`, default
`.bench_build`), then runs it with the solver pool pinned to one thread.
Prints a provenance line (solver thread cap, host cores, rustc, commit)
and passes the benchmark's own output through; its last line is the
result object.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
# Every timed run uses one solver thread; two-thread figures appear only
# as `pool.cap2_speedup` in a traced `scale-ann` run.
SOLVER_THREADS = "1"
RUN_TIMEOUT_S = 170


def capture(cmd):
    # Keep git from searching above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, check=False, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "perfbench")
    env["TMARK_SOLVER_THREADS"] = SOLVER_THREADS
    provenance = {
        "solver_threads": SOLVER_THREADS,
        "nproc": os.cpu_count(),
        "rustc": capture(["rustc", "--version"]),
        "commit": capture(["git", "rev-parse", "HEAD"]),
    }
    print(json.dumps({"provenance": provenance}), flush=True)
    try:
        run = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
