#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload cold|fleet --seed N \
        --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (the
repository's libraries, chainsformer_serve, the benchmark program and its
self-tests) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs the self-tests, then runs the benchmark. Build output goes to stderr; the
benchmark's last stdout line is its JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    for need in ("src/CMakeLists.txt", "tools/chainsformer_serve.cc"):
        if not os.path.isfile(os.path.join(root, need)):
            log("no ChainsFormer sources next to perfbench/ (missing %s)" % need)
            return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(os.path.abspath(os.path.join(root, target)), "perfbench")
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(build, "tmp")  # keep compiler temp files here
    os.makedirs(env["TMPDIR"], exist_ok=True)

    def step(cmd):
        rc = subprocess.call(cmd, stdout=sys.stderr, env=env)
        if rc != 0:
            log("failed (%d): %s" % (rc, " ".join(cmd)))
        return rc

    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        cmd = ["cmake", "-S", bench_dir, "-B", build,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if step(cmd) != 0:
            return 1
    jobs = str(os.cpu_count() or 1)
    if step(["cmake", "--build", build, "-j", jobs]) != 0:
        return 1
    if step([os.path.join(build, "perfbench_selftest"), "--gtest_brief=1"]) != 0:
        return 1

    sys.stdout.flush()
    return subprocess.call(
        [os.path.join(build, "perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--serve-bin", os.path.join(build, "chainsformer_serve"),
         "--work-dir", os.path.join(build, "work")],
        env=env)


if __name__ == "__main__":
    sys.exit(main())
