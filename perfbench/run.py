#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fleet_ring_d1 --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ (a standalone CMake project over ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
benchmark's self-tests once per build, then runs one workload. The last
line of stdout is the JSON result; build output goes to stderr. Exits
non-zero, without a result, when the sources or the build are missing.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_ring_d1", "fleet_socket_d4", "collector_tcp_wal")
# A workload run must end within 180 s; leave room for teardown.
RUN_BUDGET_S = 170.0


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)


def self_test(build_dir, work_dir):
    binary = os.path.join(build_dir, "perfbench_selftest")
    stamp = os.path.join(build_dir, "selftest.passed")
    if (os.path.exists(stamp)
            and os.path.getmtime(stamp) >= os.path.getmtime(binary)):
        return
    subprocess.run([binary, work_dir], check=True, stdout=sys.stderr,
                   timeout=120)
    with open(stamp, "w") as f:
        f.write("ok\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "fleet.h")):
        log("capp sources not found at %s; nothing to build" %
            os.path.join(ROOT, "src"))
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    work_dir = os.path.join(build_root, "run")
    # Loopback unix sockets go under the checkout too; a relative path
    # keeps them within sockaddr_un's 108-byte limit.
    sock_dir = os.path.join(work_dir, "sock")
    os.makedirs(sock_dir, exist_ok=True)
    try:
        build(build_dir)
        self_test(build_dir, work_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        log("build or self-test failed: %s" % err)
        return 1

    env = dict(os.environ)
    env["TMPDIR"] = os.path.relpath(sock_dir, ROOT)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--work-dir", os.path.relpath(work_dir, ROOT)]
    try:
        return subprocess.run(command, cwd=ROOT, env=env,
                              timeout=RUN_BUDGET_S).returncode
    except subprocess.TimeoutExpired:
        log("workload did not finish within %.0f s" % RUN_BUDGET_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
