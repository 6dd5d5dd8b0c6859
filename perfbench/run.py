#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload fig08-dynamic --seed 1 \\
        --seconds 30 --trace 0

Configures and builds perfbench/ (which compiles the simulator from src/)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset, then runs the perfbench binary. The build log stays in
the build directory. The binary's stdout passes through unchanged; its last
line is the JSON result. The last traced pass's spans are written next to
the binary as a Chrome trace. Exits non-zero, without a result, when the
build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def run_logged(command, log_path):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(command) + "\n")
        log.flush()
        return subprocess.run(command, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode


def build(directory):
    os.makedirs(directory, exist_ok=True)
    log_path = os.path.join(directory, "build.log")
    cache = os.path.join(directory, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build tree configured from another checkout cannot be reused.
        with open(cache) as text:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in text.read():
                shutil.rmtree(directory)
                os.makedirs(directory)
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", directory,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if run_logged(configure, log_path) != 0:
            # A failed configure leaves a cache that would skip it next time.
            if os.path.exists(cache):
                os.remove(cache)
            return log_path, False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    status = run_logged(["cmake", "--build", directory, "--target",
                         "perfbench", "-j", jobs], log_path)
    return log_path, status == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    directory = build_dir()
    log_path, ok = build(directory)
    if not ok:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-30:]))
        sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
        return 1

    command = [os.path.join(directory, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--spans", os.path.join(directory,
                                       "spans-%s.json" % args.workload)]
    sys.stdout.flush()
    # The benchmark replaces this process, so it has no child to outlive it.
    os.execv(command[0], command)


if __name__ == "__main__":
    sys.exit(main())
