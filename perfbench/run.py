#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload batch-cold --seed 1 --seconds 10 --trace 0

Builds the analyzer from ../src together with the benchmark program (CMake,
RelWithDebInfo, under .bench_build/perfbench), runs one workload, and prints
the program's output; its last line is the JSON result. The result's metric
names are checked against BENCHMARK.json before it is printed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-cold", "edit-rerun", "serve-warm")
# A run ends well inside the 180 s a run may take; the build is separate.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def build(build_dir):
    """Configures (once) and builds the benchmark; logs go to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr) == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("no analyzer sources at %s/src; run from a full checkout"
                    % ROOT)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        return fail("cannot read BENCHMARK.json: %s" % e)

    os.chdir(ROOT)
    build_dir = os.path.join(".bench_build", "perfbench")
    if not build(build_dir):
        return fail("build failed")

    workdir = os.path.join(".bench_build", "run-%d" % os.getpid())
    trace_out = os.path.join(".bench_build", "traces",
                             "%s-seed%d.json" % (args.workload, args.seed))
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", workdir, "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        return fail("no JSON result (exit code %d)" % proc.returncode)
    wanted = [m["name"] for m in spec["per_layer" if args.trace == "1"
                                      else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(wanted):
        return fail("metrics printed differ from BENCHMARK.json")
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
