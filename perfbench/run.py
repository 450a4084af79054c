#!/usr/bin/env python3
"""Builds and runs the solve-path benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload sim-serial --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (the repo's libraries plus fvdf_perfbench)
into $CARGO_TARGET_DIR or .bench_build; later runs reuse the build. The
benchmark's output is passed through; its last line is the result JSON. The
exit code is fvdf_perfbench's (non-zero when an output check failed), or 1 when
the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    source = "perfbench"
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found; run from the root of a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", build_dir, "--target", "fvdf_perfbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "fvdf_perfbench")


def expected_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    expected = expected_metrics(args.trace)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", target]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail("run exceeded %d s" % RUN_TIMEOUT_S)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("no result line (exit code %d)" % proc.returncode)
    got = set(result.get("metrics", {}))
    if got != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics %s do not match BENCHMARK.json %s" %
             (sorted(got ^ expected), "per_layer" if args.trace else "end_to_end"))
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
