#!/usr/bin/env python3
"""End-to-end benchmark entry point (see README.md in this directory).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The script builds the generator and
the measuring program from source (CMake, into $CARGO_TARGET_DIR or
.bench_build), generates the workload's inputs from the seed (cached under
.bench_data, keyed by workload, seed and a hash of the generator source),
runs the measuring program once in a fresh process, and prints its JSON
result as the last line of standard output. Everything else goes to
standard error. The exit code is non-zero when the build, the generation or
any output check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("gzip-silesia", "pigz-base64", "single-block", "serve-zipf")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def fail(message):
    log(f"error: {message}")
    sys.exit(1)


def build():
    if not (os.path.isdir(os.path.join(ROOT, "src")) and os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))):
        fail(f"{ROOT} is not a rapidgzip source checkout (no src/ or CMakeLists.txt)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.join(ROOT, target), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "2"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir


def inputs(build_dir, workload, seed):
    with open(os.path.join(HERE, "gen.cpp"), "rb") as source:
        version = hashlib.sha256(source.read()).hexdigest()[:12]
    cache = os.path.join(ROOT, ".bench_data")
    directory = os.path.join(cache, f"{workload}-seed{seed}-{version}")
    if os.path.isfile(os.path.join(directory, "record.txt")):
        return directory
    # Keep one input set per workload: the cache stays a few hundred MiB.
    if os.path.isdir(cache):
        for entry in os.listdir(cache):
            if entry.startswith(workload + "-seed"):
                shutil.rmtree(os.path.join(cache, entry))
    staging = directory + ".partial"
    for sub in ("archives", "raw"):
        os.makedirs(os.path.join(staging, sub), exist_ok=True)
    began = time.monotonic()
    generator = [os.path.join(build_dir, "perfbench_gen"), workload, str(seed), staging]
    if subprocess.run(generator, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        shutil.rmtree(staging)
        fail("input generation failed")
    os.rename(staging, directory)
    log(f"generated {workload} inputs for seed {seed} in {time.monotonic() - began:.1f} s")
    return directory


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as file:
            spec = json.load(file)
    except OSError:
        return None
    return {entry["name"] for entry in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir = build()
    data = inputs(build_dir, args.workload, args.seed)

    command = [os.path.join(build_dir, "perfbench_run"), "--workload", args.workload, "--data", data,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spawn-ns", str(time.monotonic_ns())]
    try:
        finished = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                                  timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"measuring program did not finish within {RUN_TIMEOUT_S} s")
    lines = finished.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if not lines:
        fail(f"measuring program printed no result (exit code {finished.returncode})")
    result = json.loads(lines[-1])

    expected = expected_metrics(args.trace)
    if expected is not None and result["correct"] and set(result["metrics"]) != expected:
        fail(f"metric set differs from BENCHMARK.json: {sorted(set(result['metrics']) ^ expected)}")
    print(json.dumps(result), flush=True)
    sys.exit(finished.returncode)


if __name__ == "__main__":
    main()
