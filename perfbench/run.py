#!/usr/bin/env python3
"""Build and run the AmgT host wall-clock benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py \
        --workload <cold_solve|parallel_stream|service> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `amgt-perfbench` package (perfbench/Cargo.toml) in release mode
into $CARGO_TARGET_DIR (default `.bench_build`), then runs it with the same
arguments. The last line of standard output is the benchmark's JSON result;
build output and the human-readable summary go to standard error. A traced
run (`--trace 1`) also writes its spans as a Chrome trace file under
`<target dir>/perfbench-traces/`.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold_solve", "parallel_stream", "service")
# Time a run may take beyond --seconds: inputs, set-up samples, warm-up.
RUN_SLACK_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")

    command = [
        os.path.join(target, "release", "amgt-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        trace_file = f"{args.workload}-seed{args.seed}.json"
        command += ["--trace-out", os.path.join(target, "perfbench-traces", trace_file)]
    timeout = args.seconds + RUN_SLACK_S
    try:
        run = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout:g} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"benchmark exited {run.returncode} without a result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"last output line is not JSON: {e}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
