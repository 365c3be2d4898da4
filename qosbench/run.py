#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Run from the repository root:

    python3 qosbench/run.py --workload spc_replay --seed 1 --seconds 20 --trace 0

The script builds the `qosbench` package (a Cargo package of its own that
depends on the repository's crates by path) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs the workload in a child process, checks the
result line against `BENCHMARK.json`, and prints it as the last line of
output. It exits non-zero, without printing a result, if the build, the
run or the check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("spc_replay", "tenant_gateway", "control_loop")
# Seconds the child may run beyond its measured time (set-up, a last
# unit of work, output checks).
GRACE_SECONDS = 120


def fail(message):
    print(f"qosbench: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if not 0 < args.seconds <= 600:
        p.error("--seconds must be in (0, 600]")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def build():
    """Builds the benchmark binary and returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(BENCH_DIR / "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    binary = target / "release" / "qosbench"
    if not binary.is_file():
        fail(f"build produced no binary at {binary}")
    return binary


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json declares for this mode."""
    spec_path = Path("BENCHMARK.json")
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("result attempted no op")
    expected = expected_metrics(trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            fail(f"metrics {got} differ from BENCHMARK.json {expected}")


def main():
    args = parse_args()
    binary = build()
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True,
            timeout=args.seconds + GRACE_SECONDS,
        )
    except subprocess.TimeoutExpired:
        fail("the workload overran its time")
    if done.returncode != 0:
        fail(f"the workload exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("the workload printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"the last line is not JSON: {e}")
    check(result, args.trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
