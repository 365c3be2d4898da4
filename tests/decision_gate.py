#!/usr/bin/env python3
"""Check that the benchmark's decisions match the committed record exactly.

Run from the repository root:

    python3 tests/decision_gate.py            # compare with tests/decisions.json
    python3 tests/decision_gate.py --write    # rewrite tests/decisions.json

For each seed and workload it runs `qosbench/run.py` twice: with `--trace 1`
for the exact per-layer counts, and with `--trace 0` for `qos_met_ppm` and
`ok_ratio`. These values come from the workload's first unit, so they are
decisions (queue bounds, quotes, placements, retunes), not speed: a change
that moves one of them changed what the system decided. Every value is
compared exactly. The script exits non-zero and names each difference.

Only names whose value is the same at `--seconds 2` and `--seconds 6` are
gated; `--seconds 6` re-runs the comparison at the longer length.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RECORD = Path(__file__).resolve().parent / "decisions.json"
SEEDS = (1, 9001)
WORKLOADS = ("spc_replay", "tenant_gateway", "control_loop")
END_TO_END = ("qos_met_ppm", "ok_ratio")
COUNTS = (
    "stream.shaper.chunks",
    "core.overflow_ratio.fcfs",
    "core.overflow_ratio.split",
    "core.overflow_ratio.fairqueue",
    "core.overflow_ratio.miser",
    "obs.longterm.resident_sketches",
    "control.slo.commands",
    "control.slo.resyncs",
    "control.driver.retries",
    "control.driver.expired",
    "control.plane.rejected",
    "core.fleet.cold_searches",
    "core.fleet.probes",
    "core.fleet.quote_cache_hit_ratio",
    "stream.gateway.shed_ratio",
)


def run(workload, seed, seconds, trace):
    cmd = [
        sys.executable, "qosbench/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"decision gate: {' '.join(cmd[1:])} exited with {done.returncode}")
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in (COUNTS if trace else END_TO_END)}


def measure(seconds):
    decisions = {}
    for seed in SEEDS:
        for workload in WORKLOADS:
            values = run(workload, seed, seconds, 1)
            values.update(run(workload, seed, seconds, 0))
            decisions[f"{workload}/{seed}"] = values
    return decisions


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", action="store_true", help="rewrite the record")
    p.add_argument("--seconds", type=float, default=2.0)
    args = p.parse_args()
    decisions = measure(args.seconds)
    if args.write:
        RECORD.write_text(json.dumps(decisions, indent=2, sort_keys=True) + "\n")
        print(f"decision gate: wrote {RECORD.name}")
        return
    record = json.loads(RECORD.read_text())
    diffs = [
        f"{run_key} {name}: recorded {want!r}, got {decisions.get(run_key, {}).get(name)!r}"
        for run_key, values in sorted(record.items())
        for name, want in sorted(values.items())
        if decisions.get(run_key, {}).get(name) != want
    ]
    for line in diffs:
        print(line)
    if diffs:
        sys.exit(f"decision gate: {len(diffs)} decisions differ from {RECORD.name}")
    print(f"decision gate: {sum(len(v) for v in record.values())} decisions match")


if __name__ == "__main__":
    main()
