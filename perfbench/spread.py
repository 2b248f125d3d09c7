#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root::

    python3 perfbench/spread.py --workload pbft-rubin --runs 10 [--first-seed 1]

Runs ``perfbench/run.py --trace 0`` once per seed, one run at a time, and
prints for each end-to-end metric its median and the distance between
its first and third quartile as a share of the median, next to a third
of the metric's bound (the steadiness target), and the same for the host-time figures
before scaling to the reference host (``(unscaled)`` rows).  Exits non-zero if a run
fails, is incorrect, or a spread other than ``setup_s``'s exceeds its
bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import spec  # noqa: E402
from perfbench.stats import relative_spread  # noqa: E402


#: Table rows of run.py giving the host-time figures before scaling.
UNSCALED = ("ops_per_host_s (unscaled)", "setup host s (unscaled)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    args = parser.parse_args(argv)

    values = {m.name: [] for m in spec.END_TO_END}
    unscaled = {name: [] for name in UNSCALED}
    status = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [
            sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        line = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {line}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        for row in lines:
            for name in UNSCALED:
                if row.startswith(name):
                    unscaled[name].append(float(row[len(name):].split()[0]))

    print(f"{'metric':16s} {'median':>12s} {'IQR/median':>11s} {'bound/3':>8s}")
    for metric in spec.END_TO_END:
        spread = relative_spread(values[metric.name])
        print(
            f"{metric.name:16s} {statistics.median(values[metric.name]):12.5g} "
            f"{spread:11.4f} {metric.bound / 3:8.4f}"
        )
        if metric.name != "setup_s" and spread > metric.bound:
            status = 1
    for name, column in unscaled.items():
        if len(column) == len(values["setup_s"]):
            print(f"{name:16s} {statistics.median(column):12.5g} {relative_spread(column):11.4f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
