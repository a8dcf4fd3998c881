"""Seed-spread readout: run a workload on several seeds and summarise.

    python3 perfbench/spread.py --workloads ycsb_closed tpcc_closed --seeds 0-9

Each seed runs ``perfbench/run.py`` in its own fresh process, one after the
other.  For every metric the readout gives the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, which is the spread ``BENCHMARK.json``'s bounds are
checked against.  Sim-time metrics are exact at a fixed seed but vary
between seeds, so a ``sim_*`` claim is re-checked on held-out seeds, never
judged across seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed={seed} failed "
                         f"({out.returncode}):\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default="0-9")
    parser.add_argument("--seconds", type=float, default=24.0)
    args = parser.parse_args(argv)
    runs = {}
    for workload in args.workloads:
        runs[workload] = [run_once(workload, seed, args.seconds)
                          for seed in args.seeds]
        print(f"{workload}: seeds {args.seeds[0]}..{args.seeds[-1]}")
        for name in runs[workload][0]:
            values = [run[name]["value"] for run in runs[workload]]
            if min(values) == max(values):
                print(f"  {name:40s} constant {values[0]!r}")
                continue
            median, q1, q3, share = spread(values)
            print(f"  {name:40s} median {median:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {share:7.2%}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
