"""Run one benchmark workload in this (fresh) process and print its metrics.

    python3 perfbench/run.py --workload ycsb_closed --seed 0 --seconds 24 --trace 0

Run it from the root of a checkout.  Every line but the last is a readout:
the seed and simulation seeds used, one output digest per experiment point,
and one line per metric with its unit and sample count.  The last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` an
untraced pass is followed by a traced pass of the same points and the metrics
are the per-layer ones.  A failed output check exits with status 1 and prints
no JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="host-time budget of the untraced run: the first "
                             "pass always runs in full, then its points "
                             "repeat while time remains")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(metrics) -> dict:
    for name, (value, unit, note) in metrics.items():
        print(f"metric {name} = {value!r} {unit}" + (f"  ({note})" if note else ""))
    return {name: {"value": value, "unit": unit}
            for name, (value, unit, _note) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: {SRC}/repro not found; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    start = perf_counter()
    import repro  # noqa: F401  (timed: part of setup_s)
    import_s = perf_counter() - start

    from perfbench import measure
    from perfbench.points import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"sim_seeds={workload.seeds(args.seed)} trace={args.trace}")
    try:
        if args.trace:
            passes, metrics = measure.measure_per_layer(workload, args.seed)
        else:
            passes, metrics = measure.measure_end_to_end(
                workload, args.seed, args.seconds, import_s)
    except measure.OutputError as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        return 1
    for r in passes[0]:
        s = r.summary
        print(f"digest {s.system} seed={s.seed} committed={s.committed} "
              f"aborted={s.aborted} {measure.digest(s)}")
    result = {"correct": True, "attempted": sum(map(len, passes)),
              "failed": 0, "metrics": report(metrics)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
