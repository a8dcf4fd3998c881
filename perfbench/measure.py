"""Run a workload's points and turn them into the benchmark's metrics.

A *pass* runs every point of a workload once, serially, in this process.
End-to-end metrics come from one untraced pass followed by repeats of its
points, in order, for as long as the run's host-time budget allows;
per-layer metrics come from one traced pass (see :mod:`perfbench.probes`).
Every point must pass the program's own invariant catalog, and every repeat
must reproduce the first pass's digest for that point; otherwise
:class:`OutputError` is raised and no metric is reported.  Host seconds in
the end-to-end metrics are scaled to the reference machine's speed (see
:mod:`perfbench.calibration`).
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import count, groupby
from time import perf_counter
from typing import Dict, List, Optional, Sequence

import repro
from repro.bench.runner import ExperimentConfig, ExperimentSummary, run_experiment
from repro.recovery.invariants import violations

from perfbench.calibration import host_speed, reference_seconds
from perfbench.points import Workload
from perfbench.probes import PointClock, PointTrace, Probes

#: Fig. 6c phases, reported as ``middleware.phase.<phase>_ms``.
PHASES = ("analysis", "execution", "prepare", "commit")

#: ``import repro`` timings per run (this process plus fresh interpreters);
#: ``setup_s`` takes their median.
IMPORT_SAMPLES = 3

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import repro; "
                 "print(time.perf_counter() - t)")

#: A tail percentile is reported only when the run leaves at least this many
#: samples above it.
MIN_TAIL_SAMPLES = 10


class OutputError(RuntimeError):
    """The simulated output failed a check; the run reports no metrics."""


@dataclass
class PointResult:
    config: ExperimentConfig
    summary: ExperimentSummary
    wall_s: float
    clock: PointClock
    trace: Optional[PointTrace]
    #: Host seconds of the reference loop run just before the point; 0 when
    #: the point was not calibrated.
    ref_s: float = 0.0

    @property
    def geotp(self) -> bool:
        return self.config.system == "geotp"

    @property
    def shed(self) -> int:
        return (self.summary.open_loop or {}).get("dropped", 0)

    @property
    def whole_run_commits(self) -> int:
        """Commits over the whole simulated run, warm-up included."""
        return self.summary.resources.committed


def digest(summary) -> str:
    """Hash of one point's simulated outcome."""
    payload = json.dumps([
        summary.system, summary.seed, summary.committed, summary.aborted,
        sorted(summary.abort_reasons.items()),
        [repr(x) for x in summary.latency_samples]])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def run_point(probes: Probes, config: ExperimentConfig,
              calibrate: bool = False) -> PointResult:
    """Run one point; with ``calibrate``, time the reference loop first."""
    # The previous point's cyclic garbage would otherwise be collected
    # inside this point's set-up and be timed there.
    gc.collect()
    ref_s = reference_seconds() if calibrate else 0.0
    with probes.point() as (clock, point_trace):
        start = perf_counter()
        summary = run_experiment(config).summary()
        wall_s = perf_counter() - start
    failed = violations(summary.invariants)
    if failed:
        raise OutputError(
            f"{config.system} seed={config.seed}: invariant failed: "
            + "; ".join(failed))
    return PointResult(config, summary, wall_s, clock, point_trace, ref_s)


def run_pass(workload: Workload, seed: int, trace: bool,
             calibrate: bool = False) -> tuple:
    """Run every point once; returns ``(results, probes)``."""
    with Probes(trace) as probes:
        results = [run_point(probes, config, calibrate)
                   for config in workload.points(seed)]
    return results, probes


def check_same_output(first: Sequence[PointResult],
                      other: Sequence[PointResult]) -> None:
    for a, b in zip(first, other):
        if digest(a.summary) != digest(b.summary):
            raise OutputError(
                f"{a.config.system} seed={a.config.seed}: a repeated run "
                "simulated a different outcome")


def fresh_import_seconds() -> float:
    """One ``import repro`` in a fresh interpreter, its start-up excluded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                         cwd=os.path.dirname(src),
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ statistics
def quantile(samples: Sequence[float], q: float) -> float:
    """Parzen's mid-quantile: linear between distinct values.

    Simulated latencies sit on a grid set by the fixed link latencies, so a
    plain order statistic is usually one of a few tied values and does not
    move when the share of transactions at that value changes.  The
    mid-quantile interpolates between distinct values at their mid-ranks; on
    untied data it equals the usual interpolated quantile.  Samples are
    compared to the nanosecond, so float rounding in the clock does not split
    a tie.
    """
    xs = sorted(round(x, 6) for x in samples)
    n = len(xs)
    values: List[float] = []
    heights: List[float] = []
    below = 0
    for value, group in groupby(xs):
        count = sum(1 for _ in group)
        values.append(value)
        heights.append((below + count / 2) / n)
        below += count
    if q <= heights[0]:
        return values[0]
    if q >= heights[-1]:
        return values[-1]
    i = bisect.bisect_left(heights, q)
    h0, h1 = heights[i - 1], heights[i]
    return values[i - 1] + (values[i] - values[i - 1]) * (q - h0) / (h1 - h0)


def _pooled(results: Sequence[PointResult]):
    samples = [x for r in results for x in r.summary.latency_samples]
    committed = sum(r.summary.committed for r in results)
    measured_s = sum(r.summary.measured_duration_ms for r in results) / 1000.0
    return samples, committed / measured_s


def tail(samples: Sequence[float], q: float = 0.99) -> tuple:
    """``(quantile, samples above it)``; raises if the tail is too thin."""
    value = quantile(samples, q)
    above = sum(1 for x in samples if x > value)
    if above < MIN_TAIL_SAMPLES:
        raise OutputError(f"only {above} samples above p{q * 100:g} "
                          f"({len(samples)} samples)")
    return value, above


# ----------------------------------------------------------------- metrics
def end_to_end(passes: List[List[PointResult]], import_s: List[float],
               rss_mb: float) -> Dict[str, tuple]:
    """``{name: (value, unit, note)}`` for every end-to-end metric.

    ``passes[0]`` is a full pass, which gives the sim-time metrics; the
    later lists hold repeated points.  Host metrics pool every point run.
    ``setup_s`` counts every point of a pass at its system's median set-up
    time, as points of one system differ only in their seed.  Both host
    metrics are scaled by the host's speed over the run, measured by the
    reference loops run before the points.
    """
    first = passes[0]
    timed = [r for results in passes for r in results]
    geotp = [r for r in first if r.geotp]
    samples, sim_tps = _pooled(geotp)
    p99, above = tail(samples)
    speed = host_speed([r.ref_s for r in timed if r.ref_s])
    run_s = sum(r.clock.run_s for r in timed)
    raw_rate = sum(r.whole_run_commits for r in timed) / run_s
    committed = sum(r.summary.committed for r in first)
    failed = sum(r.summary.aborted + r.shed for r in first)
    setups: Dict[str, List[float]] = defaultdict(list)
    for r in timed:
        setups[r.config.system].append(r.clock.build_s + r.clock.load_s)
    points = Counter(r.config.system for r in first)
    raw_setup = statistics.median(import_s) + sum(
        n * statistics.median(setups[system]) for system, n in points.items())
    return {
        "host_commits_per_s": (raw_rate / speed, "txn/host-s",
                               f"{len(timed)} points in {run_s:.2f} s; "
                               f"{raw_rate:.1f} unscaled at host speed "
                               f"{speed:.3f}"),
        "setup_s": (raw_setup * speed, "s",
                    f"import {statistics.median(import_s):.4f} s + "
                    f"{len(first)} points; {raw_setup:.4f} unscaled"),
        "peak_rss_mb": (rss_mb, "MiB", "ru_maxrss of this process"),
        "sim_tps": (sim_tps, "txn/sim-s", f"{len(geotp)} GeoTP points"),
        "sim_p50_ms": (quantile(samples, 0.5), "sim-ms",
                       f"n={len(samples)}"),
        "sim_p99_ms": (p99, "sim-ms", f"n={len(samples)}, {above} above"),
        "failed_ratio": (failed / (committed + failed), "fraction",
                         f"{failed} aborted+shed of {committed + failed}"),
    }


def per_layer(traced: List[PointResult], untraced: List[PointResult],
              probes: Probes) -> Dict[str, tuple]:
    """``{name: (value, unit, note)}`` for every per-layer metric.

    Host seconds of set-up come from the untraced pass; the per-call timers
    only exist in the traced pass and include cProfile's per-call cost.
    """
    geotp = [r for r in traced if r.geotp]
    ssp = [r for r in traced if not r.geotp]
    commits = sum(r.whole_run_commits for r in traced) or 1
    traces = [r.trace for r in traced]

    def per_commit(counter: str) -> float:
        return sum(getattr(t, counter) for t in traces) / commits

    def us_per_call(timer: str) -> float:
        timers = [getattr(t, timer) for t in traces]
        calls = sum(t.calls for t in timers)
        return sum(t.seconds for t in timers) / calls * 1e6 if calls else 0.0

    def seconds(timer: str) -> float:
        return sum(getattr(t, timer).seconds for t in traces)

    def resources(field: str) -> float:
        return sum(getattr(r.summary.resources, field) for r in traced) / commits

    _, geotp_tps = _pooled(geotp)
    ssp_samples, ssp_tps = _pooled(ssp)
    lcs = [x for r in geotp for x in r.trace.lcs_ms]
    delays = [x for t in traces for x in t.dispatch_delays_ms]
    admission = [r.summary.admission for r in geotp if r.summary.admission]
    draws = sum(a["admitted"] + a["blocked"] + a["rejected"] for a in admission)
    offered = sum((r.summary.open_loop or {}).get("offered", 0) for r in traced)
    faults = [r.summary.faults for r in geotp if r.summary.faults]
    in_doubt = sum(rec["committed"] + rec["rolled_back"]
                   for f in faults for rec in f["recoveries"])
    recover_ms = [ms for f in faults for ms in f["time_to_recover_ms"].values()
                  if ms is not None]
    geotp_commits = sum(r.summary.committed for r in geotp) or 1
    shares = probes.self_shares()
    traced_wall_s = sum(r.wall_s for r in traced)
    untraced_wall_s = sum(r.wall_s for r in untraced)

    metrics = {
        "sim.events_per_commit": (
            sum(r.summary.events_processed for r in traced) / commits,
            "count", "all points"),
        "sim.processes_per_commit": (per_commit("processes"), "count", ""),
        "network.messages_per_commit": (per_commit("messages"), "count", ""),
        "storage.lock_acquires_per_commit": (
            per_commit("lock_acquires"), "count", ""),
        "storage.lock_wait_ratio": (
            sum(t.lock_waits for t in traces)
            / (sum(t.lock_acquires for t in traces) or 1),
            "fraction", "acquires not granted at once"),
        "storage.lcs_p50_ms": (quantile(lcs, 0.5), "sim-ms",
                               f"n={len(lcs)} GeoTP branches"),
        "storage.lcs_p99_ms": (quantile(lcs, 0.99), "sim-ms", ""),
        "storage.wal_appends_per_commit": (
            per_commit("wal_appends"), "count", ""),
        "storage.load_s": (sum(r.clock.load_s for r in untraced), "s",
                           "untraced pass"),
        "middleware.work_units_per_commit": (
            resources("work_units"), "count", "ResourceUsage"),
        "middleware.metadata_bytes_per_commit": (
            resources("metadata_bytes"), "B", ""),
        "middleware.wan_messages_per_commit": (
            resources("wan_messages"), "count", ""),
    }
    for phase in PHASES:
        metrics[f"middleware.phase.{phase}_ms"] = (
            sum(r.summary.breakdown.get(phase, 0.0) * r.summary.committed
                for r in geotp) / geotp_commits,
            "sim-ms", "GeoTP points")
    metrics.update({
        "core.dispatch_delay_ms_mean": (
            statistics.fmean(delays) if delays else 0.0, "sim-ms",
            f"{len(delays)} participant delays"),
        "core.admission_blocked_ratio": (
            sum(a["blocked"] for a in admission) / (draws or 1), "fraction",
            f"{draws} admission draws"),
        "core.geotp_over_ssp_tps": (geotp_tps / ssp_tps, "ratio", ""),
        "baselines.ssp_sim_tps": (ssp_tps, "txn/sim-s", ""),
        "baselines.ssp_sim_p99_ms": (quantile(ssp_samples, 0.99), "sim-ms",
                                     f"n={len(ssp_samples)}"),
        "cluster.build_s": (sum(r.clock.build_s for r in untraced), "s",
                            "untraced pass"),
        "cluster.open_loop.drop_ratio": (
            sum(r.shed for r in traced) / offered if offered else 0.0,
            "fraction", f"{offered} offered"),
        "workloads.next_txn_us": (us_per_call("next_txn"), "us", ""),
        "metrics.record_us": (us_per_call("record"), "us", ""),
        "recovery.in_doubt_resolved": (in_doubt, "count", "GeoTP points"),
        "recovery.time_to_recover_ms": (
            statistics.fmean(recover_ms) if recover_ms else 0.0, "sim-ms",
            "GeoTP points"),
        "recovery.resolve_s": (seconds("resolve"), "s", ""),
        "recovery.invariants_s": (seconds("invariants"), "s", ""),
        "bench.trace_overhead": (traced_wall_s / untraced_wall_s, "ratio",
                                 f"{traced_wall_s:.2f} s traced / "
                                 f"{untraced_wall_s:.2f} s untraced"),
    })
    for layer, share in shares.items():
        metrics[f"{layer}.self_share"] = (share, "fraction", "cProfile")
    return metrics


def measure_end_to_end(workload: Workload, seed: int, seconds: float,
                       import_s: float) -> tuple:
    """Untraced, calibrated points for the end-to-end metrics.

    Returns ``(passes, metrics)``: ``passes`` is the first, full pass and the
    list of repeated points.  The first pass always runs.  Its points are
    then repeated in order while the next one is expected to end within
    ``seconds`` of host time, and each must reproduce its first digest.
    ``import repro`` (``import_s`` seconds in this process) is timed again in
    fresh interpreters.
    """
    began = perf_counter()
    first, _ = run_pass(workload, seed, trace=False, calibrate=True)
    repeats: List[PointResult] = []
    with Probes(trace=False) as probes:
        for i in count():
            before = first[i % len(first)]
            expected_s = before.ref_s + before.wall_s
            if perf_counter() - began + expected_s > seconds:
                break
            result = run_point(probes, before.config, calibrate=True)
            check_same_output([before], [result])
            repeats.append(result)
    passes = [first, repeats]
    rss_mb = peak_rss_mb()
    imports = [import_s] + [fresh_import_seconds()
                            for _ in range(IMPORT_SAMPLES - 1)]
    return passes, end_to_end(passes, imports, rss_mb)


def measure_per_layer(workload: Workload, seed: int) -> tuple:
    """An untraced then a traced pass of the same points: ``(passes, metrics)``."""
    untraced, _ = run_pass(workload, seed, trace=False)
    traced, probes = run_pass(workload, seed, trace=True)
    check_same_output(untraced, traced)
    return [untraced, traced], per_layer(traced, untraced, probes)
