"""The benchmark workloads and the experiment points each one runs.

A workload is a fixed experiment shape run on the paper topology for a GeoTP
point and an SSP point (the paper's baseline).  One benchmark run repeats that
pair over ``sub_seeds`` consecutive simulation seeds derived from ``--seed``
(``seed * sub_seeds + i``), so disjoint ``--seed`` values never share a
simulation and the pooled sim-time metrics average over several independent
inputs.  The same ``--seed`` always yields the same points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from repro.bench.runner import ExperimentConfig
from repro.bench.scenarios import fault_window
from repro.recovery.failures import FaultEvent, FaultKind, FaultPlan
from repro.workloads.arrivals import ArrivalConfig
from repro.workloads.tpcc import TPCCConfig
from repro.workloads.ycsb import CONTENTION_SKEW, YCSBConfig

#: The systems every workload runs, GeoTP first.
SYSTEMS = ("geotp", "ssp")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a base experiment and how many seeds it pools."""

    name: str
    base: ExperimentConfig
    sub_seeds: int
    #: Adds the ``fault_middleware_crash`` plan (crash at 40 % of the run,
    #: down for 15 %) to every point.
    middleware_crash: bool = False

    def seeds(self, seed: int) -> List[int]:
        """The simulation seeds one run with ``--seed seed`` uses."""
        return [seed * self.sub_seeds + i for i in range(self.sub_seeds)]

    def points(self, seed: int) -> List[ExperimentConfig]:
        """Every experiment point of one run, grouped by sub-seed, GeoTP first."""
        return [self._config(system, sub_seed)
                for sub_seed in self.seeds(seed) for system in SYSTEMS]

    def _config(self, system: str, sub_seed: int) -> ExperimentConfig:
        config = replace(self.base, system=system, seed=sub_seed)
        if self.middleware_crash:
            at_ms, down_ms = fault_window(config.duration_ms)
            config.fault_plan = FaultPlan(events=(FaultEvent(
                kind=FaultKind.MIDDLEWARE_CRASH, at_ms=at_ms,
                duration_ms=down_ms),))
        return config


def _paper_point(workload: str = "ycsb") -> ExperimentConfig:
    """48 terminals, 20 s with 2 s warm-up, YCSB at theta=0.9, paper topology."""
    return ExperimentConfig(
        workload=workload, terminals=48, duration_ms=20_000.0,
        warmup_ms=2_000.0,
        ycsb=YCSBConfig(skew=CONTENTION_SKEW["medium"]), tpcc=TPCCConfig())


#: Open loop past the knee: Poisson arrivals at the load sweep's 200 tps into
#: 256 client slots, over a 10k-row-per-node table that is fully preloaded.
_OPEN_LOOP = replace(
    _paper_point(),
    arrival=ArrivalConfig(process="poisson", rate_tps=200.0, max_clients=256),
    ycsb=YCSBConfig(skew=CONTENTION_SKEW["medium"], records_per_node=10_000,
                    preload_rows_per_node=10_000))

#: Sub-seed counts are sized so that one pass takes about ``run_seconds``
#: (BENCHMARK.json) of host time; see README.md for the measured spreads.
WORKLOADS = {w.name: w for w in (
    Workload("ycsb_closed", _paper_point(), sub_seeds=12),
    Workload("tpcc_closed", _paper_point("tpcc"), sub_seeds=8),
    Workload("ycsb_open", _OPEN_LOOP, sub_seeds=6),
    Workload("ycsb_faults", _paper_point(), sub_seeds=8,
             middleware_crash=True),
)}
