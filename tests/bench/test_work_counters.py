"""Exact work-counter pins: process spawns, dispatched events and records built.

All counters are deterministic at a fixed seed, so they catch an algorithmic
regression (say, one extra process per message, or a load that builds every
row's record again) with no timing noise at all.  Re-pin them only together
with a change that is meant to alter the amount of kernel or set-up work, and
record the before/after numbers in EXPERIMENTS.md.
"""

import gc

import pytest

from repro.bench.goldens import determinism_config
from repro.bench.runner import run_experiment
from repro.cluster import deployment
from repro.storage import Record

#: ``Environment.process`` calls and ``events_processed`` for
#: ``goldens.determinism_config()``.  Before non-blocking data-source and
#: agent verbs became timer callbacks these were 592 and 2,958.
EXPECTED_PROCESSES = 326
EXPECTED_EVENTS = 2_713
#: Live ``Record`` objects right after ``load_workload`` and when the run ends.
#: Preloaded rows stay plain values until a run first touches them; loading
#: used to build one record per preloaded row (400 here) up front.
EXPECTED_RECORDS_AFTER_LOAD = 0
EXPECTED_RECORDS_AT_END = 91


@pytest.fixture
def process_counter(monkeypatch):
    """Count ``Environment.process`` calls on every cluster environment.

    ``process`` is a per-instance factory, so the count wraps that instance
    attribute on each environment the deployment module creates.
    """
    counts = {"processes": 0}
    make_environment = deployment.Environment

    def counting_environment(*args, **kwargs):
        env = make_environment(*args, **kwargs)
        spawn = env.process

        def process(*spawn_args, **spawn_kwargs):
            counts["processes"] += 1
            return spawn(*spawn_args, **spawn_kwargs)

        env.process = process
        return env

    monkeypatch.setattr(deployment, "Environment", counting_environment)
    return counts


def test_determinism_config_work_counters_are_pinned(process_counter):
    result = run_experiment(determinism_config())
    assert (process_counter["processes"], result.events_processed) == (
        EXPECTED_PROCESSES, EXPECTED_EVENTS)


def _live_records() -> int:
    """How many :class:`Record` objects exist in this process right now."""
    gc.collect()
    return sum(type(obj) is Record for obj in gc.get_objects())


def test_determinism_config_record_counts_are_pinned(monkeypatch):
    """Set-up builds no ``Record``; the run builds one per row it touches."""
    counts = {}
    clusters = []  # keeps the run's storage alive until the final count
    load_workload = deployment.Cluster.load_workload

    def counting_load(cluster, workload):
        counts["before"] = _live_records()
        load_workload(cluster, workload)
        counts["after_load"] = _live_records() - counts["before"]
        clusters.append(cluster)

    monkeypatch.setattr(deployment.Cluster, "load_workload", counting_load)
    run_experiment(determinism_config())
    at_end = _live_records() - counts["before"]
    assert (counts["after_load"], at_end) == (
        EXPECTED_RECORDS_AFTER_LOAD, EXPECTED_RECORDS_AT_END)
