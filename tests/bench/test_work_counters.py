"""Exact work-counter pin: process spawns and dispatched events of one run.

Both counters are deterministic at a fixed seed, so they catch an algorithmic
regression (say, one extra process per message) with no timing noise at all.
Re-pin them only together with a change that is meant to alter the amount of
kernel work, and record the before/after numbers in EXPERIMENTS.md.
"""

import pytest

from repro.bench.goldens import determinism_config
from repro.bench.runner import run_experiment
from repro.cluster import deployment

#: ``Environment.process`` calls and ``events_processed`` for
#: ``goldens.determinism_config()``.  Before non-blocking data-source and
#: agent verbs became timer callbacks these were 592 and 2,958.
EXPECTED_PROCESSES = 326
EXPECTED_EVENTS = 2_713


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
