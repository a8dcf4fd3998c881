"""How fast the host runs Python right now, from a fixed reference loop.

The benchmark's host is a shared virtual machine.  Its speed drifts by up to
2x over minutes as its neighbours' load changes.  Runs of one workload a few
minutes apart then differ by more than any change a later commit could make.
The simulator and this loop slow down together.  Over 20-s windows of
alternating reference loops and ``ycsb_faults`` points, their speeds
correlated at 0.88-0.98.  Dividing commits per host second by the loop's
speed cut their quartile spread from 11-16% to 5-7%; see README.md.

The loop stands in for the simulator's inner work: a heap of small event
objects, dictionary updates and generator resumes.  It uses only the
standard library, never ``repro``, so a change to the program cannot change
what the loop measures.
"""

from __future__ import annotations

import heapq
import random
from time import perf_counter
from typing import Sequence

#: Host seconds one :func:`reference_loop` takes on the benchmark's reference
#: machine: the median over about 1,000 loops on a 2-vCPU Xeon (Sapphire
#: Rapids) KVM guest.  Nine in ten of them took 0.055-0.12 s, depending on
#: the neighbours' load.
REFERENCE_S = 0.1

#: Events pushed through the loop's heap.
LOOP_EVENTS = 20_000


class _Event:
    __slots__ = ("at", "key", "payload")

    def __init__(self, at: float, key: int, payload: list) -> None:
        self.at = at
        self.key = key
        self.payload = payload

    def __lt__(self, other: "_Event") -> bool:
        return self.at < other.at


def _counter():
    total = 0
    while True:
        total += (yield total) or 1


def reference_loop() -> int:
    """A fixed amount of interpreter work; returns a checksum of it."""
    rng = random.Random(7)
    heap: list = []
    table: dict = {}
    counter = _counter()
    next(counter)
    for i in range(LOOP_EVENTS):
        key = rng.randrange(20_000)
        heapq.heappush(heap, _Event(rng.random(), key, [i, str(key)]))
        if len(heap) > 5_000:
            event = heapq.heappop(heap)
            table[event.key] = (table.get(event.key, 0)
                                + counter.send(len(event.payload)))
    return len(table)


def reference_seconds() -> float:
    """Host seconds of one :func:`reference_loop`."""
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


def host_speed(samples: Sequence[float]) -> float:
    """How many times faster than the reference machine the host ran.

    ``samples`` are :func:`reference_seconds` readings spread over the
    measured window; with none, the host counts as the reference machine.
    """
    if not samples:
        return 1.0
    return REFERENCE_S * len(samples) / sum(samples)
