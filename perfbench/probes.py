"""Instruments that measure the program from outside.

Nothing under ``src/`` knows it is being measured.  :class:`Probes` replaces
public functions of each layer with thin wrappers that time or count the calls
and restores the originals on exit, so a traced run and a later untraced run
in the same process execute the same code.  The wrappers never touch
simulation state, which is why traced and untraced runs produce identical
simulated output.

* The host clock (always on) times ``Environment.run``, ``build_cluster`` and
  ``Cluster.load_workload`` — one call each per point or per GC slice, so it
  costs nothing measurable.
* The layer probes (traced runs only) count and time the per-event paths and
  run :mod:`cProfile`, whose self time is grouped by ``repro/<package>``.
"""

from __future__ import annotations

import cProfile
import os
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional

import repro.bench.runner as runner
from repro.cluster.deployment import Cluster
from repro.core.scheduler import GeoScheduler
from repro.metrics.collector import MetricsCollector, StreamingMetricsCollector
from repro.recovery.recovery_manager import RecoveryManager
from repro.sim.environment import Environment
from repro.sim.network import Network
from repro.storage.lock_manager import LockManager
from repro.storage.transaction import LocalTransaction
from repro.storage.wal import WriteAheadLog

#: Packages whose cProfile self time is reported as ``<layer>.self_share``.
#: ``repro/sim/network.py`` is its own layer; the rest of ``repro/sim`` is
#: the kernel.
PROFILED_LAYERS = ("sim", "network", "storage", "middleware", "core",
                   "cluster", "workloads", "metrics")

_MISSING = object()


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def wrap(self, owner: Any, name: str,
             make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.name`` with ``make(original)``."""
        own = vars(owner).get(name, _MISSING)
        self._saved.append((owner, name, own))
        setattr(owner, name, make(getattr(owner, name)))

    def restore(self) -> None:
        while self._saved:
            owner, name, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, own)


@dataclass
class Timer:
    """Calls and host seconds spent in one wrapped function."""

    calls: int = 0
    seconds: float = 0.0

    def drive(self, gen):
        """Run generator ``gen`` through, timing each of its resumes."""
        self.calls += 1
        value: Any = None
        throw = False
        while True:
            start = perf_counter()
            try:
                yielded = gen.throw(value) if throw else gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self.seconds += perf_counter() - start
            try:
                value, throw = (yield yielded), False
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded to gen
                value, throw = exc, True


@dataclass
class PointTrace:
    """What the layer probes saw during one experiment point."""

    processes: int = 0
    messages: int = 0
    lock_acquires: int = 0
    lock_waits: int = 0
    wal_appends: int = 0
    lcs_ms: List[float] = field(default_factory=list)
    dispatch_delays_ms: List[float] = field(default_factory=list)
    next_txn: Timer = field(default_factory=Timer)
    record: Timer = field(default_factory=Timer)
    resolve: Timer = field(default_factory=Timer)
    invariants: Timer = field(default_factory=Timer)


@dataclass
class PointClock:
    """Host seconds of one point, split the way the metrics need them."""

    run_s: float = 0.0
    build_s: float = 0.0
    load_s: float = 0.0


class Probes:
    """Installs the wrappers; hands out one clock (and trace) per point."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.profile: Optional[cProfile.Profile] = (
            cProfile.Profile() if trace else None)
        self.clock = PointClock()
        self.point_trace = PointTrace()
        self._patches = Patches()

    # ----------------------------------------------------------- lifecycle
    def __enter__(self) -> "Probes":
        try:
            self._install_clock()
            if self.trace:
                self._install_layer_probes()
        except BaseException:
            self._patches.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._patches.restore()

    @contextmanager
    def point(self) -> Iterator[tuple]:
        """Fresh accumulators for one point; profiles it when tracing."""
        self.clock, self.point_trace = PointClock(), PointTrace()
        if self.profile is not None:
            self.profile.enable()
        try:
            yield self.clock, (self.point_trace if self.trace else None)
        finally:
            if self.profile is not None:
                self.profile.disable()

    # --------------------------------------------------------------- clock
    def _install_clock(self) -> None:
        wrap = self._patches.wrap
        probes = self

        def add(attr: str, fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    clock = probes.clock
                    setattr(clock, attr,
                            getattr(clock, attr) + perf_counter() - start)
            return wrapper

        wrap(Environment, "run", lambda fn: add("run_s", fn))
        wrap(runner, "build_cluster", lambda fn: add("build_s", fn))
        wrap(Cluster, "load_workload", lambda fn: add("load_s", fn))

    # -------------------------------------------------------- layer probes
    def _install_layer_probes(self) -> None:
        wrap = self._patches.wrap
        probes = self

        def counting(counter: str) -> Callable[[Callable], Callable]:
            def make(fn: Callable) -> Callable:
                def wrapper(*args, **kwargs):
                    trace = probes.point_trace
                    setattr(trace, counter, getattr(trace, counter) + 1)
                    return fn(*args, **kwargs)
                return wrapper
            return make

        def env_init(fn: Callable) -> Callable:
            # ``Environment.process`` is a per-instance partial bound in
            # ``__init__``; count calls to it by wrapping that instance slot.
            def wrapper(env, *args, **kwargs):
                fn(env, *args, **kwargs)
                env.process = counting("processes")(env.process)
            return wrapper

        def acquire(fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                event = fn(*args, **kwargs)
                trace = probes.point_trace
                trace.lock_acquires += 1
                if not (event.triggered and event.ok):
                    trace.lock_waits += 1
                return event
            return wrapper

        def branch_finished(fn: Callable) -> Callable:
            def wrapper(txn, *args, **kwargs):
                fn(txn, *args, **kwargs)
                span = txn.lock_contention_span_ms
                if span is not None:
                    probes.point_trace.lcs_ms.append(span)
            return wrapper

        def schedule(fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                decision = fn(*args, **kwargs)
                probes.point_trace.dispatch_delays_ms.extend(
                    decision.delays.values())
                return decision
            return wrapper

        def timed(timer: str) -> Callable[[Callable], Callable]:
            def make(fn: Callable) -> Callable:
                def wrapper(*args, **kwargs):
                    t = getattr(probes.point_trace, timer)
                    start = perf_counter()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        t.seconds += perf_counter() - start
                        t.calls += 1
                return wrapper
            return make

        def timed_generator(timer: str) -> Callable[[Callable], Callable]:
            def make(fn: Callable) -> Callable:
                def wrapper(*args, **kwargs):
                    return getattr(probes.point_trace, timer).drive(
                        fn(*args, **kwargs))
                return wrapper
            return make

        wrap(Environment, "__init__", env_init)
        wrap(Network, "send", counting("messages"))
        wrap(LockManager, "acquire", acquire)
        wrap(WriteAheadLog, "append", counting("wal_appends"))
        for verb in ("mark_committed", "mark_committed_one_phase",
                     "mark_aborted"):
            wrap(LocalTransaction, verb, branch_finished)
        wrap(GeoScheduler, "schedule", schedule)
        for collector in (MetricsCollector, StreamingMetricsCollector):
            wrap(collector, "record", timed("record"))
        wrap(RecoveryManager, "resolve_in_doubt",
             timed_generator("resolve"))
        wrap(runner, "check_invariants", timed("invariants"))

        # Workload generators are looked up through the plugin registry, so
        # their classes are wrapped as the runner hands them to the cluster.
        wrapped_workloads = set()

        def load_workload(fn: Callable) -> Callable:
            def wrapper(cluster, workload):
                cls = type(workload)
                if cls not in wrapped_workloads:
                    wrapped_workloads.add(cls)
                    wrap(cls, "next_transaction", timed("next_txn"))
                return fn(cluster, workload)
            return wrapper

        wrap(Cluster, "load_workload", load_workload)

    # ------------------------------------------------------------ profile
    def self_shares(self) -> Dict[str, float]:
        """cProfile self time per layer as a share of all profiled time."""
        assert self.profile is not None
        self.profile.create_stats()
        totals: Dict[str, float] = defaultdict(float)
        for (filename, _line, _name), stat in self.profile.stats.items():
            totals[layer_of(filename)] += stat[2]   # tottime
        grand = sum(totals.values()) or 1.0
        return {layer: totals.get(layer, 0.0) / grand
                for layer in PROFILED_LAYERS}


def layer_of(filename: str) -> str:
    """``repro/<package>`` of a profiled source file (``sim`` vs ``network``)."""
    parts = filename.replace(os.sep, "/").split("/")
    if "repro" not in parts:
        return "other"
    last = len(parts) - 1 - parts[::-1].index("repro")
    package = parts[last + 1:]
    if len(package) < 2:
        return "repro"
    if package[:2] == ["sim", "network.py"]:
        return "network"
    return package[0]
