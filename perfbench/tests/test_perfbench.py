"""Tests of the benchmark itself, not of the program it measures.

    python3 -m pytest perfbench/tests -q

They run shrunken copies of the workloads, so they check the benchmark's
plumbing, not its numbers.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
for path in (SRC, ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import calibration, measure, points, run  # noqa: E402
from perfbench.probes import Patches, Probes, layer_of  # noqa: E402



def small(workload):
    """One sub-seed of 3 simulated seconds with 8 terminals."""
    return replace(workload, sub_seeds=1, base=replace(
        workload.base, duration_ms=3_000.0, warmup_ms=500.0, terminals=8))


SMALL = {name: small(w) for name, w in points.WORKLOADS.items()}

SIM_METRICS = ("sim_tps", "sim_p50_ms", "sim_p99_ms", "failed_ratio")


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture
def small_workloads(monkeypatch):
    """Point the CLI at the shrunken workloads; allow their thin tails."""
    for name, workload in SMALL.items():
        monkeypatch.setitem(points.WORKLOADS, name, workload)
    monkeypatch.setattr(measure, "MIN_TAIL_SAMPLES", 0)


def run_main(capsys, *argv):
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_equal_benchmark_json(small_workloads, capsys,
                                                    trace, section):
    spec = benchmark_json()
    expected = [m["name"] for m in spec[section]]
    units = {m["name"]: m["unit"] for m in spec[section]}
    for workload in spec["workloads"]:
        code, lines = run_main(capsys, "--workload", workload["name"],
                               "--seed", "1", "--seconds", "0",
                               "--trace", str(trace))
        assert code == 0
        result = json.loads(lines[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0
        assert sorted(result["metrics"]) == sorted(expected)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name]
            assert f"metric {name} = " in "\n".join(lines)


def test_failed_invariant_exits_nonzero_without_metrics(small_workloads,
                                                        capsys, monkeypatch):
    monkeypatch.setattr(measure, "violations",
                        lambda report: ["planted: broken on purpose"])
    code, lines = run_main(capsys, "--workload", "ycsb_closed",
                           "--seconds", "0")
    assert code == 1
    assert not any(line.startswith("{") for line in lines)


def test_missing_program_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ycsb_closed",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert out.returncode != 0
    assert "{" not in out.stdout


def _layer_attributes():
    from repro.bench import runner
    from repro.cluster.deployment import Cluster
    from repro.sim.environment import Environment
    from repro.sim.network import Network
    from repro.storage.lock_manager import LockManager
    from repro.workloads.ycsb import YCSBWorkload
    owners = (runner, Cluster, Environment, Network, LockManager, YCSBWorkload)
    return {(owner, name): value for owner in owners
            for name, value in vars(owner).items()}


def test_untraced_run_after_traced_run_gives_same_digests():
    workload = SMALL["ycsb_closed"]
    before = _layer_attributes()
    first, _ = measure.run_pass(workload, 0, trace=False)
    traced, _ = measure.run_pass(workload, 0, trace=True)
    after, _ = measure.run_pass(workload, 0, trace=False)
    assert _layer_attributes() == before
    digests = [[measure.digest(r.summary) for r in results]
               for results in (first, traced, after)]
    assert digests[0] == digests[1] == digests[2]


def test_traced_and_untraced_sim_metrics_are_identical(monkeypatch):
    monkeypatch.setattr(measure, "MIN_TAIL_SAMPLES", 0)
    workload = SMALL["ycsb_faults"]
    untraced, _ = measure.run_pass(workload, 2, trace=False)
    traced, _ = measure.run_pass(workload, 2, trace=True)

    def sim_metrics(results):
        return {name: value for name, (value, _unit, _note)
                in measure.end_to_end([results], [1.0], 1.0).items()
                if name in SIM_METRICS}

    assert sim_metrics(untraced) == sim_metrics(traced)


def test_host_metrics_are_scaled_by_the_reference_loop(monkeypatch):
    monkeypatch.setattr(measure, "MIN_TAIL_SAMPLES", 0)
    results, _ = measure.run_pass(SMALL["ycsb_closed"], 0, trace=False,
                                  calibrate=True)
    assert all(r.ref_s > 0 for r in results)
    speed = calibration.host_speed([r.ref_s for r in results])
    scaled = measure.end_to_end([results], [1.0], 1.0)
    unscaled = measure.end_to_end(
        [[replace(r, ref_s=0.0) for r in results]], [1.0], 1.0)
    assert scaled["host_commits_per_s"][0] == pytest.approx(
        unscaled["host_commits_per_s"][0] / speed)
    assert scaled["setup_s"][0] == pytest.approx(unscaled["setup_s"][0] * speed)
    assert {name: value for name, (value, _, _) in scaled.items()
            if name in SIM_METRICS} == {
        name: value for name, (value, _, _) in unscaled.items()
        if name in SIM_METRICS}


def test_host_speed_is_relative_to_the_reference_machine():
    assert calibration.host_speed([]) == 1.0
    half = calibration.REFERENCE_S / 2
    assert calibration.host_speed([half, half, half]) == pytest.approx(2.0)
    assert calibration.reference_loop() == calibration.reference_loop()


def test_points_repeat_in_order_within_the_budget(monkeypatch):
    monkeypatch.setattr(measure, "MIN_TAIL_SAMPLES", 0)
    workload = SMALL["ycsb_faults"]
    (first, repeats), _ = measure.measure_end_to_end(workload, 0, 2.0, 0.1)
    assert len(first) == 2 and len(repeats) >= 2
    # The loop stops before a point that would end past the budget.
    assert sum(r.ref_s + r.wall_s for r in first + repeats) < 2.0 + 1.0
    assert [r.config for r in repeats] == [
        first[i % len(first)].config for i in range(len(repeats))]
    assert all(measure.digest(r.summary)
               == measure.digest(first[i % len(first)].summary)
               for i, r in enumerate(repeats))


COUNTERS_SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {root!r}]
from perfbench import measure
from perfbench.points import WORKLOADS
from perfbench.tests.test_perfbench import small

def counters(r):
    t = r.trace
    return [r.summary.events_processed, r.summary.resources.committed,
            t.processes, t.messages, t.lock_acquires, t.lock_waits,
            t.wal_appends, len(t.lcs_ms), len(t.dispatch_delays_ms),
            t.next_txn.calls, t.record.calls]

workload = small(WORKLOADS["tpcc_closed"])
print(json.dumps([[counters(r) for r in measure.run_pass(workload, 3, True)[0]]
                  for _ in range(2)]))
"""


def test_exact_counters_repeat_across_runs_and_hash_seeds():
    outputs = []
    for hash_seed in ("0", "1"):
        out = subprocess.run(
            [sys.executable, "-c", COUNTERS_SCRIPT.format(src=SRC, root=ROOT)],
            capture_output=True, text=True, timeout=300, check=True,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed))
        outputs.extend(json.loads(out.stdout))
    assert all(run_counters == outputs[0] for run_counters in outputs)
    assert all(point[2] > 0 and point[4] > 0 for point in outputs[0])


def test_patches_restore_inherited_and_own_attributes():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        def g(self):
            return "child"

    patches = Patches()
    patches.wrap(Child, "f", lambda fn: lambda self: "wrapped")
    patches.wrap(Child, "g", lambda fn: lambda self: "wrapped")
    assert Child().f() == Child().g() == "wrapped"
    patches.restore()
    assert "f" not in vars(Child)
    assert Child().f() == "base" and Child().g() == "child"


def test_probes_restore_even_when_the_point_raises():
    before = _layer_attributes()
    with pytest.raises(ZeroDivisionError):
        with Probes(trace=True) as probes:
            with probes.point():
                1 / 0
    assert _layer_attributes() == before


@pytest.mark.parametrize("samples,q,expected", [
    ([1.0, 2.0, 3.0, 4.0], 0.5, 2.5),
    ([5.0] * 10, 0.5, 5.0),
    # 60 % of the mass tied at 1.0: mid-ranks 0.3 and 0.8 bracket q = 0.5.
    ([1.0] * 6 + [2.0] * 4, 0.5, 1.4),
])
def test_mid_quantile(samples, q, expected):
    assert measure.quantile(samples, q) == pytest.approx(expected)


@pytest.mark.parametrize("filename,layer", [
    ("/c/src/repro/sim/_kernel/environment.py", "sim"),
    ("/c/src/repro/sim/network.py", "network"),
    ("/c/src/repro/storage/wal.py", "storage"),
    ("/repro/src/repro/core/geotp.py", "core"),
    ("/c/src/repro/common.py", "repro"),
    ("/usr/lib/python3.11/heapq.py", "other"),
    ("~", "other"),
])
def test_profiled_files_group_by_package(filename, layer):
    assert layer_of(filename) == layer
