"""The benchmark's own tests, at a sizing small enough for seconds.

Run from the root of the repo::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import signal
import time
from pathlib import Path

import pytest

from perfbench import layers, tracing, workloads
from perfbench.checks import Point, check, sim_digest

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def small(monkeypatch):
    """Short simulated windows, so each phase takes well under a second."""
    monkeypatch.setattr(workloads, "CLOSED_CLIENTS", (1, 8))
    monkeypatch.setattr(workloads, "CLOSED_SIM_S", 0.05)
    monkeypatch.setattr(workloads, "SEARCH_LISTS", (10, 20))
    monkeypatch.setattr(workloads, "SEARCHLIST_SIM_S", 0.05)
    monkeypatch.setattr(workloads, "SERVE_RATES_QPS", (500.0, 1000.0))
    monkeypatch.setattr(workloads, "SERVE_SIM_S", 0.1)
    monkeypatch.setattr(workloads, "CLUSTER_SIM_S", 0.05)


def deploy(seed: int = 5, cluster: bool = False,
           tracer=tracing.NULL) -> workloads.Deployment:
    spec = dataclasses.replace(workloads.dataset_spec(seed), n=300,
                               n_clusters=8)
    return workloads.setup(spec, cluster, tracer)


@pytest.fixture(scope="module")
def single():
    return deploy()


def test_checker_flags_doctored_run_results(small, single):
    (point, *_rest) = workloads.closed_sweep(single, tracing.NULL)
    assert not point.failed, point.broken
    for doctored in (
            dataclasses.replace(point.result, device_utilization=1.5),
            dataclasses.replace(point.result, completed=0),
            dataclasses.replace(point.result, recall=0.5),
            dataclasses.replace(point.result,
                                read_bytes=point.result.read_bytes + 1,
                                telemetry=_telemetry_with_spans(single))):
        bad = check(Point("doctored", doctored, search_list=10))
        assert bad.failed and bad.broken


def _telemetry_with_spans(dep):
    runner = dep.runner()
    return runner.run(1, {"search_list": 10}, duration_s=0.02,
                      telemetry=True).telemetry


def test_checker_flags_doctored_serve_results(small, single):
    points = workloads.serve_mutate(single, tracing.NULL)
    assert not any(point.failed for point in points)
    result = points[-1].result
    for doctored in (dataclasses.replace(result, arrivals=result.arrivals + 1),
                     dataclasses.replace(result, shed=result.shed + 1),
                     dataclasses.replace(result, mutation=None)):
        bad = check(Point("doctored", doctored, search_list=10,
                          expect_compaction=True))
        assert bad.failed and bad.broken


def test_raising_point_fails():
    def boom():
        raise RuntimeError("no")
    point = workloads._measure("boom", boom, tracing.NULL,
                               "workload.replay")
    assert point.failed and "RuntimeError" in point.error


def test_calibrate_prices_each_stretch_by_the_probes_around_it(
        monkeypatch):
    monkeypatch.setattr(tracing, "PROBE_WINDOW", 2)
    ref = tracing.REFERENCE_PROBE_S
    # Probes at CPU 0, 1 and 3; the host runs at half speed in the
    # second stretch, so its probes there take twice as long.
    marks = ([0.0, 1.0, 3.0], [ref, 2 * ref, 2 * ref])
    assert tracing.calibrate(marks) == pytest.approx(
        (1.0 - ref) * ref / (1.5 * ref) + (2.0 - 2 * ref) / 2)


def test_host_clock_leaves_no_timer_behind():
    handler = signal.getsignal(signal.SIGALRM)
    with tracing.HostClock() as clock:
        deadline = time.process_time() + 0.35
        while time.process_time() < deadline:
            pass
    assert len(clock._marks[0]) >= 4
    assert 0.3 < clock.cpu_s < 0.35
    assert clock.calibrated_s > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_sim_digest_repeats_in_process(small, name):
    workload = workloads.WORKLOADS[name]
    first = deploy(cluster=workload.cluster)
    second = deploy(cluster=workload.cluster)
    runs = [workloads.run_phase(workload, dep)
            for dep in (first, first, second)]
    assert not any(pt.failed for run in runs for pt in run.points)
    assert len({sim_digest(run.points) for run in runs}) == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_is_passive(small, name):
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer("test")
    dep = deploy(cluster=workload.cluster, tracer=tracer)
    untraced = workloads.run_phase(workload, dep)
    run = layers.traced_run(workload, dep, tracer, untraced)
    assert run.correct, (run.digests, [p.broken for p in run.points])
    assert set(run.metrics) == set(layers.PER_LAYER)
    assert run.metrics["simkernel.events"] > 0
    assert all(span["run"] == "test" and span["end"] >= span["start"]
               for span in tracer.spans)


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == layers.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == layers.PER_LAYER
    names = (list(workloads.WORKLOADS) + list(layers.END_TO_END)
             + list(layers.PER_LAYER))
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
