"""Metrics of a run: end to end from untraced phases, per layer from
the traced one.

End-to-end host times (``host_s``, ``setup_s``) and the overheads the
probes price are CPU seconds at the reference host speed, from
:class:`~perfbench.tracing.HostClock`; the traced run's span times are
wall seconds, from ``time.perf_counter``.  ``sim_*`` values, recall,
utilisation, byte and event counts come from the simulated results and
repeat exactly for a seed.  A per-layer metric of a layer the workload
does not exercise reads 0.
"""

from __future__ import annotations

import dataclasses
import resource
import statistics
import typing as t

from perfbench import tracing, workloads
from perfbench.checks import Point, sim_digest
from repro.core.report import format_table

END_TO_END = {
    "host_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_qps_peak": "1/s",
    "sim_p99_us": "us",
    "sim_goodput_qps": "1/s",
    "recall_at_10": "ratio",
}

#: Layers whose self time the traced run reports, as ``<layer>.self_s``.
SELF_TIME_LAYERS = ("engines", "workload", "simkernel", "serve", "cluster",
                    "report")

PER_LAYER = {
    "data.gen_s": "s",
    "data.groundtruth_s": "s",
    "engines.build_s": "s",
    "engines.build_rows_per_s": "1/s",
    "engines.search_batch_s": "s",
    "engines.search_qps": "1/s",
    "ann.read_kib_per_query": "KiB",
    "workload.compile_s": "s",
    "simkernel.run_s": "s",
    "simkernel.events": "count",
    "simkernel.events_per_s": "1/s",
    "workload.replay_us_per_query": "us",
    "storage.device_utilization": "ratio",
    "storage.read_mib_s": "MiB/s",
    "serve.serve_s": "s",
    "serve.batches": "count",
    "serve.max_queue_depth": "count",
    "serve.shed": "count",
    "mutate.overhead_s": "s",
    "mutate.compactions": "count",
    "mutate.wal_mib": "MiB",
    "obs.overhead_s": "s",
    "obs.spans": "count",
    "cluster.run_s": "s",
    "cluster.events_per_s": "1/s",
    "cluster.merge_fraction": "ratio",
    "report.render_s": "s",
    "trace.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS},
}

UNITS = {**END_TO_END, **PER_LAYER}

#: Spans around the calls that replay compiled plans.
REPLAY_SPANS = ("workload.replay", "serve.serve", "cluster.run")


@dataclasses.dataclass
class Run:
    """What one benchmark run reports."""

    metrics: dict[str, float]
    points: list[Point]
    #: One sim digest per phase whose simulated results must agree.
    digests: list[str]
    report: str = ""

    @property
    def attempted(self) -> int:
        return len(self.points)

    @property
    def failed(self) -> int:
        return sum(point.failed for point in self.points)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and len(set(self.digests)) == 1


def _results(points: list[Point]) -> list[t.Any]:
    return [point.result for point in points if not point.failed]


def _heaviest(points: list[Point]) -> t.Any:
    """The last point is the heaviest in every workload."""
    return None if points[-1].failed else points[-1].result


def sim_metrics(points: list[Point]) -> dict[str, float]:
    results, heaviest = _results(points), _heaviest(points)
    if heaviest is None:
        return {"sim_qps_peak": 0.0, "sim_p99_us": 0.0,
                "sim_goodput_qps": 0.0, "recall_at_10": 0.0}
    if hasattr(heaviest, "goodput_qps"):
        goodput = heaviest.goodput_qps
    else:
        # A closed loop has no offered rate: its goodput is the highest
        # throughput among points whose P99 meets the SLO.
        goodput = max((r.qps for r in results
                       if r.p99_latency_s <= workloads.SLO_S), default=0.0)
    return {"sim_qps_peak": max(r.qps for r in results),
            "sim_p99_us": heaviest.p99_latency_s * 1e6,
            "sim_goodput_qps": goodput,
            "recall_at_10": min(r.recall for r in results)}


def peak_rss_mb() -> float:
    """The process's memory high-water mark so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def untraced_run(phases: list[workloads.Phase], setup_s: float,
                 rss_mb: float) -> Run:
    metrics = {
        "host_s": statistics.median(p.calibrated_s for p in phases),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        **sim_metrics(phases[0].points)}
    return Run(metrics, [pt for p in phases for pt in p.points],
               [sim_digest(p.points) for p in phases])


def traced_run(workload: workloads.Workload, dep: workloads.Deployment,
               tracer: tracing.Tracer, untraced: workloads.Phase) -> Run:
    """Run the phase traced, then the workload's probes untraced."""
    with tracing.instrument(tracer), tracer.span("phase") as phase_span:
        traced = workloads.run_phase(workload, dep, tracer)
    probes = {}
    for probe in workload.probes:
        with tracer.span(f"probe.{probe.name}"):
            probes[probe.name] = workloads.run_phase(workload, dep,
                                                     **probe.variant)
    digests = [sim_digest(untraced.points), sim_digest(traced.points)]
    digests += [sim_digest(probes[p.name].points)
                for p in workload.probes if p.passive]
    points = untraced.points + traced.points + [
        pt for phase in probes.values() for pt in phase.points]

    metrics = setup_metrics(tracer, dep.spec.n)
    metrics.update(phase_metrics(tracer, phase_span, traced.points))
    metrics.update(probe_metrics(workload, untraced, probes))
    metrics["trace.overhead_s"] = traced.cpu_s - untraced.cpu_s
    self_times = tracer.self_times(phase_span)
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    report = render_self_times(self_times, traced.wall_s)
    return Run(metrics, points, digests, report)


def setup_metrics(tracer: tracing.Tracer, rows: int) -> dict[str, float]:
    build_s = tracer.total("engines.build")
    return {
        "data.gen_s": tracer.total("data.gen"),
        "data.groundtruth_s": tracer.total("data.groundtruth"),
        "engines.build_s": build_s,
        "engines.build_rows_per_s": rows / build_s,
    }


def phase_metrics(tracer: tracing.Tracer, phase: dict,
                  points: list[Point]) -> dict[str, float]:
    counts = tracer.counts
    search_s = tracer.total("engines.search_batch", phase)
    queries = counts["engines.queries"]
    compile_s = _compile_self(tracer, phase)
    kernel_s = tracer.total("simkernel.run", phase)
    events = counts["simkernel.events"]
    replay_s = sum(tracer.total(name, phase) for name in REPLAY_SPANS)
    results = _results(points)
    completed = sum(r.completed for r in results)
    heaviest = _heaviest(points)
    closed = heaviest is not None and hasattr(heaviest, "device_utilization")
    serving = [r for r in results if hasattr(r, "arrivals")]
    mutations = [r.mutation for r in serving if r.mutation is not None]
    cluster_s = tracer.total("cluster.run", phase)
    return {
        "engines.search_batch_s": search_s,
        "engines.search_qps": queries / search_s if search_s else 0.0,
        "ann.read_kib_per_query": (counts["ann.read_bytes"] / queries / 1024
                                   if queries else 0.0),
        "workload.compile_s": compile_s,
        "simkernel.run_s": kernel_s,
        "simkernel.events": events,
        "simkernel.events_per_s": events / kernel_s if kernel_s else 0.0,
        "workload.replay_us_per_query": (replay_s / completed * 1e6
                                         if completed else 0.0),
        "storage.device_utilization": (heaviest.device_utilization
                                       if closed else 0.0),
        "storage.read_mib_s": (heaviest.read_bandwidth / 2**20
                               if closed else 0.0),
        "serve.serve_s": tracer.total("serve.serve", phase),
        "serve.batches": sum(r.batches for r in serving),
        "serve.max_queue_depth": max((r.max_queue_depth for r in serving),
                                     default=0),
        "serve.shed": sum(r.shed for r in serving),
        "mutate.compactions": sum(m.compactions for m in mutations),
        "mutate.wal_mib": sum(m.wal_bytes for m in mutations) / 2**20,
        "obs.spans": sum(len(r.telemetry.spans) for r in results
                         if r.telemetry is not None),
        "cluster.run_s": cluster_s,
        "cluster.events_per_s": events / cluster_s if cluster_s else 0.0,
        "report.render_s": tracer.total("report.render", phase),
    }


def _compile_self(tracer: tracing.Tracer, phase: dict) -> float:
    """Plan compilation: ``compiled_results`` minus its search calls."""
    return sum(
        (span["end"] - span["start"])
        - tracer.total("engines.search_batch", span)
        for span in tracer.select("workload.compile", phase))


def probe_metrics(workload: workloads.Workload, untraced: workloads.Phase,
                  probes: dict[str, workloads.Phase]) -> dict[str, float]:
    """Host cost of telemetry and mutation, and the cluster merge share.

    The costs are the measured phase minus the same phase with the
    subsystem switched off; a workload that runs without the subsystem
    reports 0, the predicted no-change.
    """
    metrics = {"obs.overhead_s": 0.0, "mutate.overhead_s": 0.0,
               "cluster.merge_fraction": 0.0}
    if "telemetry_off" in probes:
        metrics["obs.overhead_s"] = (
            untraced.calibrated_s - probes["telemetry_off"].calibrated_s)
    if "mutation_off" in probes:
        metrics["mutate.overhead_s"] = (
            untraced.calibrated_s - probes["mutation_off"].calibrated_s)
    if "telemetry_on" in probes:
        heaviest = _heaviest(probes["telemetry_on"].points)
        if heaviest is not None:
            telemetry = heaviest.telemetry
            merge = telemetry.stage_latency.get("merge")
            total = telemetry.query_latency.sum
            metrics["cluster.merge_fraction"] = (
                merge.sum / total if merge is not None and total else 0.0)
    return metrics


def render_self_times(self_times: dict[str, float], wall_s: float) -> str:
    rows = [[layer, f"{seconds:.3f}", f"{100 * seconds / wall_s:.1f}"]
            for layer, seconds in sorted(self_times.items(),
                                         key=lambda item: -item[1])]
    return format_table(["layer", "self s", "% of traced phase"], rows)
