"""The four workloads: hermetic set-up and one measured phase each.

Every workload runs the paper's Milvus-DiskANN setup on the
``openai-500k`` proxy geometry at the fixed ``tiny`` scale (2000 rows,
192-d vectors, a 1536-d on-disk layout, so each graph node spans two
sectors).  The workload seed replaces ``DatasetSpec.seed``; the arrival
and topology seeds are derived from it.  Set-up builds from generated
arrays through ``open_engine`` / ``open_cluster`` and never touches the
index cache.

A measured phase runs from the first plan compile to the rendered
result table and returns one :class:`~perfbench.checks.Point` per
measured call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
import time
import traceback
import typing as t

import numpy as np

from repro.api import open_cluster, open_engine
from repro.cluster import ClusterTopology
from repro.core.report import format_table
from repro.data import exact_knn, get_spec, make_dataset_vectors, make_queries
from repro.data.spec import DatasetSpec
from repro.engines.engine import IndexSpec
from repro.mutate import CompactionPolicy, MutationLoad
from repro.serve import PoissonArrivals, ServeConfig, Server, TenantLoad

from perfbench.checks import Point, check
from perfbench.tracing import NULL, HostClock

DATASET = "openai-500k"
SCALE = "tiny"
ENGINE = "milvus"
K = 10
#: DiskANN's tuned search list (the paper's Table II value).
SEARCH_LIST = 10

CLOSED_CLIENTS = (1, 4, 16, 64)
CLOSED_SIM_S = 4.0

SEARCH_LISTS = (10, 20, 50, 100, 200)
SEARCHLIST_SIM_S = 0.5

SERVE_RATES_QPS = (1000.0, 2000.0, 3000.0)
SERVE_SIM_S = 4.0
SERVE_MAX_INFLIGHT = 16
#: The SLO behind every goodput figure.
SLO_S = 0.005
#: The mutate study's write stream: 50k inserts/s, 5k deletes/s, with
#: threshold compaction.
MUTATION = MutationLoad(
    insert_qps=50_000.0, delete_qps=5_000.0, batch_rows=64,
    policy=CompactionPolicy(delta_rows=4_000, tombstone_fraction=0.5),
    rebuild_cpu_per_row_s=5e-6, write_amplification=2.0)

CLUSTER_SHARDS = 4
CLUSTER_CLIENTS = (1, 8)
CLUSTER_SIM_S = 2.0


def derive_seed(seed: int, stream: str) -> int:
    """A seed for *stream* (``"arrivals"``, ``"topology"``) derived
    from the workload seed."""
    entropy = [seed] + [ord(c) for c in stream]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@dataclasses.dataclass
class Deployment:
    """One workload's built system and the inputs it is measured on."""

    spec: DatasetSpec
    queries: np.ndarray
    truth: np.ndarray
    session: t.Any                  # repro.api.Session or ClusterSession

    def runner(self):
        """A fresh benchmark runner: no plans compiled yet."""
        return self.session.bench_runner(
            self.spec.name, self.queries, ground_truth=self.truth, k=K,
            paper_n=self.spec.paper_n)


def dataset_spec(seed: int) -> DatasetSpec:
    """The fixed ``tiny`` proxy geometry with the workload seed."""
    return dataclasses.replace(get_spec(DATASET, SCALE), seed=seed)


def setup(spec: DatasetSpec, cluster: bool, tracer) -> Deployment:
    """Generate the data, its ground truth, and build the index."""
    with tracer.span("data.gen"):
        vectors = make_dataset_vectors(spec)
        queries = make_queries(spec, vectors)
    with tracer.span("data.groundtruth"):
        truth = exact_knn(vectors, queries, K, spec.metric)
    with tracer.span("engines.build"):
        if cluster:
            session = open_cluster(ClusterTopology(
                n_shards=CLUSTER_SHARDS, replicas=1, sharding="hash",
                seed=derive_seed(spec.seed, "topology")), ENGINE)
        else:
            session = open_engine(ENGINE)
        session.create(spec.name, dim=spec.dim,
                       index=IndexSpec.of("diskann", spec.metric),
                       storage_dim=spec.storage_dim)
        session.insert(spec.name, vectors, flush=True)
    return Deployment(spec, queries, truth, session)


def _guarded(call: t.Callable[[], t.Any]) -> tuple[t.Any, str | None]:
    """Run *call*; a raise is reported and returned, not propagated."""
    try:
        return call(), None
    except Exception as exc:    # a raising call is a failed point
        traceback.print_exc(file=sys.stderr)
        return None, repr(exc)


def _measure(label: str, call: t.Callable[[], t.Any], tracer,
             span: str, **point: t.Any) -> Point:
    with tracer.span(span):
        result, error = _guarded(call)
    return check(Point(label, result, error=error, **point))


def _compile(tracer, runners, params: dict) -> None:
    # A failed compile re-raises inside each point's own call, which
    # then counts as failed.
    with tracer.span("workload.compile"):
        for runner in runners:
            _guarded(lambda: runner.compiled_results(params))


def closed_sweep(dep: Deployment, tracer) -> list[Point]:
    runner, params = dep.runner(), {"search_list": SEARCH_LIST}
    _compile(tracer, [runner], params)
    return [_measure(f"clients={c}",
                     lambda c=c: runner.run(c, params,
                                            duration_s=CLOSED_SIM_S),
                     tracer, "workload.replay", search_list=SEARCH_LIST)
            for c in CLOSED_CLIENTS]


def searchlist_sweep(dep: Deployment, tracer) -> list[Point]:
    runner, points = dep.runner(), []
    for search_list in SEARCH_LISTS:
        params = {"search_list": search_list}
        _compile(tracer, [runner], params)
        points.append(_measure(
            f"search_list={search_list}",
            lambda: runner.run(1, params, duration_s=SEARCHLIST_SIM_S),
            tracer, "workload.replay", search_list=search_list))
    return points


def serve_mutate(dep: Deployment, tracer, telemetry: bool = True,
                 mutation: bool = True) -> list[Point]:
    """Open-loop Poisson serving beside a write stream.

    ``telemetry`` and ``mutation`` switch off one subsystem each; the
    traced run uses them to measure what each costs in host time.
    """
    runner, params = dep.runner(), {"search_list": SEARCH_LIST}
    _compile(tracer, [runner], params)
    points = []
    for rate in SERVE_RATES_QPS:
        config = ServeConfig(
            tenants=(TenantLoad("readers", PoissonArrivals(rate_qps=rate)),),
            duration_s=SERVE_SIM_S, max_inflight=SERVE_MAX_INFLIGHT,
            slo_deadline_s=SLO_S, search_params=params,
            seed=derive_seed(dep.spec.seed, "arrivals"),
            mutation=MUTATION if mutation else None)
        points.append(_measure(
            f"offered={rate:.0f}",
            lambda: Server(runner, config, telemetry=telemetry).serve(),
            tracer, "serve.serve", search_list=SEARCH_LIST,
            expect_compaction=mutation))
    return points


def cluster_scatter(dep: Deployment, tracer,
                    telemetry: bool = False) -> list[Point]:
    """Closed-loop scatter-gather over hash shards, consistency ``one``.

    ``telemetry`` turns spans on; the traced run uses it once to read
    the coordinator's merge stage.
    """
    runner, params = dep.runner(), {"search_list": SEARCH_LIST}
    _compile(tracer, runner.shard_runners, params)
    return [_measure(f"clients={c}",
                     lambda c=c: runner.run(c, params,
                                            duration_s=CLUSTER_SIM_S,
                                            consistency="one",
                                            telemetry=telemetry),
                     tracer, "cluster.run", search_list=SEARCH_LIST)
            for c in CLUSTER_CLIENTS]


@dataclasses.dataclass(frozen=True)
class Probe:
    """An extra, untraced phase of a traced run with one switch flipped."""

    name: str
    variant: dict[str, t.Any]
    #: The switch is passive instrumentation, so the simulated results
    #: (and the sim digest) must not move.
    passive: bool


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cluster: bool
    phase: t.Callable[..., list[Point]]
    probes: tuple[Probe, ...] = ()


WORKLOADS = {w.name: w for w in (
    Workload("closed-sweep",
             "closed loop of 1-64 clients at search_list 10 (Figs 2/3): "
             "host time goes to discrete-event replay",
             False, closed_sweep),
    Workload("searchlist-sweep",
             "search_list 10-200 at one client (Figs 7-11): host time "
             "goes to functional search and plan compilation",
             False, searchlist_sweep),
    Workload("serve-mutate",
             "open-loop Poisson serving with inserts, deletes, compaction "
             "and telemetry: arrival-timed replay beside writes",
             False, serve_mutate,
             probes=(Probe("telemetry_off", {"telemetry": False}, True),
                     Probe("mutation_off", {"mutation": False}, False))),
    Workload("cluster-scatter",
             "closed loop over 4 hash shards: scatter-gather replay and "
             "the coordinator merge of repro.cluster",
             True, cluster_scatter,
             probes=(Probe("telemetry_on", {"telemetry": True}, True),)),
)}


@dataclasses.dataclass
class Phase:
    """One measured phase: its host time, points and rendered table."""

    #: Host wall-clock seconds.
    wall_s: float
    #: Host CPU seconds of the phase's own code.
    cpu_s: float
    #: CPU seconds at the reference host speed; untraced phases only.
    calibrated_s: float | None
    points: list[Point]
    table: str


def run_phase(workload: Workload, dep: Deployment, tracer=NULL,
              **variant: t.Any) -> Phase:
    """Time one measured phase, first compile to rendered table.

    Untraced (no *tracer*), a :class:`~perfbench.tracing.HostClock`
    times it; traced, its spans are recorded and it has no calibrated
    time, so that no probe runs inside a span.
    """
    clock = HostClock() if tracer is NULL else None
    wall, cpu = time.perf_counter(), time.process_time()
    with clock or contextlib.nullcontext():
        points = workload.phase(dep, tracer, **variant)
        with tracer.span("report.render"):
            table = render(points)
    wall = time.perf_counter() - wall
    if clock is None:
        return Phase(wall, time.process_time() - cpu, None, points, table)
    return Phase(wall, clock.cpu_s, clock.calibrated_s, points, table)


def render(points: list[Point]) -> str:
    rows = []
    for point in points:
        result = point.result
        if result is None:
            rows.append([point.label, "-", "-", "-", "-", point.error])
            continue
        recall = "-" if result.recall is None else f"{result.recall:.4f}"
        rows.append([point.label, result.completed, f"{result.qps:.1f}",
                     f"{result.p99_latency_s * 1e6:.1f}", recall,
                     "FAILED: " + "; ".join(point.broken)
                     if point.broken else "ok"])
    return format_table(["point", "completed", "sim QPS", "sim P99 us",
                         "recall@10", "checks"], rows)
