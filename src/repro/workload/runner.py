"""The benchmark runner: closed-loop clients on the simulated hardware.

Reproduces the paper's methodology (Section III-B):

* N closed-loop client threads, each with one in-flight query, cycling
  through the query set;
* caches dropped before each run (page cache and index node caches);
* a fixed measurement window; QPS, P99 latency, global CPU usage, and
  block-level I/O are reported per run.

Execution happens in two phases.  The *functional* phase runs every
query once through the real engine (algorithms, recall, work profiles);
profiles are captured twice — a cold pass after cache reset and a warm
pass — so the replay can model cache warm-up across the run.  The
*timing* phase replays compiled plans on the discrete-event simulator:
20 CPU cores, the calibrated NVMe device, RPC and batching overheads
from the engine profile.

One simulated "thread" maps to one client; the paper's 30-second runs
are shortened by ``duration_s``/``max_queries`` since the simulator is
deterministic and converges far faster than noisy hardware.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import typing as t

import numpy as np

from repro.ann.workprofile import CpuStep, IoStep, PrefetchStep
from repro.data.groundtruth import recall_at_k
from repro.engines.costmodel import CostModel
from repro.engines.engine import Collection, VectorEngine
from repro.engines.profiles import PAPER_CPU_CORES
from repro.errors import (DegradedResult, FaultError, OutOfMemoryError,
                          WorkloadError)
from repro.faults import (FaultInjector, FaultPlan, PressureTracker,
                          ResiliencePolicy, degraded_search_params)
from repro.obs import RunTelemetry
from repro.simkernel import Environment, Resource, Timeout
from repro.storage.blockfile import ExtentAllocator
from repro.storage.device import SimSSD
from repro.storage.spec import DeviceSpec, samsung_990pro_4tb
from repro.storage.tracer import BlockTracer
from repro.workload.metrics import RunResult, percentile

#: ('cpu', seconds), ('io', ((abs_offset, size), ...)) — a blocking
#: demand round — ('pf', requests) — a non-blocking speculative issue —
#: or ('join', None) — a barrier on all in-flight speculative reads.
CompiledStep = tuple[str, t.Any]


@dataclasses.dataclass(frozen=True)
class WriteLoad:
    """A concurrent write stream (the paper's Section VIII extension).

    Models WAL/segment-flush traffic running alongside searches:
    ``writers`` background threads each issue a ``bytes_per_flush``
    write every ``interval_s`` seconds into a circular log region.  NAND
    read/write interference then emerges from channel contention in the
    device model.
    """

    writers: int = 1
    bytes_per_flush: int = 64 * 1024
    interval_s: float = 0.002

    def __post_init__(self) -> None:
        if self.writers < 1 or self.bytes_per_flush < 1:
            raise WorkloadError(f"bad write load: {self}")


def work_extrapolation(index_kind: str, n: int,
                       paper_n: int | None) -> float:
    """CPU-work multiplier from proxy scale to the paper's scale.

    The proxy datasets are ~250x smaller than the paper's.  Per-query
    *algorithmic* work does not shrink uniformly with n: an IVF scan
    costs Theta(sqrt(n)) (nlist + nprobe * n/nlist with nlist ~ 4
    sqrt(n)), while graph searches grow ~log n.  Replaying tiny-scale
    work untransformed would therefore understate IVF relative to HNSW
    and flip the paper's orderings; this factor restores the paper-scale
    ratio of each family's distance-evaluation counts.
    """
    if paper_n is None or paper_n <= n:
        return 1.0
    if index_kind in ("ivf", "ivf-pq"):
        return math.sqrt(paper_n / n)
    return math.log(paper_n) / math.log(max(n, 2))


@dataclasses.dataclass
class CompiledQuery:
    """One query's priced execution plan, one step list per segment."""

    segments: list[list[CompiledStep]]
    #: Node/page-cache hits per segment, from the functional pass; used
    #: by telemetry to attribute cache effectiveness to query ids.
    cache_hits: list[int] = dataclasses.field(default_factory=list)
    #: (useful, wasted) speculative-read counts per segment, from the
    #: functional pass; spans report them as prefetch hit/waste.
    prefetch: list[tuple[int, int]] = dataclasses.field(
        default_factory=list)

    def __post_init__(self) -> None:
        while len(self.cache_hits) < len(self.segments):
            self.cache_hits.append(0)
        while len(self.prefetch) < len(self.segments):
            self.prefetch.append((0, 0))


class QueryReplayer:
    """The single-query replay entry point over one simulated host.

    Owns nothing but references: the environment, the device, the core
    pool, and (optionally) the DiskANN admission pool, plus the engine
    profile and the resilience policy.  :meth:`query_proc` is the
    process generator that replays one :class:`CompiledQuery` end to
    end — RPC halves, admission pool, amortized fixed CPU, and every
    per-segment CPU/IO/prefetch step, with the resilience defences
    (timeout + retry, hedged reads) on the demand-read path.

    Both execution modes dispatch onto it: the closed-loop
    :meth:`BenchRunner.run` (N clients, one in-flight query each) and
    the open-loop :class:`repro.serve.Server` (arrival-timed admission
    with batching and shedding).
    """

    def __init__(self, env: "Environment", device: SimSSD, cores: Resource,
                 pool: Resource | None, profile,
                 telemetry: RunTelemetry | None = None,
                 resilience: ResiliencePolicy | None = None) -> None:
        self.env = env
        self.device = device
        self.cores = cores
        self.pool = pool
        self.profile = profile
        self.telemetry = telemetry
        self.resilience = (resilience
                           if resilience is not None and resilience.active
                           else None)
        #: Whether demand reads go through the defended path.
        self.resilient_reads = self.resilience is not None and (
            self.resilience.read_timeout_s is not None
            or self.resilience.hedge_after_s is not None)
        #: Resilience event counts (timeouts, retries, hedges, ...).
        self.rcounts: collections.Counter[str] = collections.Counter()
        self._retry_token = 0    # global retry ordinal (jitter decorrelation)

    def note(self, event: str) -> None:
        self.rcounts[event] += 1
        if self.telemetry is not None:
            self.telemetry.on_resilience(event)

    def _read_attempt(self, payload, timing):
        """One submission of a demand round, raced against the
        policy's hedge delay and deadline.  Returns True when the
        data landed (from either copy), False on timeout."""
        env, device, resil = self.env, self.device, self.resilience
        done = device.submit(payload, "R")
        if timing is not None:
            timing.read_requests += len(payload)
            timing.read_bytes += sum(size for _off, size in payload)
        races = [done]
        deadline = resil.read_timeout_s
        if (resil.hedge_after_s is not None
                and (deadline is None
                     or resil.hedge_after_s < deadline)):
            winner = yield env.race(
                [done, env.timeout(resil.hedge_after_s)])
            if winner == 0:
                return True
            hedged = device.submit(payload, "R")
            if timing is not None:
                timing.read_requests += len(payload)
                timing.read_bytes += sum(
                    size for _off, size in payload)
            self.note("hedges")
            races = [done, hedged]
            if deadline is not None:
                deadline -= resil.hedge_after_s
        if deadline is None:
            winner = yield env.race(races)
        else:
            winner = yield env.race(races + [env.timeout(deadline)])
            if winner == len(races):
                return False
        if winner == 1 and len(races) > 1:
            self.note("hedge_wins")
        return True

    def _resilient_read(self, payload, timing, span, deadline_at=None):
        """A demand round under the resilience policy: retry with
        exponential backoff after each timeout.  Returns False when
        the original plus ``max_retries`` resubmissions all timed
        out (the round failed permanently).

        ``deadline_at`` is the query's absolute completion deadline
        (sim time) when the policy sets ``query_deadline_s``: a retry
        whose backoff alone would start it at-or-after the deadline
        provably cannot complete in time, so the round is abandoned
        (``deadline_abandons``) instead of burning the budget of an
        already-lost query."""
        env, resil = self.env, self.resilience
        attempt = 0
        while True:
            started = env.now
            landed = yield from self._read_attempt(payload, timing)
            if landed:
                if timing is not None:
                    timing.device_s += env.now - started
                if self.telemetry is not None:
                    self.telemetry.device_round.observe(env.now - started)
                return True
            self.note("timeouts")
            if span is not None:
                span.add_stage("fault", env.now - started)
            if attempt >= resil.max_retries:
                self.note("read_failures")
                return False
            attempt += 1
            backoff = resil.backoff_s(attempt, self._retry_token)
            self._retry_token += 1
            if deadline_at is not None and env.now + backoff >= deadline_at:
                self.note("deadline_abandons")
                self.note("read_failures")
                return False
            self.note("retries")
            if backoff > 0:
                yield env.timeout(backoff)
                if span is not None:
                    span.add_stage("fault", backoff)

    def _segment_proc(self, steps: list[CompiledStep], span=None,
                      seg: int = 0, cache_hits: int = 0,
                      prefetch: tuple[int, int] = (0, 0),
                      failed: list | None = None,
                      deadline_at: float | None = None):
        env, device = self.env, self.device
        request, release = self.cores.request, self.cores.release
        timing = span.segment(seg) if span is not None else None
        if timing is not None:
            timing.cache_hits += cache_hits
            timing.prefetch_useful += prefetch[0]
            timing.prefetch_wasted += prefetch[1]
        outstanding: list = []   # in-flight speculative reads
        for kind, payload in steps:
            if kind == "cpu":
                # Resource.use(payload), inlined: the same events in the
                # same order, without a generator per step.
                if timing is not None:
                    queued_at = env.now
                yield request()
                try:
                    yield Timeout(env, payload)
                finally:
                    release()
                if timing is not None:
                    timing.cpu_s += payload
                    timing.cpu_wait_s += max(
                        0.0, env.now - queued_at - payload)
            elif kind == "pf":
                # Issue speculatively and keep going: the event is
                # held, not yielded, so the device time overlaps the
                # demand beam and CPU that follow.
                outstanding.append(
                    device.submit(payload, "R", speculative=True))
                if timing is not None:
                    timing.prefetch_requests += len(payload)
                    timing.prefetch_bytes += sum(
                        size for _off, size in payload)
            elif kind == "join":
                if outstanding:
                    waited_at = env.now
                    yield env.all_of(outstanding)
                    outstanding = []
                    if timing is not None:
                        timing.prefetch_wait_s += env.now - waited_at
            else:
                if self.resilient_reads:
                    landed = yield from self._resilient_read(
                        payload, timing, span, deadline_at)
                    if not landed:
                        # Permanent read failure: abandon this
                        # segment; the query is counted as failed.
                        if failed is not None:
                            failed[0] = True
                        return
                elif timing is None:
                    yield device.submit(payload, "R")
                else:
                    submitted_at = env.now
                    yield device.submit(payload, "R")
                    timing.device_s += env.now - submitted_at
                    timing.read_requests += len(payload)
                    timing.read_bytes += sum(
                        size for _off, size in payload)
                    self.telemetry.device_round.observe(
                        env.now - submitted_at)
        # Speculative reads never joined (the wasted ones) complete
        # in the background; their channel occupancy is already
        # accounted at submission.

    def query_proc(self, plan: CompiledQuery, span=None,
                   fixed_cpu: float = 0.0):
        """Replay one compiled query; returns True if it failed.

        ``fixed_cpu`` is this query's share of the profile's fixed
        per-query CPU cost — the caller decides the amortization
        (closed loop: over ``min(concurrency, batch_cap)``; the serving
        layer: over the dispatched batch).
        """
        env, profile, pool = self.env, self.profile, self.pool
        failed = [False]
        resil = self.resilience
        deadline_at = (env.now + resil.query_deadline_s
                       if resil is not None
                       and resil.query_deadline_s is not None else None)
        if profile.rpc_s:
            yield env.timeout(profile.rpc_s / 2)
            if span is not None:
                span.add_stage("rpc", profile.rpc_s / 2)
        if pool is not None:
            queued_at = env.now
            yield pool.request()
            if span is not None:
                span.add_stage("pool_wait", env.now - queued_at)
        try:
            if fixed_cpu > 0:
                queued_at = env.now
                yield from self.cores.use(fixed_cpu)
                if span is not None:
                    span.add_stage("cpu", fixed_cpu)
                    span.add_stage("cpu_wait", max(
                        0.0, env.now - queued_at - fixed_cpu))
            parallel = (profile.intra_query_parallelism
                        and len(plan.segments) > 1)
            if parallel:
                yield env.all_of([
                    env.process(self._segment_proc(steps, span, seg, hits,
                                                   pf, failed, deadline_at))
                    for seg, (steps, hits, pf) in enumerate(
                        zip(plan.segments, plan.cache_hits,
                            plan.prefetch))])
            else:
                for seg, (steps, hits, pf) in enumerate(
                        zip(plan.segments, plan.cache_hits,
                            plan.prefetch)):
                    yield from self._segment_proc(steps, span, seg, hits,
                                                  pf, failed, deadline_at)
                    if failed[0]:
                        break
        finally:
            if pool is not None:
                pool.release()
        if profile.rpc_s:
            yield env.timeout(profile.rpc_s / 2)
            if span is not None:
                span.add_stage("rpc", profile.rpc_s / 2)
        return failed[0]


@dataclasses.dataclass
class ReplaySession:
    """One fresh simulated host with compiled plans bound to it.

    Built by :meth:`BenchRunner.open_replay`: the environment, the
    calibrated device (with optional fault injector and tracer), the
    core and admission pools, and a :class:`QueryReplayer` over them,
    alongside the cold/warm compiled plans of the requested search
    parameters.  Callers drive it by spawning
    ``session.replayer.query_proc(plan, ...)`` processes and running
    ``session.env``.
    """

    env: "Environment"
    device: SimSSD
    cores: Resource
    pool: Resource | None
    tracer: BlockTracer
    injector: FaultInjector | None
    replayer: QueryReplayer
    cold: list[CompiledQuery]
    warm: list[CompiledQuery]
    recall: float | None
    telemetry: RunTelemetry | None
    _cold_replayed: set[int] = dataclasses.field(default_factory=set)

    def plan_for(self, index: int) -> tuple[CompiledQuery, bool]:
        """The plan to replay for query *index*, tracking warm-up.

        The first replay of an index after the cache drop uses its cold
        profile, every later one the warm profile; returns
        ``(plan, cold)``.
        """
        cold = index not in self._cold_replayed
        if cold:
            self._cold_replayed.add(index)
        return (self.cold[index] if cold else self.warm[index]), cold


class BenchRunner:
    """Runs one (engine, collection, dataset) combination."""

    def __init__(self, engine: VectorEngine, collection_name: str,
                 queries: np.ndarray, ground_truth: np.ndarray | None = None,
                 device_spec: DeviceSpec | None = None,
                 cores: int = PAPER_CPU_CORES, k: int = 10,
                 paper_n: int | None = None) -> None:
        """
        Args:
            paper_n: the cardinality of the *paper's* dataset that this
                collection proxies.  When given, per-query CPU work is
                extrapolated from the proxy's size to the paper's, using
                each index family's asymptotic work growth (see
                :func:`work_extrapolation`).  Leave None for raw runs.
        """
        self.engine = engine
        self.collection: Collection = engine.collection(collection_name)
        self.queries = np.asarray(queries, dtype=np.float32)
        self.ground_truth = ground_truth
        self.device_spec = device_spec or samsung_990pro_4tb()
        self.cores = cores
        self.k = k
        self.cost = CostModel(storage_dim=self.collection.storage_dim,
                              cpu_factor=engine.profile.cpu_factor)
        self.work_scale = work_extrapolation(
            self.collection.index_spec.kind, self.collection.num_rows,
            paper_n)
        self._segment_bases = self._allocate_index_files()
        self._plan_cache: dict[tuple, tuple[list[CompiledQuery],
                                            list[CompiledQuery],
                                            float | None]] = {}
        #: Per-params functional results: one (ids, dists) pair per
        #: query, captured alongside the compiled plans.  The cluster
        #: coordinator merges these across shards (including the
        #: partial-fan-out merges of deadline-degraded queries).
        self._found_cache: dict[tuple, list[tuple[np.ndarray,
                                                  np.ndarray]]] = {}

    # -- setup ---------------------------------------------------------------

    def _allocate_index_files(self) -> dict[int, int]:
        """Device base offset of each storage-based segment index."""
        self._allocator = ExtentAllocator(self.device_spec.capacity_bytes)
        bases: dict[int, int] = {}
        for segment in self.collection.segments:
            if segment.index.storage_based:
                bases[segment.segment_id] = self._allocator.allocate(
                    max(4096, segment.index.disk_bytes()))
        return bases

    # -- functional phase ------------------------------------------------------

    def _drop_caches(self) -> None:
        """The run-prologue cache flush of the paper's methodology."""
        for segment in self.collection.segments:
            reset = getattr(segment.index, "reset_dynamic_cache", None)
            if reset is not None:
                reset()

    def _compile(self, params: dict[str, t.Any],
                 ) -> tuple[list[CompiledQuery], list[CompiledQuery],
                            float | None]:
        key = tuple(sorted(params.items()))
        if key in self._plan_cache:
            return self._plan_cache[key]
        self._drop_caches()
        cold, found = self._functional_pass(params)
        warm, _found = self._functional_pass(params)
        recall = None
        if self.ground_truth is not None:
            recall = recall_at_k(self.ground_truth[:, :self.k],
                                 [ids for ids, _dists in found], self.k)
        self._plan_cache[key] = (cold, warm, recall)
        self._found_cache[key] = found
        return self._plan_cache[key]

    def compiled_results(self, params: dict[str, t.Any],
                         ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-query functional ``(ids, dists)`` under *params*.

        Compiles (or reuses) the plans for *params* and returns the
        functional pass's results — what the engine actually answered,
        bit-identical between the cold and warm passes.  The cluster
        layer merges these across shard runners.
        """
        key = tuple(sorted(params.items()))
        self._compile(dict(params))
        return self._found_cache[key]

    def _functional_pass(self, params: dict[str, t.Any],
                         ) -> tuple[list[CompiledQuery],
                                    list[tuple[np.ndarray, np.ndarray]]]:
        plans, found = [], []
        # One batched call: segment kernels amortize across the whole
        # query set, and the results are bit-identical to per-query
        # searches (the engine-level batch contract).
        for response in self.collection.search_batch(
                self.queries, self.k, **params):
            segments, seg_hits, seg_pf = [], [], []
            # Map work profiles to segment ids: works are appended in
            # segment order, the growing buffer last.
            for work, segment in zip(response.works,
                                     self.collection.segments):
                segments.append(self._compile_work(work,
                                                   segment.segment_id))
                seg_hits.append(work.cache_hits)
                seg_pf.append((work.prefetch_hits, work.prefetch_wasted))
            for work in response.works[len(self.collection.segments):]:
                segments.append(self._compile_work(work, None))
                seg_hits.append(work.cache_hits)
                seg_pf.append((work.prefetch_hits, work.prefetch_wasted))
            plans.append(CompiledQuery(segments, seg_hits, seg_pf))
            found.append((response.ids, response.dists))
        return plans, found

    def _compile_work(self, work, segment_id: int | None,
                      ) -> list[CompiledStep]:
        base = self._segment_bases.get(segment_id, 0)
        steps: list[CompiledStep] = []
        for step in work.steps:
            if isinstance(step, CpuStep):
                seconds = self.cost.cpu_step_seconds(step) * self.work_scale
                if seconds > 0:
                    steps.append(("cpu", seconds))
            elif isinstance(step, PrefetchStep):
                if step.join:
                    steps.append(("join", None))
                elif step.requests:
                    cpu = self.cost.prefetch_step_cpu_seconds(step)
                    if cpu > 0:
                        steps.append(("cpu", cpu))
                    absolute = tuple(
                        (base + offset, size)
                        for offset, size in self._split_requests(
                            step.requests))
                    steps.append(("pf", absolute))
            elif isinstance(step, IoStep):
                cpu = self.cost.io_step_cpu_seconds(step)
                steps.append(("cpu", cpu))
                if step.requests:
                    absolute = tuple(
                        (base + offset, size)
                        for offset, size in self._split_requests(
                            step.requests))
                    steps.append(("io", absolute))
        return steps

    def _split_requests(self, requests: t.Sequence[tuple[int, int]],
                        ) -> list[tuple[int, int]]:
        """Chop extents larger than the block-layer request cap."""
        cap = self.device_spec.max_request_bytes
        out = []
        for offset, size in requests:
            while size > cap:
                out.append((offset, cap))
                offset += cap
                size -= cap
            out.append((offset, size))
        return out

    # -- timing phase -----------------------------------------------------------

    def open_replay(self, search_params: dict | None = None, *,
                    telemetry: RunTelemetry | None = None,
                    trace: bool = False,
                    fault_plan: FaultPlan | None = None,
                    resilience: ResiliencePolicy | None = None,
                    ) -> ReplaySession:
        """A fresh simulated host ready to replay this runner's queries.

        Compiles (or reuses) the cold/warm plans for *search_params* and
        builds the environment, device, core pool, and optional DiskANN
        admission pool — everything :meth:`run` assembles for a closed
        loop, packaged for callers that drive their own schedule (the
        open-loop :class:`repro.serve.Server`).
        """
        params = dict(search_params or {})
        cold, warm, recall = self._compile(params)
        env = Environment()
        tracer = BlockTracer(enabled=trace)
        injector = (FaultInjector(fault_plan, telemetry=telemetry)
                    if fault_plan is not None else None)
        device = SimSSD(env, self.device_spec, tracer, telemetry=telemetry,
                        injector=injector)
        cores = Resource(env, self.cores, name="cores", telemetry=telemetry)
        profile = self.engine.profile
        pool_size = getattr(profile, "diskann_pool", 0)
        pool = (Resource(env, pool_size, name="diskann_pool",
                         telemetry=telemetry)
                if pool_size and self.collection.index_spec.kind == "diskann"
                else None)
        replayer = QueryReplayer(env, device, cores, pool, profile,
                                 telemetry=telemetry, resilience=resilience)
        return ReplaySession(env=env, device=device, cores=cores, pool=pool,
                             tracer=tracer, injector=injector,
                             replayer=replayer, cold=cold, warm=warm,
                             recall=recall, telemetry=telemetry)

    def run(self, concurrency: int, search_params: dict | None = None,
            duration_s: float = 4.0, max_queries: int = 25_000,
            trace: bool = False, phase: int = 0,
            write_load: WriteLoad | None = None,
            telemetry: RunTelemetry | bool | None = None,
            fault_plan: FaultPlan | None = None,
            resilience: ResiliencePolicy | None = None) -> RunResult:
        """One measured run at one concurrency level.

        ``phase`` offsets each client's starting query (the repetition
        knob; the simulator itself is deterministic).

        ``telemetry`` attaches a :class:`~repro.obs.RunTelemetry` (pass
        ``True`` to create a fresh one): every replayed query then gets a
        :class:`~repro.obs.QuerySpan` with per-segment stage timings and
        I/O attribution, and the device/core/pool instruments feed the
        shared histograms.  Telemetry is passive — with it off (the
        default) or on, the simulated schedule and every reported number
        are identical.

        ``fault_plan`` attaches a :class:`~repro.faults.FaultPlan` to the
        device's read path; its windows are positioned on this run's
        simulated timeline (t=0 is run start).  An empty plan — or none —
        leaves every number bit-identical to an unfaulted run.

        ``resilience`` deploys host-side defences on the demand-read
        path (timeout+retry, hedged reads, graceful degradation; see
        :class:`~repro.faults.ResiliencePolicy`).  A query whose read
        exhausts its retry budget is dropped from the latency/QPS
        population and counted under ``result.faults["failed_queries"]``;
        if *every* query fails, the run raises
        :class:`~repro.errors.FaultError`.  With degradation enabled,
        the reported recall is the completion-weighted mix of the full
        and degraded plans' compile-time recalls.
        """
        if concurrency < 1:
            raise WorkloadError(f"concurrency must be >= 1: {concurrency}")
        telem = RunTelemetry() if telemetry is True else (telemetry or None)
        params = dict(search_params or {})
        profile = self.engine.profile
        resil = (resilience
                 if resilience is not None and resilience.active else None)

        def failure(reason: str) -> RunResult:
            return RunResult(
                engine=profile.name,
                index_kind=self.collection.index_spec.kind,
                dataset=self.collection.name, concurrency=concurrency,
                completed=0, elapsed_s=0.0, qps=0.0,
                mean_latency_s=float("nan"), p99_latency_s=float("nan"),
                cpu_utilization=0.0, device_utilization=0.0,
                read_bytes=0, write_bytes=0, search_params=params,
                error=reason)

        try:
            self.engine.check_concurrency_memory(concurrency)
        except OutOfMemoryError:
            return failure("out-of-memory")

        cache_base = self._cache_counters() if telem is not None else {}
        session = self.open_replay(params, telemetry=telem, trace=trace,
                                   fault_plan=fault_plan, resilience=resil)
        cold, warm, recall = session.cold, session.warm, session.recall
        degraded_cold = degraded_warm = None
        recall_degraded: float | None = None
        degraded_params: dict[str, t.Any] = {}
        tracker = None
        if resil is not None and resil.degrade:
            degraded_params = (dict(resil.degrade_params)
                               if resil.degrade_params is not None
                               else degraded_search_params(
                                   self.collection.index_spec.kind,
                                   params, resil.degrade_factor, self.k))
            degraded_cold, degraded_warm, recall_degraded = self._compile(
                degraded_params)
            tracker = PressureTracker(resil)
        env, device, cores = session.env, session.device, session.cores
        tracer, injector = session.tracer, session.injector
        replayer = session.replayer
        fixed_cpu = (profile.fixed_query_cpu_s
                     / min(concurrency, profile.batch_cap))
        state = _RunState(n_queries=len(self.queries),
                          max_queries=max_queries)

        def client(client_id: int):
            while env.now < duration_s and state.issued < state.max_queries:
                ordinal = state.issued
                state.issued += 1
                index = (ordinal + client_id + phase) % state.n_queries
                # Cold-vs-warm is a per-*index* decision: the first
                # replay of a query index after the cache drop uses its
                # cold profile, every later replay the warm one.  (The
                # global issue ordinal is offset from the index by
                # client_id + phase, so gating on it replayed some
                # indexes cold twice and others never.)
                cold_replay = state.first_touch(index)
                degraded = tracker is not None and tracker.degraded
                if degraded:
                    plan = (degraded_cold if cold_replay
                            else degraded_warm)[index]
                else:
                    plan = cold[index] if cold_replay else warm[index]
                span = (telem.begin_query(ordinal, index, client_id,
                                          cold_replay, env.now)
                        if telem is not None else None)
                if span is not None and degraded:
                    span.degraded = True
                start = env.now
                query_failed = yield from replayer.query_proc(plan, span,
                                                              fixed_cpu)
                latency = env.now - start
                if tracker is not None:
                    tracker.on_completion(latency,
                                          failed=bool(query_failed))
                if query_failed:
                    state.failures += 1
                else:
                    state.latencies.append(latency)
                    state.last_completion = env.now
                    if degraded:
                        state.degraded_completions += 1
                if span is not None:
                    telem.end_query(span, env.now)

        def writer(writer_id: int):
            log_size = 256 * write_load.bytes_per_flush
            base = self._allocator.allocate(log_size)
            position = 0
            cap = self.device_spec.max_request_bytes
            while env.now < duration_s:
                yield env.timeout(write_load.interval_s)
                remaining = write_load.bytes_per_flush
                requests = []
                while remaining > 0:
                    size = min(remaining, cap)
                    if position + size > log_size:
                        position = 0  # circular log wrap
                    requests.append((base + position, size))
                    position += size
                    remaining -= size
                yield from cores.use(
                    len(requests) * self.device_spec.cpu_per_request_s)
                yield device.submit(requests, "W")

        for client_id in range(concurrency):
            env.process(client(client_id))
        if write_load is not None:
            for writer_id in range(write_load.writers):
                env.process(writer(writer_id))
        env.run()

        completed = len(state.latencies)
        if completed == 0:
            if state.failures:
                raise FaultError(
                    f"all {state.failures} queries failed: demand reads "
                    f"exhausted their retry budget under the fault plan")
            raise WorkloadError(
                "run completed no queries; duration too short?")
        elapsed = max(state.last_completion, 1e-9)
        if (tracker is not None and state.degraded_completions
                and recall is not None and recall_degraded is not None):
            # Completion-weighted recall: queries replayed degraded
            # contribute the degraded plan's compile-time recall.
            fraction = state.degraded_completions / completed
            recall = recall * (1.0 - fraction) + recall_degraded * fraction
        faults = None
        if injector is not None or resil is not None:
            faults = {}
            if injector is not None:
                faults["injected"] = injector.summary()
            if resil is not None:
                for event in ("timeouts", "retries", "hedges",
                              "hedge_wins", "read_failures",
                              "deadline_abandons"):
                    faults[event] = replayer.rcounts.get(event, 0)
                faults["failed_queries"] = state.failures
                if tracker is not None:
                    faults["degraded"] = DegradedResult(
                        queries=state.degraded_completions,
                        total=completed, params=degraded_params)
        if telem is not None:
            # Functional-phase cache activity attributable to this run
            # (zero when the plan compile was already cached).
            for name, value in self._cache_counters().items():
                delta = value - cache_base.get(name, 0)
                if delta:
                    telem.counter(name).inc(delta)
        return RunResult(
            engine=profile.name,
            index_kind=self.collection.index_spec.kind,
            dataset=self.collection.name,
            concurrency=concurrency,
            completed=completed,
            elapsed_s=elapsed,
            qps=completed / elapsed,
            mean_latency_s=float(np.mean(state.latencies)),
            p99_latency_s=percentile(state.latencies, 99),
            p50_latency_s=percentile(state.latencies, 50),
            p95_latency_s=percentile(state.latencies, 95),
            cpu_utilization=cores.utilization(elapsed),
            device_utilization=device.utilization(elapsed),
            read_bytes=device.bytes_read,
            write_bytes=device.bytes_written,
            recall=recall,
            search_params=params,
            tracer=tracer if trace else None,
            telemetry=telem,
            faults=faults,
        )

    #: Counter names that predate the generic per-kind scheme; kept so
    #: existing dashboards/tests keep their series.
    _COUNTER_ALIASES = {("diskann", "misses"): "cache_diskann_node_misses"}

    def _cache_counters(self) -> dict[str, int]:
        """Cumulative cache counters of the collection's indexes.

        Any index exposing ``cache_stats() -> dict`` is folded in under
        ``cache_<kind>_<stat>`` names (DiskANN node caches, SPANN
        posting-list caches, ...).
        """
        totals: collections.Counter[str] = collections.Counter()
        for segment in self.collection.segments:
            index = segment.index
            stats_fn = getattr(index, "cache_stats", None)
            if stats_fn is not None:
                for stat, value in stats_fn().items():
                    name = self._COUNTER_ALIASES.get(
                        (index.kind, stat), f"cache_{index.kind}_{stat}")
                    totals[name] += value
            cache = getattr(index, "cache", None)
            if cache is not None and hasattr(cache, "hits"):
                totals["cache_page_hits"] += cache.hits
                totals["cache_page_misses"] += cache.misses
        return dict(totals)


@dataclasses.dataclass
class _RunState:
    n_queries: int
    max_queries: int
    issued: int = 0
    last_completion: float = 0.0
    latencies: list[float] = dataclasses.field(default_factory=list)
    cold_replayed: set[int] = dataclasses.field(default_factory=set)
    #: Queries whose demand reads failed permanently (FaultError path).
    failures: int = 0
    #: Completions replayed with degraded (shrunken) search params.
    degraded_completions: int = 0

    def first_touch(self, index: int) -> bool:
        """True exactly once per query index: replay its cold profile."""
        if index in self.cold_replayed:
            return False
        self.cold_replayed.add(index)
        return True
