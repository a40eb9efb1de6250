"""Host-time spans recorded from outside the program.

A :class:`Tracer` keeps spans in memory — name, start, end, parent and
the run id they share — and :func:`instrument` wraps the two public
calls the benchmark cannot time from its own call sites:
``repro.simkernel.Environment.run`` (whose ``events_processed`` it
reads) and ``repro.engines.Collection.search_batch`` (the functional
pass inside ``BenchRunner.compiled_results``).  Nothing under ``src/``
changes.  Untraced measured phases record no spans and install no
wrapper; a :class:`HostClock` times them instead.
"""

from __future__ import annotations

import array
import collections
import contextlib
import heapq
import json
import signal
import statistics
import time
import typing as t
from pathlib import Path


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict[str, t.Any]] = []
        #: Counts taken at the same boundaries as the spans.
        self.counts: collections.Counter[str] = collections.Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> t.Iterator[dict[str, t.Any]]:
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "run": self.run_id, "start": time.perf_counter(),
                  "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str, within: dict | None = None) -> float:
        """Summed duration of spans called *name* (inside *within*)."""
        return sum((s["end"] - s["start"] for s in self.select(name, within)),
                   0.0)

    def self_times(self, within: dict) -> dict[str, float]:
        """Self time per layer inside *within*: each span's duration
        minus its children's, summed by the module prefix of its name."""
        spans = self.select(None, within)
        child = collections.Counter()
        for s in spans:
            child[s["parent"]] += s["end"] - s["start"]
        layers: collections.Counter[str] = collections.Counter()
        for s in spans:
            layer = s["name"].split(".", 1)[0]
            layers[layer] += s["end"] - s["start"] - child[s["id"]]
        return dict(layers)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps(s) + "\n")

    def select(self, name: str | None, within: dict | None) -> list[dict]:
        """Spans called *name* (any name if None), nested at any depth
        inside *within* (anywhere if None)."""
        if within is None:
            return [s for s in self.spans if name in (None, s["name"])]
        inside = {within["id"]}
        chosen = []
        for s in self.spans[within["id"] + 1:]:
            if s["parent"] in inside:
                inside.add(s["id"])
                if name in (None, s["name"]):
                    chosen.append(s)
        return chosen


class _NullTracer:
    """Records nothing: for set-up and calls outside the measured phase."""

    def span(self, name: str) -> contextlib.nullcontext:
        return contextlib.nullcontext({})


NULL = _NullTracer()

#: Wall seconds between two probes of the host's speed.
PROBE_INTERVAL_S = 0.05
#: Probes whose mean prices the stretch of code between two of them:
#: the four on either side of it, about 0.4 s of the program.
PROBE_WINDOW = 8
#: CPU seconds of one probe on the 2-core Xeon VM the benchmark was
#: sized on, at its fastest (quiet) speed: the host speed that
#: calibrated times are expressed at.
REFERENCE_PROBE_S = 0.001

_PROBE_TABLE = {key: key & 1 for key in range(1024)}
_PROBE_HEAP: list[int] = []


def probe_s() -> float:
    """CPU seconds of a fixed piece of interpreter work — dictionary
    updates and heap pushes and pops, as in the simulator's event loop
    and the beam search's bookkeeping — that no change to the program
    under test can move.

    It creates no object the garbage collector counts, so it adds next
    to nothing to the count that schedules the program's collections.
    """
    start = time.process_time()
    table, heap = _PROBE_TABLE, _PROBE_HEAP
    for i in range(6000):
        key = i & 1023
        table[key] = table[key] ^ 1
    for i in range(1000):
        heapq.heappush(heap, i * 7919 % 1000)
    while heap:
        heapq.heappop(heap)
    return time.process_time() - start


def calibrate(marks: tuple[t.Sequence[float], t.Sequence[float]]) -> float:
    """CPU seconds between probes, at the reference speed.

    *marks* holds the CPU time at each probe's start and each probe's
    CPU seconds, in order, the first probe taken at the start of the
    timed code and the last at its end.  Each stretch between two
    probes is scaled by ``REFERENCE_PROBE_S`` over the mean of the
    ``PROBE_WINDOW`` probes around it.
    """
    starts, probes = marks
    half = PROBE_WINDOW // 2
    total = 0.0
    for k in range(len(starts) - 1):
        stretch = starts[k + 1] - starts[k] - probes[k]
        window = probes[max(0, k + 1 - half):k + 1 + half]
        total += stretch * REFERENCE_PROBE_S / statistics.fmean(window)
    return total


class HostClock:
    """Times a block of serial code in CPU seconds, at a fixed host speed.

    A shared host's speed drifts by tens of percent, and at times
    twofold, within seconds; CPU time drifts with it.  While the block
    runs, ``SIGALRM`` fires every ``PROBE_INTERVAL_S`` wall seconds and
    its handler runs :func:`probe_s` between two bytecodes of the
    program, so the probes see the speed the program saw around them.
    ``cpu_s`` is the block's CPU seconds without the probes;
    ``calibrated_s`` prices them by :func:`calibrate`.  A program that
    gets faster lowers both in proportion; a host that slows down moves
    ``cpu_s`` but hardly ``calibrated_s``.
    """

    cpu_s: float
    calibrated_s: float

    def __enter__(self) -> HostClock:
        # Arrays of doubles, not tuples, so that recording a probe
        # creates no object the garbage collector counts either.
        self._marks = (array.array("d"), array.array("d"))
        self._probing = False
        self._handler = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._probe()
        starts, probes = self._marks
        self.cpu_s = starts[-1] - starts[0] - sum(probes[:-1])
        self.calibrated_s = calibrate(self._marks)

    def _probe(self, *_signal: object) -> None:
        if self._probing:       # a signal that arrived during a probe
            return
        self._probing = True
        starts, probes = self._marks
        starts.append(time.process_time())
        probes.append(probe_s())
        self._probing = False


@contextlib.contextmanager
def instrument(tracer: Tracer) -> t.Iterator[None]:
    """Wrap ``Environment.run`` and ``Collection.search_batch`` so each
    call records a span and its counts; restores both on exit."""
    from repro.engines.engine import Collection
    from repro.simkernel import Environment

    run, search_batch = Environment.run, Collection.search_batch

    def traced_run(env, until=None):
        before = env.events_processed
        with tracer.span("simkernel.run"):
            try:
                return run(env, until)
            finally:
                tracer.counts["simkernel.events"] += (
                    env.events_processed - before)

    def traced_search_batch(collection, queries, k=10, **params):
        with tracer.span("engines.search_batch"):
            results = search_batch(collection, queries, k, **params)
        tracer.counts["engines.queries"] += len(results)
        tracer.counts["ann.read_bytes"] += sum(
            r.total_work.io_bytes + r.total_work.prefetch_bytes
            for r in results)
        return results

    Environment.run = traced_run
    Collection.search_batch = traced_search_batch
    try:
        yield
    finally:
        Environment.run = run
        Collection.search_batch = search_batch
