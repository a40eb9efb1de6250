"""Counter and histogram primitives for run telemetry.

The paper's I/O characterization (Section V) is built from two kinds of
distributions: *latencies* (query and stage durations, best viewed on a
log axis) and *request sizes* (which the block layer quantizes to
power-of-two-ish granularities — the pure-4 KiB streams of O-15).  Both
bucket schemes are therefore fixed at import time:

* :data:`LATENCY_BUCKETS_S` — log-spaced edges, four per decade, from
  1 us to 10 s;
* :data:`SIZE_BUCKETS` — power-of-two edges from 512 B to 16 MiB.

Fixed buckets make histograms mergeable across queries, runs, and
repetitions without rebinning, and render directly as Prometheus
cumulative buckets.
"""

from __future__ import annotations

import bisect
import dataclasses
import typing as t

from repro.errors import ReproError

#: Log-spaced latency bucket upper edges in seconds: 10^(i/4) for
#: i in [-24, 4], i.e. 1 us .. 10 s, four buckets per decade.
LATENCY_BUCKETS_S: tuple[float, ...] = tuple(
    10.0 ** (i / 4) for i in range(-24, 5))

#: Power-of-two request-size bucket upper edges in bytes: 512 B .. 16 MiB.
SIZE_BUCKETS: tuple[int, ...] = tuple(1 << p for p in range(9, 25))

#: Queue-depth bucket upper edges (0, then powers of two up to 1024).
DEPTH_BUCKETS: tuple[int, ...] = (0,) + tuple(1 << p for p in range(11))


@dataclasses.dataclass
class Counter:
    """A monotonically increasing named counter."""

    name: str
    value: int = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ReproError(f"counter {self.name} decremented: {amount}")
        self.value += amount

    def to_dict(self) -> dict[str, t.Any]:
        return {"name": self.name, "value": self.value}


class Histogram:
    """Fixed-bucket histogram with count, sum, and an overflow bucket.

    ``buckets`` are *upper* edges; an observation lands in the first
    bucket whose edge is >= the value, or in the overflow bucket past
    the last edge.  Edges must be strictly increasing.
    """

    def __init__(self, name: str,
                 buckets: t.Sequence[float] = LATENCY_BUCKETS_S) -> None:
        if not buckets or any(b <= a for a, b in zip(buckets, buckets[1:])):
            raise ReproError(f"histogram edges must increase: {buckets}")
        self.name = name
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.sum += value
        self.counts[self._bucket_of(value)] += 1

    def _bucket_of(self, value: float) -> int:
        if value != value:
            # NaN compares false with every edge: the overflow bucket
            # (bisect_left alone would put it in bucket 0).
            return len(self.buckets)
        return bisect.bisect_left(self.buckets, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative(self) -> list[int]:
        """Cumulative counts per edge (Prometheus ``le`` semantics)."""
        out, running = [], 0
        for c in self.counts[:-1]:
            running += c
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper edge of the q-th bucket."""
        if not 0.0 <= q <= 1.0:
            raise ReproError(f"bad quantile: {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for edge, c in zip(self.buckets, self.counts):
            running += c
            if running >= target:
                return float(edge)
        return float(self.buckets[-1])

    def merge(self, other: "Histogram") -> None:
        """Fold *other* into this histogram (same edges required)."""
        if other.buckets != self.buckets:
            raise ReproError(
                f"cannot merge histograms with different edges: "
                f"{self.name} / {other.name}")
        self.count += other.count
        self.sum += other.sum
        for i, c in enumerate(other.counts):
            self.counts[i] += c

    def to_dict(self) -> dict[str, t.Any]:
        return {"name": self.name, "buckets": list(self.buckets),
                "counts": list(self.counts), "count": self.count,
                "sum": self.sum}

    @classmethod
    def from_dict(cls, data: dict[str, t.Any]) -> "Histogram":
        hist = cls(data["name"], tuple(data["buckets"]))
        hist.counts = list(data["counts"])
        hist.count = data["count"]
        hist.sum = data["sum"]
        return hist
