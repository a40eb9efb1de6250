"""Output checks: per-point invariants and the simulated-result digest.

A point is one measured call — a closed-loop run or a serving run.  It
fails if the call raised or if its returned result breaks one of the
invariants in :func:`violations`.  :func:`sim_digest` hashes every
simulated field of every point's result (telemetry and the block
tracer excluded), so two runs of a seed agree on it exactly, traced or
not.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing as t

#: The recall@10 floor at every ``search_list >= 10`` point.
MIN_RECALL = 0.9


@dataclasses.dataclass
class Point:
    """One measured call of a workload and what it returned."""

    label: str
    result: t.Any = None
    search_list: int = 0
    #: Serving points carrying a mutation load must compact at least once.
    expect_compaction: bool = False
    #: ``repr`` of the exception the call raised, if any.
    error: str | None = None
    #: Broken invariants, filled in by :func:`check`.
    broken: list[str] = dataclasses.field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.broken)


def violations(point: Point) -> list[str]:
    """The invariants *point*'s result breaks, as readable strings."""
    result = point.result
    if result is None:
        return ["no result"]
    broken = []
    if result.completed <= 0:
        broken.append(f"completed={result.completed}")
    if hasattr(result, "arrivals"):         # a serving run
        if result.arrivals != result.admitted + result.rejected:
            broken.append(f"arrivals {result.arrivals} != admitted "
                          f"{result.admitted} + rejected {result.rejected}")
        if result.admitted != result.completed + result.failed + result.shed:
            broken.append(
                f"admitted {result.admitted} != completed "
                f"{result.completed} + failed {result.failed} + shed "
                f"{result.shed}")
        if point.expect_compaction and (result.mutation is None
                                        or result.mutation.compactions < 1):
            broken.append("no compaction under the mutation load")
    else:                                   # a closed-loop run
        if result.error is not None:
            broken.append(f"error={result.error}")
        for name in ("cpu_utilization", "device_utilization"):
            value = getattr(result, name)
            if not 0.0 <= value <= 1.0:
                broken.append(f"{name}={value}")
        telemetry = result.telemetry
        if (telemetry is not None
                and telemetry.total_read_bytes != result.read_bytes):
            broken.append(f"span read bytes {telemetry.total_read_bytes} "
                          f"!= result read bytes {result.read_bytes}")
    if point.search_list >= 10 and (result.recall is None
                                    or result.recall < MIN_RECALL):
        broken.append(f"recall@10={result.recall} at "
                      f"search_list={point.search_list}")
    return broken


def check(point: Point) -> Point:
    """Record *point*'s broken invariants on it; returns *point*."""
    if point.error is None:
        point.broken = violations(point)
    return point


def sim_fields(result: t.Any) -> list[tuple[str, t.Any]]:
    """Every simulated field of a run or serving result."""
    return [(f.name, getattr(result, f.name))
            for f in dataclasses.fields(result)
            if f.name not in ("telemetry", "tracer")]


def sim_digest(points: t.Iterable[Point]) -> str:
    """SHA-256 over the simulated fields of every point, in order."""
    digest = hashlib.sha256()
    for point in points:
        fields = (sim_fields(point.result) if point.result is not None
                  else [("error", point.error)])
        digest.update(repr((point.label, fields)).encode())
    return digest.hexdigest()[:16]
