"""Unit tests for the telemetry counter and histogram primitives."""

import math

import pytest

from repro.errors import ReproError
from repro.obs import (DEPTH_BUCKETS, LATENCY_BUCKETS_S, SIZE_BUCKETS,
                       Counter, Histogram)


class TestBucketSchemes:
    def test_latency_edges_span_1us_to_10s(self):
        assert LATENCY_BUCKETS_S[0] == pytest.approx(1e-6)
        assert LATENCY_BUCKETS_S[-1] == pytest.approx(10.0)
        # Four per decade: consecutive ratio is 10^(1/4).
        for a, b in zip(LATENCY_BUCKETS_S, LATENCY_BUCKETS_S[1:]):
            assert b / a == pytest.approx(10 ** 0.25)

    def test_size_edges_are_powers_of_two(self):
        assert SIZE_BUCKETS[0] == 512
        assert SIZE_BUCKETS[-1] == 16 << 20
        assert all(b == 2 * a for a, b in zip(SIZE_BUCKETS, SIZE_BUCKETS[1:]))

    def test_depth_edges_start_at_zero(self):
        assert DEPTH_BUCKETS[0] == 0
        assert DEPTH_BUCKETS[1] == 1


class TestCounter:
    def test_increments(self):
        c = Counter("reads")
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_negative_increment_rejected(self):
        with pytest.raises(ReproError):
            Counter("reads").inc(-1)


class TestHistogram:
    def test_value_on_edge_lands_in_that_bucket(self):
        hist = Histogram("sizes", SIZE_BUCKETS)
        hist.observe(512)              # exactly the first upper edge
        assert hist.counts[0] == 1

    def test_value_just_past_edge_lands_in_next_bucket(self):
        hist = Histogram("sizes", SIZE_BUCKETS)
        hist.observe(513)
        assert hist.counts[0] == 0
        assert hist.counts[1] == 1

    def test_overflow_bucket(self):
        hist = Histogram("sizes", SIZE_BUCKETS)
        hist.observe((16 << 20) + 1)
        assert hist.counts[-1] == 1
        assert hist.cumulative()[-1] == 0   # not part of any le edge

    def test_zero_lands_in_first_bucket(self):
        hist = Histogram("sizes", SIZE_BUCKETS)
        hist.observe(0)
        assert hist.counts[0] == 1

    def test_count_sum_mean(self):
        hist = Histogram("lat")
        for v in (1e-4, 2e-4, 3e-4):
            hist.observe(v)
        assert hist.count == 3
        assert hist.sum == pytest.approx(6e-4)
        assert hist.mean == pytest.approx(2e-4)

    def test_empty_mean_and_quantile_are_zero(self):
        hist = Histogram("lat")
        assert hist.mean == 0.0
        assert hist.quantile(0.5) == 0.0

    def test_cumulative_is_monotone_and_totals(self):
        hist = Histogram("sizes", SIZE_BUCKETS)
        for v in (100, 600, 5000, 5000, 1 << 22):
            hist.observe(v)
        cum = hist.cumulative()
        assert all(b >= a for a, b in zip(cum, cum[1:]))
        assert cum[-1] == hist.count  # nothing overflowed

    def test_quantile_returns_bucket_edge(self):
        hist = Histogram("sizes", SIZE_BUCKETS)
        for _ in range(99):
            hist.observe(1000)         # bucket edge 1024
        hist.observe(1 << 20)
        assert hist.quantile(0.5) == 1024
        assert hist.quantile(1.0) == 1 << 20

    def test_bad_quantile_raises(self):
        with pytest.raises(ReproError):
            Histogram("lat").quantile(1.5)

    def test_merge_adds_counts(self):
        a, b = Histogram("lat"), Histogram("lat")
        a.observe(1e-3)
        b.observe(1e-3)
        b.observe(5.0)
        a.merge(b)
        assert a.count == 3
        assert a.sum == pytest.approx(2e-3 + 5.0)

    def test_merge_rejects_different_edges(self):
        with pytest.raises(ReproError):
            Histogram("lat").merge(Histogram("sizes", SIZE_BUCKETS))

    def test_non_increasing_edges_rejected(self):
        with pytest.raises(ReproError):
            Histogram("bad", (1, 1, 2))
        with pytest.raises(ReproError):
            Histogram("bad", ())

    def test_dict_roundtrip(self):
        hist = Histogram("sizes", SIZE_BUCKETS)
        hist.observe(4096)
        clone = Histogram.from_dict(hist.to_dict())
        assert clone.name == hist.name
        assert clone.buckets == hist.buckets
        assert clone.counts == hist.counts
        assert clone.count == hist.count
        assert clone.sum == hist.sum


def reference_bucket_of(buckets, value):
    """The original hand-written search: first edge >= value, else the
    overflow bucket (where NaN, which compares false, also lands)."""
    lo, hi = 0, len(buckets)
    while lo < hi:
        mid = (lo + hi) // 2
        if value <= buckets[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("buckets", [LATENCY_BUCKETS_S, SIZE_BUCKETS,
                                     DEPTH_BUCKETS, (1.0,), (-1.0, 0.0, 2.5)])
def test_bucket_of_matches_reference_at_and_around_edges(buckets):
    hist = Histogram("h", buckets)
    probes = [-math.inf, math.inf, math.nan, 0, 0.0, -0.0]
    for edge in buckets:
        probes += [edge, math.nextafter(edge, -math.inf),
                   math.nextafter(edge, math.inf), edge - 1, edge + 1]
    for value in probes:
        assert hist._bucket_of(value) == reference_bucket_of(
            hist.buckets, value), value


def test_nan_lands_in_the_overflow_bucket():
    hist = Histogram("lat")
    hist.observe(math.nan)
    assert hist.counts[-1] == 1
