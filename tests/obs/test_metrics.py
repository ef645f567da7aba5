"""Tests for the metrics registry: counters, gauges, histograms, spans."""

import math

import pytest

from repro.obs.metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Histogram,
    MetricsRegistry,
    maybe_span,
)


class TestHistogram:
    def test_counts_has_overflow_slot(self):
        histogram = Histogram((1.0, 10.0))
        assert len(histogram.counts) == 3

    def test_observe_buckets_by_upper_bound_inclusive(self):
        histogram = Histogram((1.0, 10.0))
        histogram.observe(1.0)
        histogram.observe(1.5)
        histogram.observe(100.0)
        assert histogram.counts == [1, 1, 1]
        assert histogram.count == 3
        assert histogram.total == pytest.approx(102.5)
        assert histogram.min == 1.0 and histogram.max == 100.0

    def test_boundaries_must_strictly_increase(self):
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(())

    def test_snapshot_is_finite_when_empty(self):
        snapshot = Histogram((1.0,)).snapshot()
        assert snapshot["min"] == 0.0 and snapshot["max"] == 0.0
        assert all(math.isfinite(snapshot[k]) for k in ("sum", "min", "max"))

    def test_merge_adds_buckets_and_combines_extrema(self):
        a, b = Histogram((1.0, 10.0)), Histogram((1.0, 10.0))
        a.observe(0.5)
        b.observe(5.0)
        b.observe(50.0)
        a.merge(b.snapshot())
        assert a.counts == [1, 1, 1]
        assert a.count == 3
        assert a.min == 0.5 and a.max == 50.0

    def test_merge_rejects_mismatched_boundaries(self):
        a, b = Histogram((1.0,)), Histogram((2.0,))
        with pytest.raises(ValueError, match="boundaries"):
            a.merge(b.snapshot())

    def test_merge_of_empty_snapshot_keeps_extrema(self):
        a, b = Histogram((1.0,)), Histogram((1.0,))
        a.observe(0.5)
        a.merge(b.snapshot())
        assert a.min == 0.5 and a.max == 0.5


class TestRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("sim.deaths")
        registry.inc("sim.deaths", 4)
        assert registry.counter("sim.deaths") == 5
        assert registry.counter("never.touched") == 0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().inc("x", -1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("runner.jobs", 2)
        registry.gauge("runner.jobs", 8)
        assert registry.gauge_value("runner.jobs") == 8
        assert registry.gauge_value("never.set") is None

    def test_span_records_a_timing(self):
        registry = MetricsRegistry()
        with registry.span("sim/kernel"):
            pass
        timing = registry.timing("sim/kernel")
        assert timing is not None and timing.count == 1
        assert timing.boundaries == DEFAULT_TIME_BUCKETS

    def test_observe_uses_count_buckets(self):
        registry = MetricsRegistry()
        registry.observe("sim.deaths_per_run", 42)
        histogram = registry.histogram("sim.deaths_per_run")
        assert histogram is not None
        assert histogram.boundaries == DEFAULT_COUNT_BUCKETS

    @pytest.mark.parametrize("value,count", [(1, 10_517), (3, 2), (0, 5), (2e6, 7)])
    def test_bulk_observe_equals_single_observations(self, value, count):
        bulk, single = MetricsRegistry(), MetricsRegistry()
        for registry in (bulk, single):
            registry.observe("sim.epoch_size", 4)
        bulk.observe("sim.epoch_size", value, count=count)
        for _ in range(count):
            single.observe("sim.epoch_size", value)
        assert bulk.snapshot() == single.snapshot()

    def test_bulk_observe_rejects_non_positive_count(self):
        with pytest.raises(ValueError, match="count"):
            MetricsRegistry().observe("sim.epoch_size", 1, count=0)

    def test_snapshot_key_order_independent_of_recording_order(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("x")
        a.inc("y")
        b.inc("y")
        b.inc("x")
        assert list(a.snapshot()["counters"]) == list(b.snapshot()["counters"])

    def test_merge_snapshot_is_commutative(self):
        def worker(seed):
            registry = MetricsRegistry()
            registry.inc("sim.deaths", seed)
            registry.observe("sim.deaths_per_run", seed)
            # Binary-exact durations so the merged sum is order-exact too.
            registry.observe_seconds("runner/worker_run", seed * 0.25)
            return registry.snapshot()

        snapshots = [worker(s) for s in (3, 7, 11)]
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for snapshot in snapshots:
            forward.merge_snapshot(snapshot)
        for snapshot in reversed(snapshots):
            backward.merge_snapshot(snapshot)
        assert forward.snapshot() == backward.snapshot()

    def test_maybe_span_without_registry_is_noop(self):
        with maybe_span(None, "anything"):
            pass

    def test_maybe_span_with_registry_records(self):
        registry = MetricsRegistry()
        with maybe_span(registry, "cache/get"):
            pass
        assert registry.timing("cache/get").count == 1
