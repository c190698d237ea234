"""Counters, gauges and the metrics registry."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import Counter, Gauge, MetricsRegistry, NULL_METRIC


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("events")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increments(self):
        with pytest.raises(ConfigurationError):
            Counter("events").inc(-1.0)


class TestGauge:
    def test_holds_latest_value(self):
        gauge = Gauge("throughput")
        gauge.set(10.0)
        gauge.set(3.0)
        assert gauge.value == 3.0


class TestNullMetrics:
    def test_null_counter_discards(self):
        NULL_METRIC.inc(100.0)
        assert NULL_METRIC.value == 0.0

    def test_null_gauge_discards(self):
        NULL_METRIC.set(42.0)
        assert NULL_METRIC.value == 0.0


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        a = registry.counter("x")
        b = registry.counter("x")
        assert a is b
        a.inc()
        assert registry.value("x") == 1.0

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")

    def test_snapshot_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(2.0)
        registry.gauge("a").set(1.0)
        assert registry.snapshot() == {"a": 1.0, "b": 2.0}

    def test_value_default_for_missing(self):
        assert MetricsRegistry().value("missing", default=-1.0) == -1.0

    def test_contains_len_get(self):
        registry = MetricsRegistry()
        registry.counter("x")
        assert "x" in registry
        assert "y" not in registry
        assert len(registry) == 1
        assert registry.get("x").name == "x"
        assert registry.get("y") is None

    def test_reset_clears(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.reset()
        assert len(registry) == 0

    def test_table_renders_all_metrics(self):
        registry = MetricsRegistry()
        registry.counter("events", "things that happened").inc(7.0)
        registry.gauge("depth").set(2.0)
        rendered = registry.table().render()
        assert "events" in rendered
        assert "things that happened" in rendered
        assert "depth" in rendered


class TestRegistryMergeNewKinds:
    def test_merge_is_order_deterministic(self):
        def build(increments, latest):
            registry = MetricsRegistry()
            for value in increments:
                registry.counter("lat").inc(value)
            registry.gauge("depth").set(latest)
            return registry

        sequential = build([0.5, 5.0, 50.0, 2.0], 4.0)
        merged = build([0.5, 5.0], 3.0)
        merged.merge(build([50.0, 2.0], 4.0))
        assert merged.records() == sequential.records()
        assert merged.snapshot() == sequential.snapshot()


class TestRecords:
    def test_records_are_sorted_trace_lines(self):
        registry = MetricsRegistry()
        registry.gauge("b.depth").set(2.0)
        registry.counter("a.events").inc(3.0)
        assert registry.records() == [
            {"type": "metric", "name": "a.events", "kind": "counter", "value": 3.0},
            {"type": "metric", "name": "b.depth", "kind": "gauge", "value": 2.0},
        ]
