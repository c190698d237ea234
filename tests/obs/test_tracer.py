"""Span nesting, the tracer registry, and the null tracer."""

import pytest

from repro.errors import ReproError
from repro.obs import (
    NULL_TRACER,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)
from repro.obs.query import TraceModel


class TestSpans:
    def test_span_records_duration_and_attributes(self):
        tracer = Tracer()
        with tracer.span("work", chip_id="chip-1") as span:
            span.set("vdd", 1.2)
        assert span.duration >= 0.0
        assert span.attributes == {"chip_id": "chip-1", "vdd": 1.2}
        assert tracer.spans("work") == [span]

    def test_nesting_assigns_parent_and_depth(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            with tracer.span("inner") as second:
                pass
        assert outer.parent_id is None
        assert outer.depth == 0
        assert inner.parent_id == outer.span_id
        assert inner.depth == 1
        assert second.parent_id == outer.span_id
        assert [s for s in tracer.finished if s.parent_id == outer.span_id] == [
            inner, second
        ]
        assert tracer.current is None

    def test_finished_in_completion_order(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.finished] == ["inner", "outer"]

    def test_span_ids_unique_and_increasing(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert b.span_id > a.span_id

    def test_exception_recorded_and_propagated(self):
        tracer = Tracer()
        with pytest.raises(ReproError):
            with tracer.span("doomed") as span:
                raise ReproError("boom")
        assert span.attributes["error"] == "ReproError"
        assert tracer.spans("doomed") == [span]

    def test_sim_advanced_defaults_to_zero(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            pass
        assert span.sim_advanced == 0.0
        span.set("sim_advanced", 3.5)
        assert span.sim_advanced == 3.5

    def test_keep_spans_false_drops_history(self):
        tracer = Tracer(keep_spans=False)
        with tracer.span("work"):
            pass
        assert tracer.spans() == []


class TestSummaryTable:
    def test_aggregates_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("phase") as span:
                span.set("sim_advanced", 10.0)
        table = TraceModel.from_tracer(tracer).top(n=None, by="total", title="timing")
        rendered = table.render()
        assert rendered.startswith("timing\n")
        assert "phase" in rendered
        assert "3" in rendered  # count column
        assert "30.000" in rendered  # total sim seconds


class TestNullTracer:
    def test_disabled_and_shared_span(self):
        assert NULL_TRACER.enabled is False
        span_a = NULL_TRACER.span("a", key="value")
        span_b = NULL_TRACER.span("b")
        assert span_a is span_b  # one shared no-op object
        with span_a as span:
            span.set("ignored", 1)
        assert span.attributes == {}
        assert NULL_TRACER.spans() == []

    def test_null_metrics_never_register(self):
        NULL_TRACER.counter("x").inc()
        NULL_TRACER.gauge("y").set(1.0)
        assert len(NULL_TRACER.metrics) == 0

    def test_empty_tables_render(self):
        assert "count" in TraceModel.from_tracer(NULL_TRACER).top().render()
        assert "metric" in NULL_TRACER.metrics.table().render()

    def test_close_is_noop(self):
        NULL_TRACER.close()


class TestActiveTracer:
    def test_default_is_null(self):
        assert get_tracer() is NULL_TRACER

    def test_set_and_reset(self):
        tracer = Tracer()
        set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            set_tracer(None)
        assert get_tracer() is NULL_TRACER

    def test_use_tracer_restores_previous(self):
        tracer = Tracer()
        with use_tracer(tracer) as active:
            assert active is tracer
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_use_tracer_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_tracer(Tracer()):
                raise RuntimeError("boom")
        assert get_tracer() is NULL_TRACER


class TestAbsorb:
    """Folding a finished child tracer into a parent, as one span tree."""

    def test_absorb_renumbers_and_reparents_spans(self):
        parent, child = Tracer(), Tracer()
        with child.span("case"):
            with child.span("phase"):
                pass
        with parent.span("campaign") as root:
            with parent.span("setup"):
                pass
            parent.absorb(child)
        ids = [span.span_id for span in parent.finished]
        assert len(ids) == len(set(ids))
        case = parent.spans("case")[0]
        phase = parent.spans("phase")[0]
        assert case.parent_id == root.span_id
        assert phase.parent_id == case.span_id
        assert phase.depth == case.depth + 1 == root.depth + 2
        assert child.finished == []

    def test_absorb_merges_counters_and_gauges(self):
        parent, child = Tracer(), Tracer()
        parent.counter("bti.rate_cache.hits").inc(1.0)
        parent.gauge("campaign.sim_seconds_per_wall_second").set(10.0)
        child.counter("bti.rate_cache.hits").inc(3.0)
        child.counter("bti.rate_cache.misses").inc(1.0)
        child.gauge("campaign.sim_seconds_per_wall_second").set(30.0)
        parent.absorb(child)
        assert parent.metrics.snapshot() == {
            "bti.rate_cache.hits": 4.0,
            "bti.rate_cache.misses": 1.0,
            "campaign.sim_seconds_per_wall_second": 30.0,
        }
