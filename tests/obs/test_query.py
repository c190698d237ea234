"""Trace query engine: model building, aggregation, and diffing."""

import json

import pytest

from repro.obs import JsonlExporter, Tracer
from repro.obs.query import TraceModel, diff_traces


def _span(span_id, name, parent_id=None, depth=0, start=0.0, duration=1.0, **attrs):
    return {
        "type": "span",
        "span_id": span_id,
        "name": name,
        "parent_id": parent_id,
        "depth": depth,
        "start_s": start,
        "duration_s": duration,
        "attrs": attrs,
    }


def _metric(name, value, kind="counter", **extra):
    return {"type": "metric", "name": name, "kind": kind, "value": value, **extra}


def small_trace_records():
    """campaign -> case -> (stress phase, 2 measurements)."""
    return [
        _span(1, "campaign", duration=10.0),
        _span(2, "case", parent_id=1, depth=1, duration=8.0,
              chip_id="chip-1", case="AS110AC24", sim_advanced=7200.0),
        _span(3, "phase", parent_id=2, depth=2, duration=6.0,
              kind="stress", phase="AS110AC24"),
        _span(4, "measurement", parent_id=3, depth=3, duration=1.0,
              chip_id="chip-1"),
        _span(5, "measurement", parent_id=3, depth=3, duration=1.0,
              chip_id="chip-1"),
        _metric("lab.samples", 2.0),
        _metric("campaign.sim_seconds_per_wall_second", 720.0, kind="gauge"),
    ]


class TestTraceModelStructure:
    def test_tree_links_and_roots(self):
        model = TraceModel.from_records(small_trace_records())
        assert len(model) == 5
        assert [root.name for root in model.roots] == ["campaign"]
        campaign = model.roots[0]
        assert [c.name for c in campaign.children] == ["case"]
        phase = campaign.children[0].children[0]
        assert len(phase.children) == 2

    def test_self_time_excludes_children(self):
        model = TraceModel.from_records(small_trace_records())
        campaign = model.roots[0]
        assert campaign.self_time == pytest.approx(2.0)  # 10 - 8
        phase = campaign.children[0].children[0]
        assert phase.self_time == pytest.approx(4.0)  # 6 - 2x1

    def test_self_time_clamped_nonnegative(self):
        records = [
            _span(1, "parent", duration=1.0),
            _span(2, "child", parent_id=1, depth=1, duration=2.0),
        ]
        model = TraceModel.from_records(records)
        assert model.roots[0].self_time == 0.0

    def test_phase_frame_refined_by_kind(self):
        model = TraceModel.from_records(small_trace_records())
        phase = model.spans_named("phase")[0]
        assert phase.frame == "phase:stress"
        assert model.path(phase) == "campaign;case;phase:stress"

    def test_load_round_trips_exporter_output(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(exporter=JsonlExporter(path))
        with tracer.span("campaign"):
            with tracer.span("case", chip_id="chip-1"):
                tracer.counter("lab.samples").inc()
        tracer.close()
        model = TraceModel.load(path)
        assert [s.name for s in model.roots] == ["campaign"]
        assert model.metric_value("lab.samples") == 1.0

    def test_from_tracer_matches_loaded_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(exporter=JsonlExporter(path))
        with tracer.span("campaign"):
            tracer.counter("lab.samples").inc(5.0)
            tracer.gauge("campaign.sim_seconds_per_wall_second").set(2.5)
        live = TraceModel.from_tracer(tracer)
        tracer.close()
        loaded = TraceModel.load(path)
        # one record builder serves the live model and the exported file
        assert live.metrics == loaded.metrics
        assert live.metrics["lab.samples"] == {
            "type": "metric", "name": "lab.samples", "kind": "counter", "value": 5.0
        }


class TestAggregation:
    def test_top_by_self_time(self):
        model = TraceModel.from_records(small_trace_records())
        rendered = model.top(n=2).render()
        lines = rendered.splitlines()
        # phase:stress has the largest self time (4.0 of 10.0 total)
        assert lines[3].startswith("phase:stress")
        assert "40.0" in lines[3]

    def test_rollup_by_chip(self):
        model = TraceModel.from_records(small_trace_records())
        assert model.rollup("sim_advanced", by="chip") == {"chip-1": 7200.0}

    def test_metric_family_table_pins_absent_families(self):
        model = TraceModel.from_records(small_trace_records())
        rendered = model.metric_family_table(("lab", "guard.violations")).render()
        assert "lab.samples" in rendered
        assert "guard.violations.*" in rendered

    def test_metric_family_rows_sorted(self):
        records = [
            _metric("guard.violations.b", 1.0),
            _metric("guard.violations.a", 2.0),
        ]
        model = TraceModel.from_records(records)
        names = list(model.metrics_matching("guard.violations"))
        assert names == ["guard.violations.a", "guard.violations.b"]

    def test_tree_render_depth_and_duration_filters(self):
        model = TraceModel.from_records(small_trace_records())
        full = model.tree_render()
        assert full.count("measurement") == 2
        shallow = model.tree_render(max_depth=1)
        assert "measurement" not in shallow
        assert "campaign" in shallow


class TestDiff:
    def test_identical_traces_have_zero_significant(self):
        a = TraceModel.from_records(small_trace_records())
        b = TraceModel.from_records(small_trace_records())
        diff = diff_traces(a, b)
        assert diff.significant() == []
        assert len(diff.rows) > 0

    def test_counter_change_is_exact_and_significant(self):
        a = TraceModel.from_records([_metric("lab.samples", 2.0)])
        b = TraceModel.from_records([_metric("lab.samples", 3.0)])
        significant = diff_traces(a, b).significant()
        assert [row.key for row in significant] == ["metric:lab.samples"]
        assert significant[0].category == "exact"

    def test_timing_needs_both_thresholds(self):
        # +0.3 s self time on a 0.2 s baseline: large relative change but
        # under the absolute floor -> not significant
        a = TraceModel.from_records([_span(1, "campaign", duration=0.2)])
        b = TraceModel.from_records([_span(1, "campaign", duration=0.5)])
        assert diff_traces(a, b).significant() == []
        # +6 s on 2 s clears both thresholds
        a = TraceModel.from_records([_span(1, "campaign", duration=2.0)])
        b = TraceModel.from_records([_span(1, "campaign", duration=8.0)])
        keys = [row.key for row in diff_traces(a, b).significant()]
        assert "span:campaign self_s" in keys

    def test_gauges_are_informational(self):
        a = TraceModel.from_records([_metric("x.rate", 100.0, kind="gauge")])
        b = TraceModel.from_records([_metric("x.rate", 900.0, kind="gauge")])
        diff = diff_traces(a, b)
        assert diff.significant() == []
        assert any(row.category == "rate" for row in diff.rows)

    def test_span_count_change_is_significant(self):
        a = TraceModel.from_records(
            [_span(1, "campaign"), _span(2, "measurement", parent_id=1, depth=1)]
        )
        b = TraceModel.from_records([_span(1, "campaign")])
        keys = [row.key for row in diff_traces(a, b).significant()]
        assert "span:measurement count" in keys

    def test_diff_table_renders(self):
        a = TraceModel.from_records(small_trace_records())
        b = TraceModel.from_records(small_trace_records())
        rendered = diff_traces(a, b).table().render()
        assert "0 significant" in rendered


class TestSeededRunsDiffClean:
    """Acceptance: two same-seed campaigns diff with zero significant deltas."""

    def test_same_seed_campaigns(self, tmp_path):
        from repro.lab.campaign import run_table1_campaign

        models = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.jsonl"
            tracer = Tracer(exporter=JsonlExporter(path))
            run_table1_campaign(seed=7, n_chips=1, tracer=tracer)
            tracer.close()
            models.append(TraceModel.load(path))
        diff = diff_traces(*models)
        assert diff.significant() == []

    def test_trace_file_is_valid_jsonl(self, tmp_path):
        from repro.lab.campaign import run_table1_campaign

        path = tmp_path / "t.jsonl"
        tracer = Tracer(exporter=JsonlExporter(path))
        run_table1_campaign(seed=0, n_chips=1, tracer=tracer)
        tracer.close()
        kinds = set()
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                kinds.add(json.loads(line)["type"])
        assert kinds == {"span", "metric"}
