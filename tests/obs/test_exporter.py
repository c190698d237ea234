"""JSONL export and the trace loader."""

import json

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.obs import JsonlExporter, Tracer, load_trace
from repro.obs.query import TraceModel


class TestJsonlExporter:
    def test_spans_stream_as_valid_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(exporter=JsonlExporter(path))
        with tracer.span("outer", chip_id="chip-1"):
            with tracer.span("inner"):
                pass
        tracer.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [rec["name"] for rec in lines] == ["inner", "outer"]
        assert lines[1]["attrs"] == {"chip_id": "chip-1"}
        assert lines[0]["parent_id"] == lines[1]["span_id"]

    def test_metrics_written_on_close(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(exporter=JsonlExporter(path))
        tracer.counter("events").inc(3.0)
        tracer.gauge("depth").set(1.5)
        tracer.close()
        records = load_trace(path)
        metrics = {r["name"]: r for r in records if r["type"] == "metric"}
        assert metrics["events"]["value"] == 3.0
        assert metrics["events"]["kind"] == "counter"
        assert metrics["depth"]["kind"] == "gauge"

    def test_close_is_idempotent_and_write_after_close_raises(self, tmp_path):
        exporter = JsonlExporter(tmp_path / "trace.jsonl")
        exporter.close()
        exporter.close()
        with pytest.raises(MeasurementError):
            exporter.span({"type": "span"})

    def test_unwritable_path_raises_measurement_error(self, tmp_path):
        with pytest.raises(MeasurementError, match="cannot open trace file"):
            JsonlExporter(tmp_path / "no-such-dir" / "trace.jsonl")

    def test_numpy_attributes_are_coerced(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(exporter=JsonlExporter(path))
        with tracer.span("work", temperature=np.float64(110.0), n=np.int64(5)):
            pass
        tracer.close()
        record = load_trace(path)[0]
        assert record["attrs"] == {"temperature": 110.0, "n": 5}


class TestLoadTrace:
    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "span", "name": "a"}\n\n')
        assert len(load_trace(path)) == 1

    def test_malformed_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "span"}\nnot json\n')
        with pytest.raises(MeasurementError) as excinfo:
            load_trace(path)
        assert ":2:" in str(excinfo.value)


class TestSpanTree:
    def test_groups_by_parent(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(exporter=JsonlExporter(path))
        with tracer.span("root"):
            with tracer.span("child"):
                pass
            with tracer.span("child"):
                pass
        tracer.close()
        (root,) = TraceModel.from_records(load_trace(path)).roots
        assert root.name == "root"
        assert [child.name for child in root.children] == ["child", "child"]
