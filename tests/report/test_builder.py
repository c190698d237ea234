"""Campaign health report: SVG charts, HTML assembly, report content."""

import json

import numpy as np
import pytest

from repro.analysis.series import Series
from repro.errors import ConfigurationError
from repro.lab.campaign import run_table1_campaign
from repro.lab.datalog import DataLog, MeasurementRecord
from repro.lab.resilience import QuarantineReport
from repro.obs import Tracer
from repro.obs.query import TraceModel
from repro.report import build_campaign_report, svg_line_chart
from repro.report.html import page, rows_table


@pytest.fixture(scope="module")
def traced_campaign():
    tracer = Tracer()
    result = run_table1_campaign(seed=0, n_chips=2, tracer=tracer)
    return result, TraceModel.from_tracer(tracer)


class TestSvgLineChart:
    def _series(self):
        return [Series("AS110AC24", np.array([0.0, 1.0, 2.0]),
                       np.array([0.0, 1.5, 2.0]))]

    def test_emits_one_svg_element(self):
        svg = svg_line_chart(self._series(), title="chip-1")
        assert svg.startswith("<svg ")
        assert svg.endswith("</svg>")
        assert svg.count("<polyline") == 1
        assert "chip-1" in svg

    def test_escapes_labels(self):
        series = [Series("<b>&x", np.array([0.0, 1.0]), np.array([0.0, 1.0]))]
        svg = svg_line_chart(series, title='<script>"')
        assert "<script>" not in svg
        assert "&lt;b&gt;&amp;x" in svg

    def test_is_deterministic(self):
        assert svg_line_chart(self._series()) == svg_line_chart(self._series())

    def test_flat_series_does_not_divide_by_zero(self):
        series = [Series("flat", np.array([0.0, 1.0]), np.array([3.0, 3.0]))]
        assert "<polyline" in svg_line_chart(series)

    def test_rejects_empty_input(self):
        with pytest.raises(ConfigurationError):
            svg_line_chart([])


class TestHtmlHelpers:
    def test_rows_table_escapes_and_aligns_numbers(self):
        html = rows_table("T", ["name", "value"], [["<x>", 1.5], ["y", 3]])
        assert "&lt;x&gt;" in html
        assert '<td class="num">1.500</td>' in html
        assert '<td class="num">3</td>' in html

    def test_page_is_self_contained(self):
        html = page("Title & co", ["<p>body</p>"])
        assert html.startswith("<!DOCTYPE html>")
        assert "Title &amp; co" in html
        assert "<style>" in html
        assert "<link" not in html
        assert "<script" not in html


class TestCampaignHealthReport:
    def test_json_has_all_sections(self, traced_campaign):
        result, model = traced_campaign
        report = build_campaign_report(result, model, seed=0)
        data = json.loads(report.to_json())
        assert sorted(data) == [
            "chips", "guard_violations", "meta", "quarantined",
            "rate_cache", "resilience",
        ]
        assert data["meta"]["n_chips"] == 2
        assert data["meta"]["measurements"] == len(result.log)
        assert data["meta"]["seed"] == 0

    def test_per_chip_rows_cover_every_chip(self, traced_campaign):
        result, model = traced_campaign
        data = build_campaign_report(result, model).data
        assert [c["chip_id"] for c in data["chips"]] == ["chip-1", "chip-2"]
        for chip in data["chips"]:
            assert chip["measurements"] > 0
            assert chip["fresh_frequency_mhz"] > 0.0
            assert not chip["quarantined"]

    def test_resilience_has_confidence_intervals(self, traced_campaign):
        result, model = traced_campaign
        data = build_campaign_report(result, model).data
        stats = data["resilience"]["per_chip_measurements"]
        assert stats["n"] == 2
        low, high = stats["ci95"]
        assert low <= stats["mean"] <= high

    def test_rate_cache_section_totals(self, traced_campaign):
        result, model = traced_campaign
        cache = build_campaign_report(result, model).data["rate_cache"]
        assert cache["lookups"] == (
            cache["hits"] + cache["misses"]
        )
        assert 0.0 <= cache["hit_rate"] <= 1.0

    def test_html_is_single_self_contained_file(self, traced_campaign):
        result, model = traced_campaign
        html = build_campaign_report(result, model).html
        assert html.count("<svg") == 2  # one degradation chart per chip
        for forbidden in ("<link", "<script", "src=", "href="):
            assert forbidden not in html
        assert "Frequency degradation" in html
        assert "Trap-rate cache" in html

    def test_write_emits_html_and_json_siblings(self, traced_campaign, tmp_path):
        result, model = traced_campaign
        report = build_campaign_report(result, model)
        out = report.write(tmp_path / "health.html")
        assert out.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")
        sibling = json.loads((tmp_path / "health.json").read_text())
        assert sibling == report.data

    def test_write_refuses_one_path_for_html_and_json(self, tmp_path):
        report = build_campaign_report(quarantined_result())
        with pytest.raises(ConfigurationError, match="both be written"):
            report.write(tmp_path / "out.json")
        with pytest.raises(ConfigurationError, match="both be written"):
            report.write(tmp_path / "a.html", tmp_path / "sub" / ".." / "a.html")
        assert list(tmp_path.iterdir()) == []

    def test_report_without_trace_model_keeps_schema(self, traced_campaign):
        result, _ = traced_campaign
        data = build_campaign_report(result).data
        assert data["rate_cache"]["lookups"] == 0
        assert data["meta"]["trace_spans"] == 0
        assert len(data["chips"]) == 2


def quarantined_result():
    """A one-record campaign whose only chip was quarantined."""
    from repro.lab.campaign import CampaignResult

    log = DataLog()
    log.append(MeasurementRecord(
        chip_id="chip-1", case="AS110AC24", phase="stress",
        timestamp=60.0, phase_elapsed=60.0, count=900,
        frequency=180e6, delay=2.7e-9, temperature_c=110.0,
        supply_voltage=1.32,
    ))
    return CampaignResult(
        log=log,
        chips={},
        fresh_delays={"chip-1": 2.6e-9},
        quarantined={
            "chip-1": QuarantineReport(
                chip_id="chip-1", case="AS110AC24", sim_time=60.0,
                reason="chip dropout",
            )
        },
    )


class TestQuarantineRendering:
    def test_quarantine_table_and_status(self):
        report = build_campaign_report(quarantined_result())
        assert report.data["meta"]["complete"] is False
        (entry,) = report.data["quarantined"]
        assert entry["chip_id"] == "chip-1"
        assert entry["reason"] == "chip dropout"
        assert "QUARANTINED" not in report.html  # status label, not table
        assert "quarantined" in report.html
        assert "chip dropout" in report.html

    def test_quarantines_fall_back_to_result_when_no_metrics(self):
        report = build_campaign_report(quarantined_result())
        assert report.data["resilience"]["quarantines"] == 1
