"""Dependability report: scatter chart, sections, JSON sibling."""

import json
from dataclasses import replace
from xml.sax.saxutils import escape

import pytest

from repro.dependability import (
    LifetimeSettings,
    SweepSpec,
    analyze_sweep,
)
from repro.dependability.runner import CellOutcome, SweepResult
from repro.errors import ConfigurationError
from repro.report import build_dependability_report, svg_scatter_chart


def fabricated_analysis(failed_ids=("cell-0001",)):
    spec = SweepSpec(
        name="report-fab",
        n_chips=4,
        alphas=(1.0, 2.0, 4.0),
        seeds=(0,),
        lifetime=LifetimeSettings(horizon_hours=24.0),
    )
    cells = spec.expand()
    lifetimes = {1.0: 12.0, 2.0: 8.0, 4.0: 5.0}
    outcomes = []
    for cell in cells:
        if cell.cell_id in failed_ids:
            outcomes.append(
                CellOutcome(
                    cell_id=cell.cell_id,
                    status="timeout",
                    attempts=2,
                    error="cell exceeded the 1 s wall-clock budget",
                )
            )
            continue
        outcomes.append(
            CellOutcome(
                cell_id=cell.cell_id,
                status="ok",
                attempts=1,
                stats={
                    "quarantined_count": 1,
                    "sample_retries": 2.0,
                    "guard_violations_total": 3.0,
                    "degradation": {"chip-1": 2e-12},
                    "lifetime_active_hours": lifetimes[cell.alpha],
                    "throughput_active_fraction": cell.alpha / (1 + cell.alpha),
                    "lifetime_horizon_hours": 24.0,
                },
            )
        )
    return analyze_sweep(
        SweepResult(spec=spec, directory="", cells=cells, outcomes=tuple(outcomes))
    )


class TestScatterChart:
    def test_empty_points_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one point"):
            svg_scatter_chart([])

    def test_points_and_frontier_rendered(self):
        svg = svg_scatter_chart(
            [(0.5, 12.0, "a=1"), (0.8, 5.0, "a=4"), (0.66, 4.0, "a=2")],
            frontier=[(0.5, 12.0), (0.8, 5.0)],
            title="pareto",
            x_label="throughput",
            y_label="lifetime",
        )
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert svg.count("<circle") == 3
        assert 'stroke-dasharray="5,3"' in svg  # frontier polyline
        assert "a=2" in svg and "pareto" in svg

    def test_deterministic(self):
        points = [(0.5, 1.0, "p"), (0.7, 2.0, "q")]
        assert svg_scatter_chart(points) == svg_scatter_chart(points)

    def test_single_point_padding(self):
        # degenerate ranges must not divide by zero
        svg = svg_scatter_chart([(0.5, 1.0, "only")])
        assert "<circle" in svg


class TestDependabilityReport:
    def test_sections_and_data(self):
        report = build_dependability_report(fabricated_analysis())
        html = report.html
        for heading in (
            "Sweep",
            "Cell grid",
            "Degraded cells",
            "Confidence intervals",
            "Sensitivity",
            "Pareto frontier",
        ):
            assert heading in html
        assert "wall-clock budget" in html  # degraded cell error shown
        assert "<svg" in html
        meta = report.data["meta"]
        assert meta["ok_cells"] == 2 and meta["degraded_cells"] == 1
        ci = report.data["confidence"]
        assert len(ci["cell_failure_rate_wilson95"]) == 2
        assert ci["lifetime_hours_bootstrap95"] is not None
        assert any(p["on_frontier"] for p in report.data["pareto"])

    def test_all_ok_sweep_renders_clean_status(self):
        report = build_dependability_report(fabricated_analysis(failed_ids=()))
        assert "all cells completed" in report.html
        assert report.data["degraded"] == []

    def test_user_text_equal_to_status_markup_stays_escaped(self):
        # Only the styled status cell may be live markup; a spec name (user
        # JSON) spelling that markup renders as text.
        markup = '<span class="ok">all cells completed</span>'
        analysis = fabricated_analysis(failed_ids=())
        analysis = replace(analysis, spec=replace(analysis.spec, name=markup))
        report = build_dependability_report(analysis)
        assert report.html.count(markup) == 1  # the status cell alone
        assert escape(markup) in report.html  # the sweep name, as text

    def test_write_emits_json_sibling(self, tmp_path):
        report = build_dependability_report(fabricated_analysis())
        path = report.write(tmp_path / "sweep.html")
        sibling = path.with_suffix(".json")
        assert sibling.exists()
        payload = json.loads(sibling.read_text())
        assert payload["meta"]["sweep"] == "report-fab"
        assert len(payload["cells"]) == 3

    def test_report_json_round_trips(self):
        report = build_dependability_report(fabricated_analysis())
        assert json.loads(report.to_json())["pareto"]
