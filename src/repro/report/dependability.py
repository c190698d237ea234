"""Dependability sweep report: one self-contained HTML + JSON per sweep.

Renders a :class:`~repro.dependability.analyzer.SweepAnalysis` into the
same two-artefact shape as the campaign health report — a JSON dict
first, then the HTML as that dict's sections on the shared renderer in
:mod:`repro.report.html` — so the report ships as a single file with no
assets.

Sections
--------
* sweep summary — grid shape, completed/degraded cells, failure-rate
  Wilson interval;
* per-cell grid table (configuration joined with outcome statistics);
* degraded-cells table with each cell's recorded error and attempts;
* confidence intervals — Wilson on cell-failure and quarantine rates,
  bootstrap on the mean projected lifetime;
* sensitivity tables, one per swept axis;
* lifetime-vs-throughput Pareto scatter over (alpha, Vdda, Ta) with the
  frontier polyline, plus the frontier table.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.dependability.analyzer import SweepAnalysis
from repro.dependability.pareto import pareto_frontier
from repro.report import html as H
from repro.report.builder import CampaignHealthReport
from repro.report.svg import svg_scatter_chart


def _knob_label(point: dict) -> str:
    return (
        f"a={point['alpha']:g}, {point['sleep_voltage']:g} V, "
        f"{point['sleep_temperature_c']:g} C"
    )


def _cell_entry(row) -> dict:
    """JSON entry for one grid cell."""
    cell, outcome = row.cell, row.outcome
    entry = {
        "cell_id": cell.cell_id,
        "status": outcome.status,
        "attempts": outcome.attempts,
        "fault_rate": cell.fault_rate,
        "dropout_prob": cell.dropout_prob,
        "upset_prob": cell.upset_prob,
        "guard_mode": cell.guard_mode,
        "alpha": cell.alpha,
        "sleep_voltage": cell.sleep_voltage,
        "sleep_temperature_c": cell.sleep_temperature_c,
        "seed": cell.seed,
        "digest": outcome.digest,
    }
    if outcome.ok:
        stats = outcome.stats
        entry.update(
            {
                "measurements": stats.get("measurements", 0),
                "quarantined": stats.get("quarantined_count", 0),
                "sample_retries": stats.get("sample_retries", 0.0),
                "guard_violations": stats.get("guard_violations_total", 0.0),
                "faults_planned": stats.get("faults_planned", 0),
                "lifetime_active_hours": stats.get("lifetime_active_hours"),
                "throughput_active_fraction": stats.get("throughput_active_fraction"),
            }
        )
    else:
        entry["error"] = outcome.error
    return entry


def build_dependability_report(
    analysis: SweepAnalysis,
    title: str = "Dependability sweep report",
) -> CampaignHealthReport:
    """Assemble the sweep report (same container as the campaign report)."""
    spec = analysis.spec
    ok_rows, degraded = analysis.ok_rows, analysis.degraded_rows

    data = {
        "meta": {
            "title": title,
            "sweep": spec.name,
            "engine": spec.engine,
            "n_cells": analysis.n_cells,
            "ok_cells": len(ok_rows),
            "degraded_cells": len(degraded),
            "n_chips_per_cell": spec.n_chips,
            "spec_digest": spec.digest(),
        },
        "confidence": {
            "cell_failure_rate_wilson95": list(analysis.cell_failure_ci),
            "quarantine_rate_wilson95": list(analysis.quarantine_ci),
            "lifetime_hours_bootstrap95": (
                list(analysis.lifetime_ci) if analysis.lifetime_ci else None
            ),
        },
        "cells": [_cell_entry(row) for row in analysis.rows],
        "degraded": [
            {
                "cell_id": row.cell.cell_id,
                "status": row.outcome.status,
                "attempts": row.outcome.attempts,
                "seed": row.cell.seed,
                "error": row.outcome.error,
            }
            for row in degraded
        ],
        "sensitivity": {
            axis: {str(value): metrics for value, metrics in marginals.items()}
            for axis, marginals in analysis.sensitivity.items()
        },
        "pareto": [asdict(point) for point in pareto_frontier(analysis)],
    }
    return CampaignHealthReport(data, H.page(title, _sections(data)))


def _dash(key: str, fmt: str = "{:.3g}"):
    """Column key: ``key`` formatted with ``fmt``, ``-`` when missing or None."""

    def cell(entry: dict) -> str:
        value = entry.get(key)
        return fmt.format(value) if value is not None else "-"

    return cell


def _interval(ci, fmt: str = "{:.3f}") -> str:
    low, high = ci
    return f"[{fmt.format(low)}, {fmt.format(high)}]"


def _sections(data: dict) -> list[str]:
    """The sweep report's sections, in page order."""
    meta, confidence, points = data["meta"], data["confidence"], data["pareto"]
    failure_ci = _interval(confidence["cell_failure_rate_wilson95"])
    lifetime_ci = confidence["lifetime_hours_bootstrap95"]
    frontier = [p for p in points if p["on_frontier"]]
    sections = [
        H.heading("Sweep"),
        H.rows_table("Sweep summary", ["quantity", "value"], [
            ["sweep", meta["sweep"]],
            ["engine", meta["engine"]],
            ["status", H.status(f"{meta['degraded_cells']} cell(s) degraded", False)
             if meta["degraded_cells"] else H.status("all cells completed", True)],
            ["grid cells", meta["n_cells"]],
            ["completed", meta["ok_cells"]],
            ["degraded", meta["degraded_cells"]],
            ["chips per cell", meta["n_chips_per_cell"]],
            ["cell failure rate (Wilson 95%)", failure_ci],
            ["spec digest", meta["spec_digest"]],
        ]),
        H.heading("Cell grid"),
        H.table("Per-cell configuration and outcome", [
            ("cell", "cell_id"),
            ("status", "status"),
            ("fault/day", "fault_rate"),
            ("dropout", "dropout_prob"),
            ("upset", "upset_prob"),
            ("guard", "guard_mode"),
            ("alpha", "alpha"),
            ("Vdda", "sleep_voltage"),
            ("Ta C", "sleep_temperature_c"),
            ("quar", "quarantined"),
            ("retries", "sample_retries"),
            ("violations", "guard_violations"),
            ("life h", _dash("lifetime_active_hours")),
            ("throughput", _dash("throughput_active_fraction")),
        ], data["cells"], fmt="{:,.3g}"),
        H.heading("Degraded cells"),
        H.table("Cells that failed or timed out (sweep completed on survivors)", [
            ("cell", "cell_id"),
            ("status", "status"),
            ("attempts", "attempts"),
            ("seed", "seed"),
            ("error", "error"),
        ], data["degraded"]) if data["degraded"] else H.note("Every cell completed."),
        H.heading("Confidence intervals"),
        H.rows_table("Dependability intervals (95%)", ["quantity", "interval"], [
            ["cell failure rate (Wilson)", failure_ci],
            ["chip quarantine rate (Wilson)",
             _interval(confidence["quarantine_rate_wilson95"])],
            ["mean projected lifetime h (bootstrap)",
             _interval(lifetime_ci, "{:.2f}") if lifetime_ci
             else "n/a (fewer than 2 finite lifetimes)"],
        ]),
        H.heading("Sensitivity"),
    ]
    for axis, marginals in data["sensitivity"].items():
        sections.append(H.table(f"Marginal means by {axis}", [
            (axis, "value"),
            ("cells", "cells"),
            ("ok", "ok_cells"),
            ("quarantine rate", _dash("quarantine_rate")),
            ("lifetime h", _dash("lifetime_hours")),
            ("degradation s", _dash("degradation", "{:.3e}")),
            ("guard violations", _dash("guard_violations")),
        ], [{"value": value, **metrics} for value, metrics in marginals.items()]))
    if not data["sensitivity"]:
        sections.append(H.note("No axis was swept over more than one value."))
    sections.append(H.heading("Recovery-knob Pareto frontier"))
    if not points:
        return sections + [H.note(
            "No lifetime projections available "
            "(projection disabled or every cell degraded)."
        )]
    chart = svg_scatter_chart(
        [(p["throughput"], p["lifetime_hours"], _knob_label(p)) for p in points],
        frontier=[(p["throughput"], p["lifetime_hours"]) for p in frontier],
        title="Projected lifetime vs throughput",
        x_label="throughput (active fraction, alpha/(1+alpha))",
        y_label="projected active lifetime (hours)",
    )
    return sections + [
        H.figure(chart, f"{len(frontier)} of {len(points)} knob settings on the "
                 "frontier; censored lifetimes enter at the horizon."),
        H.table("Knob settings (frontier members marked)", [
            ("alpha", "alpha"),
            ("Vdda", "sleep_voltage"),
            ("Ta C", "sleep_temperature_c"),
            ("throughput", "throughput"),
            ("lifetime h", "lifetime_hours"),
            ("cells", "cells"),
            ("censored", "censored"),
            ("frontier", "on_frontier"),
        ], points),
    ]
