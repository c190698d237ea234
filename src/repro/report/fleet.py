"""Fleet campaign report: wafer-lot distribution and outlier statistics.

The per-chip health report (:mod:`repro.report.builder`) draws one
degradation curve per chip — readable at 5 chips, useless at 10,000.
This module is its population-scale counterpart: it folds the
:class:`~repro.lab.fleet.FleetChipSummary` digests into distribution
statistics (per schedule position and lot-wide), flags outlier chips,
and renders histograms instead of trajectories.  Same contract as the
health report: everything lands in a JSON dict first and the HTML is a
rendering of that dict, so the two artefacts can never disagree.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.series import Series
from repro.lab.fleet import CampaignResult
from repro.obs.query import TraceModel
from repro.report import html as H
from repro.report.builder import CampaignHealthReport, summary_with_ci
from repro.report.svg import svg_line_chart

#: Chips further than this many robust sigma equivalents from their
#: schedule group's median are reported as outliers.
OUTLIER_SIGMA = 3.0

#: At most this many outlier rows land in the report tables.
MAX_OUTLIER_ROWS = 20

#: Percentiles reported for every distribution.
PERCENTILES = (1.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0)

_METRICS = (
    ("stress_degradation_pct", "worst stress-end degradation %"),
    ("residual_degradation_pct", "post-recovery residual degradation %"),
)

_THROUGHPUT = "campaign.fleet_measurements_per_second"


def _by_chip_no(result: CampaignResult, metric: str) -> dict[int, list[float]]:
    """``metric`` of every chip, grouped by schedule position (chip_no)."""
    by_no: dict[int, list[float]] = {}
    for chip in result.summaries:
        by_no.setdefault(chip.chip_no, []).append(getattr(chip, metric))
    return by_no


#: Scale factor turning a median absolute deviation into a sigma
#: equivalent for normal data.
_MAD_TO_SIGMA = 1.4826


def _outliers(result: CampaignResult, metric: str) -> list[dict]:
    """Chips beyond ``OUTLIER_SIGMA`` robust deviations on ``metric``.

    Two deliberate choices: the fence is computed per schedule position
    (chip_no), not lot-wide — the five Table 1 sequences produce five
    different typical degradations, and a lot-wide fence would flag
    every chip on the harshest sequence instead of genuinely unusual
    silicon — and the spread is the median absolute deviation scaled to
    a sigma equivalent, so an extreme chip cannot widen its own fence.
    """
    fences = {}
    for chip_no, values in _by_chip_no(result, metric).items():
        arr = np.asarray(values, dtype=float)
        center = float(np.median(arr))
        spread = _MAD_TO_SIGMA * float(np.median(np.abs(arr - center)))
        fences[chip_no] = (center, spread)
    rows = []
    for chip in result.summaries:
        center, spread = fences[chip.chip_no]
        if spread <= 0.0:
            continue
        value = getattr(chip, metric)
        z = (value - center) / spread
        if abs(z) >= OUTLIER_SIGMA:
            rows.append(
                {
                    "chip_id": chip.chip_id,
                    "chip_no": chip.chip_no,
                    "value": value,
                    "group_median": center,
                    "z_score": z,
                }
            )
    rows.sort(key=lambda row: -abs(row["z_score"]))
    return rows[:MAX_OUTLIER_ROWS]


def _histogram_series(result: CampaignResult, metric: str) -> list[Series]:
    """Per-schedule-position histograms of ``metric`` as plottable series."""
    by_no = _by_chip_no(result, metric)
    lo = min(min(v) for v in by_no.values())
    hi = max(max(v) for v in by_no.values())
    if hi <= lo:
        hi = lo + 1e-9
    bins = max(10, min(60, len(result.summaries) // 20))
    edges = np.linspace(lo, hi, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    series = []
    for chip_no in sorted(by_no):
        counts, _ = np.histogram(np.asarray(by_no[chip_no], dtype=float), bins=edges)
        series.append(Series(f"chip no. {chip_no}", centers, counts.astype(float)))
    return series


def build_fleet_report(
    result: CampaignResult,
    model: TraceModel | None = None,
    title: str = "Fleet campaign report",
    seed: int | None = None,
) -> CampaignHealthReport:
    """Assemble the distribution report from a fleet campaign result."""
    model = model if model is not None else TraceModel([], {})

    meta = {
        "title": title,
        "seed": seed,
        "n_chips": len(result.summaries),
        "fidelity": result.fidelity,
        "shards": result.shards,
        "complete": result.complete,
        "measurements": result.total_measurements,
        "collected_records": len(result.log),
        "measurements_per_second": model.metric_value(_THROUGHPUT),
    }

    distributions = {}
    for metric, _label in _METRICS:
        values = [getattr(chip, metric) for chip in result.summaries]
        by_no = _by_chip_no(result, metric)
        distributions[metric] = {
            "lot": summary_with_ci(values, PERCENTILES),
            "by_chip_no": {
                str(chip_no): summary_with_ci(by_no[chip_no], PERCENTILES)
                for chip_no in sorted(by_no)
            },
        }

    outliers = {metric: _outliers(result, metric) for metric, _ in _METRICS}

    data = {
        "meta": meta,
        "distributions": distributions,
        "outliers": outliers,
    }
    return CampaignHealthReport(data, H.page(title, _sections(data, result)))


def _group_entry(group: str, entry: dict) -> dict:
    """A distribution entry flattened into one table row (pN at top level)."""
    return {"group": group, **entry, **entry.get("percentiles", {})}


def _sections(data: dict, result: CampaignResult) -> list[str]:
    """The fleet report's sections, in page order."""
    meta = data["meta"]
    throughput = meta["measurements_per_second"]
    sections = [
        H.heading("Fleet"),
        H.rows_table("Fleet summary", ["quantity", "value"], [
            ["chips", meta["n_chips"]],
            ["fidelity", meta["fidelity"]],
            ["shards", meta["shards"]],
            ["measurements", meta["measurements"]],
            ["records kept", meta["collected_records"]],
            ["measurements per wall second",
             f"{throughput:,.0f}" if throughput else "-"],
            ["seed", meta["seed"] if meta["seed"] is not None else "-"],
        ]),
    ]
    for metric, label in _METRICS:
        dist = data["distributions"][metric]
        groups = [_group_entry("lot", dist["lot"])] + [
            _group_entry(f"chip no. {chip_no}", entry)
            for chip_no, entry in dist["by_chip_no"].items()
        ]
        sections += [
            H.heading(f"Distribution: {label}"),
            H.table(f"{label} — population statistics", [
                ("group", "group"),
                ("n", "n"),
                ("mean", "mean"),
                ("std", "std"),
                ("p1", "p1"),
                ("median", "p50"),
                ("p99", "p99"),
                ("max", "max"),
            ], groups),
        ]
        if len(result.summaries) >= 2:
            chart = svg_line_chart(
                _histogram_series(result, metric),
                title=f"{label} histogram",
                x_label="degradation %",
                y_label="chips per bin",
            )
            sections.append(H.figure(
                chart,
                f"{label}: one curve per Table 1 schedule position "
                f"({meta['n_chips']:,} chips total)",
            ))
        outliers = data["outliers"][metric]
        sections += [
            H.heading(H.Markup(f"Outliers (&gt; {OUTLIER_SIGMA:g}&sigma;)"), 3),
            H.table(f"{label} — outlier chips", [
                ("chip", "chip_id"),
                ("chip no.", "chip_no"),
                ("value %", "value"),
                ("group median %", "group_median"),
                ("z-score", "z_score"),
            ], outliers) if outliers
            else H.note("No chip beyond the sigma fence within its schedule group."),
        ]
    return sections
