"""Campaign health report: one self-contained HTML + JSON per campaign.

The report is the post-run counterpart of the live progress lines — it
answers "how healthy was this campaign?" from the three artefacts a run
produces: the :class:`~repro.lab.campaign.CampaignResult` (measurement
log, fresh delays, quarantines), the trace metrics (guard violations,
fault/retry/cache counters, throughput histograms) and the span tree.

Sections
--------
* campaign meta — chips, cases, measurements, sim/wall throughput;
* per-chip summary with fresh frequency and final degradation;
* per-chip frequency-degradation curves as inline SVG (paper Fig. 4/5
  view, one polyline per stress/recovery case);
* guard-violation rollup by contract;
* fault / retry / quarantine statistics with bootstrap confidence
  intervals from :mod:`repro.analysis.stats`;
* quarantine table (which chip, during which case, why);
* trap-rate cache effectiveness.

Everything lands in a JSON dict first; the HTML is that dict plus the
charts, declared as sections for :func:`repro.report.html.page`, so the
two artefacts can never disagree.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.analysis.series import Series
from repro.analysis.stats import bootstrap_ci, summary
from repro.errors import ConfigurationError, ScheduleError
from repro.units import SECONDS_PER_HOUR
from repro.lab.campaign import CampaignResult
from repro.obs.query import TraceModel
from repro.report import html as H
from repro.report.svg import svg_line_chart

#: Metric families the resilience section reads (run totals).
_FAULTS = "lab.faults.injected"
_RETRIES = "lab.sample_retries"
_QUARANTINES = "campaign.quarantines"
_CACHE_PREFIX = "bti.rate_cache."
_GUARD_PREFIX = "guard.violations."
_SIM_PER_WALL = "campaign.sim_seconds_per_wall_second"


def _chip_no(chip_id: str) -> int:
    """'chip-3' -> 3 (sorts chip-10 after chip-9)."""
    try:
        return int(chip_id.rsplit("-", 1)[-1])
    except ValueError:
        return 0


def summary_with_ci(values: list[float], percentiles: tuple[float, ...] = ()) -> dict:
    """Summary statistics plus a 95% bootstrap CI, as a JSON entry.

    Tiny samples degrade gracefully: ``{"n": 0}`` when empty, no CI
    below two values.  ``percentiles`` adds a ``pN`` table; its p50 is
    the median, so the bare ``median`` key is then left out.
    """
    if not values:
        return {"n": 0}
    stats = summary(values)
    entry = {
        "n": stats.n,
        "mean": stats.mean,
        "std": stats.std,
        "min": stats.minimum,
        "max": stats.maximum,
    }
    if percentiles:
        arr = np.asarray(values, dtype=float)
        entry["percentiles"] = {
            f"p{pct:g}": float(np.percentile(arr, pct)) for pct in percentiles
        }
    else:
        entry["median"] = stats.median
    if stats.n >= 2:
        low, high = bootstrap_ci(values)
        entry["ci95"] = [low, high]
    return entry


class CampaignHealthReport:
    """A built report: structured data plus its HTML rendering."""

    def __init__(self, data: dict, html_text: str) -> None:
        self.data = data
        self.html = html_text

    def to_json(self) -> str:
        """The report data as pretty-printed JSON."""
        return json.dumps(self.data, indent=2, sort_keys=True)

    def write(self, html_path: str | Path, json_path: str | Path | None = None) -> Path:
        """Write the HTML (and JSON beside it unless given its own path).

        Raises :class:`~repro.errors.ConfigurationError` when both would
        land in one file, e.g. an HTML path that ends in ``.json``.
        """
        html_path = Path(html_path)
        json_path = (
            html_path.with_suffix(".json") if json_path is None else Path(json_path)
        )
        if html_path.resolve() == json_path.resolve():
            raise ConfigurationError(
                f"report HTML and JSON would both be written to {html_path}; "
                "give the HTML a different suffix"
            )
        html_path.parent.mkdir(parents=True, exist_ok=True)
        html_path.write_text(self.html, encoding="utf-8")
        json_path.write_text(self.to_json() + "\n", encoding="utf-8")
        return html_path


def _chip_rows(result: CampaignResult) -> list[dict]:
    """Per-chip summary entries, chip order."""
    rows = []
    for chip_id in sorted(result.fresh_delays, key=_chip_no):
        records = result.log.filter(chip_id=chip_id)
        fresh_delay = result.fresh_delays[chip_id]
        fresh_frequency = 1.0 / (2.0 * fresh_delay)
        final_pct = 0.0
        if len(records) > 0:
            final_pct = 100.0 * (1.0 - records.last().frequency / fresh_frequency)
        rows.append(
            {
                "chip_id": chip_id,
                "fresh_delay_ns": 1e9 * fresh_delay,
                "fresh_frequency_mhz": fresh_frequency / 1e6,
                "measurements": len(records),
                "cases": [c for c in records.cases() if not c.startswith("BASELINE")],
                "final_degradation_pct": final_pct,
                "quarantined": chip_id in result.quarantined,
            }
        )
    return rows


def _degradation_charts(result: CampaignResult, chip_rows: list[dict]) -> list[str]:
    """One inline-SVG figure per chip with a curve per non-baseline case."""
    figures = []
    for row in chip_rows:
        series: list[Series] = []
        for case in row["cases"]:
            try:
                times, pct = result.degradation_percent_series(
                    case, _chip_no(row["chip_id"])
                )
            except ScheduleError:
                continue
            if len(times) < 2:
                continue
            series.append(Series(case, times / SECONDS_PER_HOUR, pct))
        if not series:
            continue
        chart = svg_line_chart(
            series,
            title=f"{row['chip_id']} frequency degradation",
            x_label="phase-elapsed sim hours",
            y_label="degradation %",
        )
        figures.append(
            H.figure(
                chart,
                f"{row['chip_id']}: fresh {row['fresh_frequency_mhz']:.2f} MHz, "
                f"final degradation {row['final_degradation_pct']:.3f}%",
            )
        )
    return figures


def build_campaign_report(
    result: CampaignResult,
    model: TraceModel | None = None,
    title: str = "Campaign health report",
    seed: int | None = None,
) -> CampaignHealthReport:
    """Assemble the health report from a campaign result and its trace.

    ``model`` carries the metric totals (guard / fault / cache families)
    and span statistics; pass ``TraceModel.from_tracer(tracer)`` for a
    live run or ``TraceModel.load(path)`` for an exported trace.  Without
    one the metric-backed sections render as empty-but-present, so the
    JSON schema is stable either way.
    """
    model = model if model is not None else TraceModel([], {})
    chip_rows = _chip_rows(result)

    sim_end = result.log.last().timestamp if len(result.log) > 0 else 0.0
    meta = {
        "title": title,
        "seed": seed,
        "n_chips": len(chip_rows),
        "complete": result.complete,
        "measurements": len(result.log),
        "cases": [c for c in result.log.cases() if not c.startswith("BASELINE")],
        "sim_seconds": sim_end,
        "sim_seconds_per_wall_second": model.metric_value(_SIM_PER_WALL),
        "trace_spans": len(model.spans),
    }

    guard_rows = [
        {"contract": name[len(_GUARD_PREFIX):], "violations": int(value)}
        for name, value in model.metrics_matching(_GUARD_PREFIX).items()
    ]

    per_chip_meas = [float(row["measurements"]) for row in chip_rows]
    per_chip_final = [
        row["final_degradation_pct"] for row in chip_rows if row["measurements"] > 0
    ]
    resilience = {
        "faults_injected": int(model.metric_value(_FAULTS)),
        "sample_retries": int(model.metric_value(_RETRIES)),
        "quarantines": int(model.metric_value(_QUARANTINES)) or len(result.quarantined),
        "per_chip_measurements": summary_with_ci(per_chip_meas),
        "final_degradation_pct": summary_with_ci(per_chip_final),
    }

    quarantine_rows = [
        {
            "chip_id": report.chip_id,
            "case": report.case,
            "sim_time_h": report.sim_time / SECONDS_PER_HOUR,
            "reason": report.reason,
        }
        for _, report in sorted(result.quarantined.items(), key=lambda kv: _chip_no(kv[0]))
    ]

    hits = model.metric_value(_CACHE_PREFIX + "hits")
    misses = model.metric_value(_CACHE_PREFIX + "misses")
    lookups = hits + misses
    cache = {
        "hits": int(hits),
        "misses": int(misses),
        "lookups": int(lookups),
        "hit_rate": hits / lookups if lookups > 0 else 0.0,
    }

    data = {
        "meta": meta,
        "chips": chip_rows,
        "guard_violations": guard_rows,
        "resilience": resilience,
        "quarantined": quarantine_rows,
        "rate_cache": cache,
    }
    return CampaignHealthReport(data, H.page(title, _sections(data, result)))


def _ci_text(entry: dict) -> str:
    """'mean 124.4 [120.1, 129.0]' or 'n/a' for empty samples."""
    if entry.get("n", 0) == 0:
        return "n/a"
    text = f"mean {entry['mean']:,.2f}"
    if "ci95" in entry:
        low, high = entry["ci95"]
        text += f"  (95% CI [{low:,.2f}, {high:,.2f}])"
    return text


def _sections(data: dict, result: CampaignResult) -> list[str]:
    """The health report's sections, in page order."""
    meta, res, cache = data["meta"], data["resilience"], data["rate_cache"]
    charts = _degradation_charts(result, data["chips"])
    quarantined = data["quarantined"]
    return [
        H.heading("Campaign"),
        H.rows_table("Campaign summary", ["quantity", "value"], [
            ["status", H.status("complete", True) if meta["complete"]
             else H.status(f"{len(quarantined)} chip(s) quarantined", False)],
            ["chips", meta["n_chips"]],
            ["cases", ", ".join(meta["cases"]) or "-"],
            ["measurements", meta["measurements"]],
            ["simulated", f"{meta['sim_seconds'] / SECONDS_PER_HOUR:,.1f} h"],
            ["sim seconds per wall second",
             f"{meta['sim_seconds_per_wall_second']:,.0f}"],
            ["trace spans", meta["trace_spans"]],
            ["seed", meta["seed"] if meta["seed"] is not None else "-"],
        ]),
        H.heading("Chips"),
        H.table("Per-chip summary", [
            ("chip", "chip_id"),
            ("fresh delay ns", "fresh_delay_ns"),
            ("fresh MHz", "fresh_frequency_mhz"),
            ("measurements", "measurements"),
            ("cases", lambda row: ", ".join(row["cases"]) or "-"),
            ("final degradation %", "final_degradation_pct"),
            ("quarantined", "quarantined"),
        ], data["chips"]),
        H.heading("Frequency degradation"),
        *(charts or [H.note("No per-case measurement series recorded.")]),
        H.heading("Guard violations"),
        H.table("Physics-contract violations", [
            ("contract", "contract"), ("violations", "violations"),
        ], data["guard_violations"]) if data["guard_violations"]
        else H.note("No guard violations recorded."),
        H.heading("Faults, retries and quarantines"),
        H.rows_table("Resilience statistics", ["quantity", "value"], [
            ["faults injected", res["faults_injected"]],
            ["sample retries", res["sample_retries"]],
            ["chips quarantined", res["quarantines"]],
            ["measurements per chip", _ci_text(res["per_chip_measurements"])],
            ["final degradation % per chip", _ci_text(res["final_degradation_pct"])],
        ]),
        *([H.table("Quarantined chips", [
            ("chip", "chip_id"),
            ("during case", "case"),
            ("sim time h", "sim_time_h"),
            ("reason", "reason"),
        ], quarantined)] if quarantined else []),
        H.heading("Trap-rate cache"),
        H.rows_table("Rate-cache effectiveness", ["quantity", "value"], [
            ["lookups", cache["lookups"]],
            ["hits", cache["hits"]],
            ["misses", cache["misses"]],
            ["hit rate", f"{100.0 * cache['hit_rate']:.1f}%"],
        ]),
    ]
