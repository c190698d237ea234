"""Campaign, fleet and dependability reports.

Split from :mod:`repro.obs` on purpose: ``obs`` is the low-level
instrument/trace layer that must stay import-light on the hot path,
while this package is the *consumer* side — it renders finished
campaigns into human-facing artefacts (self-contained HTML + JSON).

The three run kinds — the per-chip campaign (:mod:`.builder`), the
wafer-lot fleet (:mod:`.fleet`) and the dependability sweep
(:mod:`.dependability`) — differ only in their data and their section
list.  Each builds its JSON dict first, then declares its sections
(heading, table over JSON entries, inline-SVG figure, note) with the one
renderer in :mod:`.html`, whose :func:`~repro.report.html.page` turns any
section list into the page; :mod:`.svg` draws the charts on one shared
frame.  All three return a :class:`CampaignHealthReport`.
"""

from repro.report.builder import CampaignHealthReport, build_campaign_report
from repro.report.dependability import build_dependability_report
from repro.report.fleet import build_fleet_report
from repro.report.svg import svg_line_chart, svg_scatter_chart

__all__ = [
    "CampaignHealthReport",
    "build_campaign_report",
    "build_dependability_report",
    "build_fleet_report",
    "svg_line_chart",
    "svg_scatter_chart",
]
