"""Inline SVG line charts for the self-contained HTML health report.

The report must be a single file with no external assets, so the charts
are plain ``<svg>`` elements built from the same
:class:`~repro.analysis.series.Series` data the ASCII plots render.  No
fonts, no scripts, no stylesheets beyond presentation attributes —
everything a browser needs ships inside the element.
"""

from __future__ import annotations

from typing import Sequence
from xml.sax.saxutils import escape

from repro.analysis.series import Series
from repro.errors import ConfigurationError

#: Series stroke colours (cycled); chosen to stay apart for 8 series.
PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)

#: Plot-area margin left of the y tick labels; the legend starts here too.
_MARGIN_LEFT = 56.0


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    """``n`` evenly spaced tick values from lo to hi inclusive."""
    if n < 2:
        return [lo, hi]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _frame(
    width: int, height: int, title: str, x_label: str, y_label: str,
    x_range: tuple[float, float], y_range: tuple[float, float],
    margin_bottom: float,
):
    """Open a chart: title, plot frame, gridlines, ticks and axis labels.

    Returns the SVG parts so far plus the data-to-pixel maps ``sx`` and
    ``sy``; the caller appends its marks and the closing tag.
    """
    if width < 120 or height < 80:
        raise ConfigurationError("chart must be at least 120 x 80 px")
    margin_left, margin_right = _MARGIN_LEFT, 16.0
    margin_top = 28.0 if title else 12.0
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom
    (x_min, x_max), (y_min, y_max) = x_range, y_range

    def sx(x: float) -> float:
        return margin_left + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y: float) -> float:
        return margin_top + (1.0 - (y - y_min) / (y_max - y_min)) * plot_h

    parts: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'role="img" font-family="sans-serif" font-size="11">'
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.2f}" y="16" text-anchor="middle" '
            f'font-size="13">{escape(title)}</text>'
        )
    parts.append(
        f'<rect x="{margin_left:.2f}" y="{margin_top:.2f}" '
        f'width="{plot_w:.2f}" height="{plot_h:.2f}" fill="none" '
        f'stroke="#999" stroke-width="1"/>'
    )
    for tick in _ticks(y_min, y_max):
        y = sy(tick)
        parts.append(
            f'<line x1="{margin_left:.2f}" y1="{y:.2f}" '
            f'x2="{margin_left + plot_w:.2f}" y2="{y:.2f}" '
            f'stroke="#e0e0e0" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{margin_left - 6:.2f}" y="{y + 3:.2f}" '
            f'text-anchor="end">{tick:.3g}</text>'
        )
    for tick in _ticks(x_min, x_max):
        x = sx(tick)
        parts.append(
            f'<text x="{x:.2f}" y="{margin_top + plot_h + 14:.2f}" '
            f'text-anchor="middle">{tick:.3g}</text>'
        )
    parts.append(
        f'<text x="{margin_left + plot_w / 2:.2f}" '
        f'y="{margin_top + plot_h + 28:.2f}" text-anchor="middle">'
        f'{escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="14" y="{margin_top + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {margin_top + plot_h / 2:.2f})">'
        f'{escape(y_label)}</text>'
    )
    return parts, sx, sy


def svg_line_chart(
    series: Sequence[Series],
    width: int = 640,
    height: int = 260,
    title: str = "",
    x_label: str = "time",
    y_label: str = "value",
) -> str:
    """Render series into one self-contained ``<svg>`` element.

    Axes carry min/max plus intermediate ticks; each series gets a
    palette colour and a legend entry.  All coordinates are formatted to
    two decimals, so the output is deterministic across platforms.
    """
    if not series:
        raise ConfigurationError("svg_line_chart needs at least one series")
    x_min = min(float(s.times.min()) for s in series)
    x_max = max(float(s.times.max()) for s in series)
    y_min = min(float(s.values.min()) for s in series)
    y_max = max(float(s.values.max()) for s in series)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    parts, sx, sy = _frame(
        width, height, title, x_label, y_label,
        (x_min, x_max), (y_min, y_max), margin_bottom=56.0,
    )
    for index, s in enumerate(series):
        colour = PALETTE[index % len(PALETTE)]
        points = " ".join(
            f"{sx(float(t)):.2f},{sy(float(v)):.2f}"
            for t, v in zip(s.times, s.values)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{colour}" '
            f'stroke-width="1.5"/>'
        )
    # legend (bottom row, one swatch per series)
    legend_y = height - 10.0
    x_cursor = _MARGIN_LEFT
    for index, s in enumerate(series):
        colour = PALETTE[index % len(PALETTE)]
        parts.append(
            f'<rect x="{x_cursor:.2f}" y="{legend_y - 8:.2f}" width="10" '
            f'height="10" fill="{colour}"/>'
        )
        label = s.label if not s.units else f"{s.label} [{s.units}]"
        parts.append(
            f'<text x="{x_cursor + 14:.2f}" y="{legend_y:.2f}">'
            f'{escape(label)}</text>'
        )
        x_cursor += 14 + 7 * len(label) + 12
    parts.append("</svg>")
    return "".join(parts)


def svg_scatter_chart(
    points: Sequence[tuple[float, float, str]],
    frontier: Sequence[tuple[float, float]] = (),
    width: int = 640,
    height: int = 280,
    title: str = "",
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render labelled points (and an optional frontier polyline) as SVG.

    ``points`` are ``(x, y, label)`` triples — every point is drawn as a
    circle with its label beside it; ``frontier`` points (a subset, in
    drawing order) are connected with a dashed polyline and filled, so a
    Pareto frontier reads at a glance against the dominated cloud.  Same
    determinism contract as :func:`svg_line_chart`.
    """
    if not points:
        raise ConfigurationError("svg_scatter_chart needs at least one point")
    xs = [float(x) for x, _, _ in points]
    ys = [float(y) for _, y, _ in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    # Pad 5% so edge points are not clipped by the frame.
    x_pad = 0.05 * (x_max - x_min) or 0.5
    y_pad = 0.05 * (y_max - y_min) or 0.5
    parts, sx, sy = _frame(
        width, height, title, x_label, y_label,
        (x_min - x_pad, x_max + x_pad), (y_min - y_pad, y_max + y_pad),
        margin_bottom=44.0,
    )
    if len(frontier) >= 2:
        line = " ".join(
            f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in frontier
        )
        parts.append(
            f'<polyline points="{line}" fill="none" stroke="{PALETTE[1]}" '
            f'stroke-width="1.5" stroke-dasharray="5,3"/>'
        )
    frontier_set = {(float(x), float(y)) for x, y in frontier}
    for x, y, label in points:
        on_frontier = (float(x), float(y)) in frontier_set
        colour = PALETTE[1] if on_frontier else PALETTE[0]
        fill = colour if on_frontier else "none"
        parts.append(
            f'<circle cx="{sx(float(x)):.2f}" cy="{sy(float(y)):.2f}" r="4" '
            f'fill="{fill}" stroke="{colour}" stroke-width="1.5"/>'
        )
        if label:
            parts.append(
                f'<text x="{sx(float(x)) + 7:.2f}" y="{sy(float(y)) - 5:.2f}">'
                f"{escape(label)}</text>"
            )
    parts.append("</svg>")
    return "".join(parts)
