"""The one section renderer behind the campaign, fleet and sweep reports.

A report is its JSON data plus a list of sections, each one HTML
fragment: :func:`heading`, :func:`table` (or :func:`rows_table`),
:func:`figure` around an inline SVG chart, or :func:`note`.
:func:`page` renders any section list into the finished document.  The
only styling is one inline ``<style>`` block, so the report is a single
file that opens anywhere with no network access.

Text is escaped on the way in; only :class:`Markup` — the fragments
built here and the styled :func:`status` cell — passes through as is.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence, Union
from xml.sax.saxutils import escape

#: The whole report's stylesheet — inlined, never linked.
STYLE = """
body { font-family: sans-serif; margin: 2em auto; max-width: 70em;
       color: #222; line-height: 1.45; }
h1 { border-bottom: 2px solid #1f77b4; padding-bottom: 0.2em; }
h2 { margin-top: 1.6em; border-bottom: 1px solid #ccc; }
table { border-collapse: collapse; margin: 0.8em 0; }
th, td { border: 1px solid #bbb; padding: 0.25em 0.7em; text-align: left; }
th { background: #eef3f8; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
p.note { color: #555; font-size: 0.92em; }
.ok { color: #2ca02c; font-weight: bold; }
.bad { color: #d62728; font-weight: bold; }
figure { margin: 1em 0; }
figcaption { font-size: 0.92em; color: #555; }
""".strip()

#: A table column's key: a key of the JSON entry, or a function of it.
Key = Union[str, Callable[[Mapping], object]]


class Markup(str):
    """Text that is already HTML: rendered as is, never escaped again."""


def _text(value: object) -> str:
    return value if isinstance(value, Markup) else escape(str(value))


def status(text: str, ok: bool) -> Markup:
    """A status cell: ``text`` styled green when ``ok``, red otherwise."""
    return Markup(f'<span class="{"ok" if ok else "bad"}">{escape(text)}</span>')


def _cell(cell: object, fmt: str) -> str:
    """One ``<td>``; numbers get the right-aligned ``num`` class."""
    if isinstance(cell, bool):
        return f"<td>{'yes' if cell else 'no'}</td>"
    if isinstance(cell, float):
        return f'<td class="num">{fmt.format(cell)}</td>'
    if isinstance(cell, int):
        return f'<td class="num">{cell:,}</td>'
    return f"<td>{_text(cell)}</td>"


def rows_table(
    title: str, columns: Sequence[str], rows: Sequence[Sequence[object]],
    fmt: str = "{:,.3f}",
) -> Markup:
    """A captioned HTML table of raw rows; floats are formatted with ``fmt``."""
    lines = ["<table>", f"<caption>{escape(title)}</caption>"]
    lines.append("<tr>" + "".join(f"<th>{escape(c)}</th>" for c in columns) + "</tr>")
    for row in rows:
        lines.append("<tr>" + "".join(_cell(cell, fmt) for cell in row) + "</tr>")
    lines.append("</table>")
    return Markup("\n".join(lines))


def table(
    title: str, columns: Sequence[tuple[str, Key]], entries: Sequence[Mapping],
    fmt: str = "{:,.3f}",
) -> Markup:
    """A table over JSON entries, its columns declared as (header, key) pairs.

    A key the entry lacks renders as ``-``.
    """
    rows = [
        [key(entry) if callable(key) else entry.get(key, "-") for _, key in columns]
        for entry in entries
    ]
    return rows_table(title, [header for header, _ in columns], rows, fmt)


def heading(text: str, level: int = 2) -> Markup:
    """A section heading (``<h2>`` unless ``level`` says otherwise)."""
    return Markup(f"<h{level}>{_text(text)}</h{level}>")


def note(text: str) -> Markup:
    """A muted one-line note, e.g. in place of an empty table."""
    return Markup(f'<p class="note">{escape(text)}</p>')


def figure(svg: str, caption: str) -> Markup:
    """Wrap an inline SVG chart in a captioned ``<figure>``."""
    return Markup(f"<figure>{svg}<figcaption>{escape(caption)}</figcaption></figure>")


def page(title: str, sections: Sequence[str]) -> str:
    """Render a section list into the full self-contained HTML document."""
    body = "\n".join(sections)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8"/>\n'
        f"<title>{escape(title)}</title>\n"
        f"<style>\n{STYLE}\n</style>\n</head>\n<body>\n"
        f"<h1>{escape(title)}</h1>\n{body}\n</body>\n</html>\n"
    )
