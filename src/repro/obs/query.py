"""Trace query engine: ask a JSONL trace where the time went.

:class:`TraceModel` loads the records :class:`~repro.obs.exporter.JsonlExporter`
streamed (or takes a live :class:`~repro.obs.tracer.Tracer`) and builds an
indexed span tree.  It is the one reader of finished traces; every
``repro trace`` subcommand and the timing table of ``repro stats`` render
from it:

* **tree** — reconstruct the ``campaign -> case -> phase -> measurement``
  hierarchy with durations and attributes (:meth:`TraceModel.tree_render`);
* **top** — top-N span groups by *self* time (duration minus children) or
  cumulative time (:meth:`TraceModel.top`);
* **profile** — per-phase self time (:meth:`TraceModel.phase_table`),
  flamegraph collapsed stacks (:meth:`TraceModel.collapsed`) and per-case
  throughput read from the ``samples`` and ``trap_updates`` deltas each
  ``case`` span carries (:meth:`TraceModel.throughput_table`);
* **rollups** — counter/gauge families from the metric records
  (:meth:`TraceModel.metric_family_table`) and numeric span attributes
  summed by chip or by span path (:meth:`TraceModel.rollup`);
* **diff** — compare two runs of the same workload
  (:func:`diff_traces`): exact rows (span counts, counter values) flag
  any difference, timing rows flag only changes beyond both a relative
  and an absolute threshold, and rate gauges are informational.

Everything here is read-only over finished traces; nothing imports the
simulation stack, so the query engine also loads traces produced by
other repro versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.tables import Table
from repro.errors import MeasurementError
from repro.obs.exporter import load_trace

#: Metric name suffixes that accumulate wall-clock seconds (timing, not
#: logical counts — exact diffing would flag every run).
_TIMING_SUFFIXES = ("_seconds", ".seconds")

#: Throughput-table rows: per-case measurement samples and trap updates
#: per wall second, and the fraction of rate lookups the memo served.
MEAS_PER_S = "profile.case.meas_per_s"
TRAP_UPDATES_PER_S = "profile.case.trap_updates_per_s"
CACHE_HIT_RATE = "bti.rate_cache.hit_rate"


@dataclass
class SpanNode:
    """One span of a loaded trace, linked into its tree."""

    name: str
    span_id: int
    parent_id: int | None
    depth: int
    start: float
    duration: float
    attrs: dict
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def self_time(self) -> float:
        """Wall seconds spent in this span excluding its children."""
        return max(0.0, self.duration - sum(c.duration for c in self.children))

    @property
    def sim_advanced(self) -> float:
        """Simulated seconds this span advanced (0 if not recorded)."""
        return float(self.attrs.get("sim_advanced", 0.0))

    @property
    def frame(self) -> str:
        """The flamegraph/grouping frame name for this span.

        Phase spans are refined by their kind (``phase:stress`` vs
        ``phase:recovery``) — the two have very different cost profiles.
        """
        kind = self.attrs.get("kind")
        return f"{self.name}:{kind}" if kind else self.name

    def attr_number(self, key: str) -> float | None:
        """A numeric attribute value, or None when absent/non-numeric."""
        value = self.attrs.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        return float(value)


@dataclass
class SpanGroup:
    """Aggregate over the spans that share one group key."""

    key: str
    count: int = 0
    total: float = 0.0
    self_time: float = 0.0
    sim_advanced: float = 0.0

    def add(self, span: SpanNode) -> None:
        """Fold one span into the aggregate."""
        self.count += 1
        self.total += span.duration
        self.self_time += span.self_time
        self.sim_advanced += span.sim_advanced


class TraceModel:
    """An indexed, queryable model of one finished trace."""

    def __init__(self, spans: list[SpanNode], metrics: dict[str, dict]) -> None:
        self.spans = spans
        self.metrics = metrics
        self.by_id: dict[int, SpanNode] = {s.span_id: s for s in spans}
        self.roots: list[SpanNode] = []
        for span in spans:
            parent = self.by_id.get(span.parent_id)
            if parent is None:
                self.roots.append(span)
            else:
                parent.children.append(span)
        self._paths: dict[int, str] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_records(cls, records: list[dict]) -> "TraceModel":
        """Build a model from already-parsed trace records."""
        spans: list[SpanNode] = []
        metrics: dict[str, dict] = {}
        for record in records:
            kind = record.get("type")
            if kind == "span":
                spans.append(
                    SpanNode(
                        name=record.get("name", "?"),
                        span_id=int(record["span_id"]),
                        parent_id=record.get("parent_id"),
                        depth=int(record.get("depth", 0)),
                        start=float(record.get("start_s", 0.0)),
                        duration=float(record.get("duration_s", 0.0)),
                        attrs=dict(record.get("attrs", {})),
                    )
                )
            elif kind == "metric":
                metrics[record["name"]] = record
        return cls(spans, metrics)

    @classmethod
    def load(cls, path: str | Path) -> "TraceModel":
        """Load a JSONL trace file into a model."""
        return cls.from_records(load_trace(path))

    @classmethod
    def from_tracer(cls, tracer) -> "TraceModel":
        """Snapshot a live in-memory tracer (finished spans + metrics)."""
        spans = [
            SpanNode(
                name=span.name,
                span_id=span.span_id,
                parent_id=span.parent_id,
                depth=span.depth,
                start=span.start,
                duration=span.duration,
                attrs=dict(span.attributes),
            )
            for span in tracer.finished
        ]
        return cls(spans, {record["name"]: record for record in tracer.metrics.records()})

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.spans)

    def path(self, span: SpanNode) -> str:
        """Root-to-span frame path, e.g. ``campaign;case;phase:stress``."""
        cached = self._paths.get(span.span_id)
        if cached is not None:
            return cached
        parent = self.by_id.get(span.parent_id)
        path = span.frame if parent is None else f"{self.path(parent)};{span.frame}"
        self._paths[span.span_id] = path
        return path

    def spans_named(self, name: str) -> list[SpanNode]:
        """Spans whose raw name is ``name``, in file order."""
        return [span for span in self.spans if span.name == name]

    def metric_value(self, name: str, default: float = 0.0) -> float:
        """The recorded value of one metric (``default`` when absent)."""
        record = self.metrics.get(name)
        return float(record["value"]) if record is not None else default

    def metrics_matching(self, prefix: str) -> dict[str, float]:
        """Name -> value for metrics under a dotted prefix, sorted."""
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return {
            name: float(record["value"])
            for name, record in sorted(self.metrics.items())
            if name.startswith(dotted) or name == prefix
        }

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #

    def aggregate(self, group: str = "name") -> dict[str, SpanGroup]:
        """Span aggregates keyed by ``name`` (frame) or full ``path``."""
        if group not in ("name", "path"):
            raise MeasurementError(f"unknown span grouping {group!r}")
        groups: dict[str, SpanGroup] = {}
        for span in self.spans:
            key = span.frame if group == "name" else self.path(span)
            entry = groups.get(key)
            if entry is None:
                entry = groups[key] = SpanGroup(key)
            entry.add(span)
        return groups

    def top(
        self,
        n: int | None = 10,
        by: str = "self",
        group: str = "name",
        title: str | None = None,
    ) -> Table:
        """Top-``n`` span groups (all of them for ``n=None``) by self or total time."""
        if by not in ("self", "total"):
            raise MeasurementError(f"unknown top ordering {by!r}")
        groups = sorted(
            self.aggregate(group).values(),
            key=lambda g: (-(g.self_time if by == "self" else g.total), g.key),
        )
        total_self = sum(g.self_time for g in groups) or 1.0
        groups = groups[:n]
        table = Table(
            title or f"Top {len(groups)} span groups by {by} time",
            [group, "count", "self s", "total s", "self %", "sim s"],
            fmt="{:,.3f}",
        )
        for entry in groups:
            table.add_row(
                entry.key,
                f"{entry.count}",
                entry.self_time,
                entry.total,
                100.0 * entry.self_time / total_self,
                entry.sim_advanced,
            )
        return table

    def rollup(self, attr: str, by: str = "chip") -> dict[str, float]:
        """Sum a numeric span attribute grouped by chip or span path.

        ``by="chip"`` groups on the ``chip_id`` attribute (spans without
        one land under ``"-"``); ``by="path"`` groups on the full frame
        path.  Missing/non-numeric values are skipped, so e.g. a
        ``guard_violations`` rollup only counts annotated spans.
        """
        if by not in ("chip", "path"):
            raise MeasurementError(f"unknown rollup grouping {by!r}")
        sums: dict[str, float] = {}
        for span in self.spans:
            value = span.attr_number(attr)
            if value is None:
                continue
            key = (
                str(span.attrs.get("chip_id", "-"))
                if by == "chip"
                else self.path(span)
            )
            sums[key] = sums.get(key, 0.0) + value
        return dict(sorted(sums.items()))

    def chip_table(self) -> Table:
        """Per-chip rollup: spans, wall/self time, sim time, measurements."""
        rows: dict[str, list[float]] = {}
        for span in self.spans:
            chip = str(span.attrs.get("chip_id", "-"))
            entry = rows.setdefault(chip, [0.0, 0.0, 0.0, 0.0])
            entry[0] += 1.0
            entry[1] += span.self_time
            if span.name == "case":
                entry[2] += span.sim_advanced
            if span.name == "measurement":
                entry[3] += 1.0
        table = Table(
            "Per-chip span rollup",
            ["chip", "spans", "self s", "sim s", "measurements"],
            fmt="{:,.3f}",
        )
        for chip in sorted(rows):
            count, self_s, sim_s, meas = rows[chip]
            table.add_row(chip, f"{int(count)}", self_s, sim_s, f"{int(meas)}")
        return table

    def phase_table(self) -> Table:
        """Self time of each schedule phase label, busiest first.

        Groups the ``phase`` spans by their phase label and kind — the
        view that says which part of the Table-1 schedule burns the wall
        clock — with sim-throughput so a perf regression in one phase
        family stands out.
        """
        rows: dict[tuple[str, str], list[float]] = {}
        for span in self.spans_named("phase"):
            key = (
                str(span.attrs.get("phase", "?")),
                str(span.attrs.get("kind", "?")),
            )
            entry = rows.setdefault(key, [0.0, 0.0, 0.0])
            entry[0] += 1.0
            entry[1] += span.self_time
            entry[2] += span.sim_advanced
        table = Table(
            "Per-phase self time",
            ["phase", "kind", "count", "self s", "sim s", "sim s/wall s"],
            fmt="{:,.3f}",
        )
        for (label, kind), (count, self_s, sim_s) in sorted(
            rows.items(), key=lambda item: (-item[1][1], item[0])
        ):
            table.add_row(
                label, kind, f"{int(count)}", self_s, sim_s,
                sim_s / self_s if self_s > 0.0 else 0.0,
            )
        return table

    def collapsed(self) -> list[str]:
        """Flamegraph collapsed stacks: ``frame;frame;frame <usec>``.

        One line per distinct root-to-frame path, sorted by path, values
        in integer microseconds of self time — feed straight into any
        flamegraph renderer.  Every path in the span tree is emitted
        (zero-weight frames included) so two seeded runs always produce
        the same stack structure; only the values differ.
        """
        return [
            f"{path} {int(round(1e6 * entry.self_time))}"
            for path, entry in sorted(self.aggregate("path").items())
        ]

    def throughput_table(self) -> Table:
        """Per-case throughput from the case spans, and the memo hit rate.

        A ``case`` span runs ``fleet`` chips in lock step and carries the
        ``samples`` and ``trap_updates`` counter deltas of its run, so it
        counts as ``fleet`` chip-cases, each at ``delta / (fleet x
        duration)`` per wall second.  Spans without the deltas (older
        traces) or without a duration are skipped.  The hit rate is
        hits / (hits + misses) of the ``bti.rate_cache`` counters.
        """
        table = Table(
            "Derived throughput (per case)",
            ["metric", "cases", "mean", "min", "max"],
            fmt="{:,.1f}",
        )
        cases = [
            span for span in self.spans_named("case")
            if span.duration > 0.0 and "samples" in span.attrs
        ]
        for name, attr in ((MEAS_PER_S, "samples"), (TRAP_UPDATES_PER_S, "trap_updates")):
            count, total, rates = 0, 0.0, []
            for span in cases:
                fleet = int(span.attrs.get("fleet", 1))
                rate = float(span.attrs[attr]) / (fleet * span.duration)
                count += fleet
                total += fleet * rate
                rates.append(rate)
            table.add_row(
                name, f"{count}", total / count if count else 0.0,
                min(rates, default=0.0), max(rates, default=0.0),
            )
        hits = self.metric_value("bti.rate_cache.hits")
        lookups = hits + self.metric_value("bti.rate_cache.misses")
        hit_rate = hits / lookups if lookups else 0.0
        table.add_row(CACHE_HIT_RATE, "-", 100.0 * hit_rate, "-", "-")
        return table

    #: Families the campaign-health rollup pins: absent families still
    #: render (as a 0 row), so the ``repro stats`` output keeps a stable
    #: shape whether or not a run hit faults, retries or quarantines.
    HEALTH_FAMILIES = (
        "bti.rate_cache",
        "campaign.quarantines",
        "guard.violations",
        "lab.faults",
        "lab.sample_retries",
    )

    def metric_family_table(self, families: tuple[str, ...] | None = None) -> Table:
        """Metric records rolled up under their dotted family prefixes.

        With ``families=None`` every metric appears under its first
        dotted segment; passing explicit prefixes pins the rows (absent
        families render as 0, so the table shape is stable run to run).
        """
        table = Table(
            "Metric rollup by family",
            ["family", "metric", "kind", "value"],
            fmt="{:,.3f}",
        )
        if families is None:
            for name in sorted(self.metrics):
                record = self.metrics[name]
                table.add_row(
                    name.split(".", 1)[0], name, record.get("kind", "?"),
                    float(record["value"]),
                )
            return table
        for family in families:
            members = self.metrics_matching(family)
            if not members:
                table.add_row(family, f"{family}.*", "-", 0.0)
                continue
            for name, value in members.items():
                table.add_row(family, name, self.metrics[name].get("kind", "?"),
                              value)
        return table

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #

    def tree_render(
        self, max_depth: int | None = None, min_duration: float = 0.0
    ) -> str:
        """The span tree as indented text with durations and key attrs."""
        lines: list[str] = []

        def visit(span: SpanNode) -> None:
            if max_depth is not None and span.depth > max_depth:
                return
            if span.duration < min_duration:
                return
            label = span.frame
            for key in ("chip_id", "case", "phase"):
                value = span.attrs.get(key)
                if value is not None:
                    label += f" {key}={value}"
            sim = span.sim_advanced
            suffix = f"  sim={sim:,.0f}s" if sim else ""
            lines.append(
                f"{'  ' * span.depth}{label}  [{1e3 * span.duration:,.1f} ms]{suffix}"
            )
            for child in span.children:
                visit(child)

        for root in self.roots:
            visit(root)
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# diffing
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class DiffRow:
    """One compared quantity between trace A and trace B."""

    key: str
    #: ``exact`` (logical counts), ``timing`` (wall seconds) or ``rate``
    #: (throughput gauges — informational, never significant).
    category: str
    a: float
    b: float

    @property
    def delta(self) -> float:
        """B minus A."""
        return self.b - self.a

    @property
    def rel(self) -> float:
        """Relative change of B vs A (inf when A is 0 and B is not)."""
        if self.a == 0.0:  # exact sentinel: metric absent in A  # repro: noqa[RPR003]
            return 0.0 if self.b == 0.0 else float("inf")  # repro: noqa[RPR003]
        return self.delta / self.a


@dataclass(frozen=True)
class HashRow:
    """One sanitizer ``state_hash`` span compared between trace A and B.

    ``seq`` is the chip-local phase index, so (chip_id, seq) identifies
    the same simulated phase in both runs regardless of worker
    scheduling.  An empty digest means the run recorded no hash for that
    phase (e.g. one side ran without ``--sanitize``).
    """

    chip_id: str
    seq: int
    case: str
    phase: str
    a: str
    b: str

    @property
    def match(self) -> bool:
        """Whether both runs produced the same digest for this phase."""
        return self.a == self.b


@dataclass
class TraceDiff:
    """All compared rows between two traces, plus significance rules."""

    rows: list[DiffRow]
    time_rel: float = 0.5
    time_abs: float = 0.5
    #: Sanitizer digests compared per (chip, phase seq); empty unless
    #: both traces carry ``state_hash`` spans.
    hash_rows: list[HashRow] = field(default_factory=list)

    def significant(self) -> list[DiffRow]:
        """Rows that represent a real difference between the runs.

        Exact rows (span counts, counter values) are
        significant on any difference; timing rows only when they moved
        by more than ``time_rel`` relatively *and* ``time_abs`` seconds
        absolutely; rate rows never (wall-clock noise).
        """
        flagged: list[DiffRow] = []
        for row in self.rows:
            if row.category == "exact":
                if row.a != row.b:
                    flagged.append(row)
            elif row.category == "timing":
                if abs(row.delta) > self.time_abs and abs(row.rel) > self.time_rel:
                    flagged.append(row)
        return flagged

    def hash_divergent(self) -> list[HashRow]:
        """Hash rows where the two runs disagree, in (seq, chip) order."""
        return sorted(
            (row for row in self.hash_rows if not row.match),
            key=lambda row: (row.seq, row.chip_id),
        )

    def first_divergence(self) -> HashRow | None:
        """The earliest phase (by chip-local seq) whose state diverged.

        Hashes are rolling, so every phase after the true divergence also
        mismatches — the first row is where the bug lives.
        """
        divergent = self.hash_divergent()
        return divergent[0] if divergent else None

    def hash_table(self) -> Table:
        """Render the sanitizer digest comparison."""
        divergent = self.hash_divergent()
        table = Table(
            f"State hashes — {len(divergent)} divergent of "
            f"{len(self.hash_rows)} compared",
            ["chip", "seq", "case", "phase", "A", "B", "match"],
        )
        for row in sorted(self.hash_rows, key=lambda r: (r.chip_id, r.seq)):
            table.add_row(
                row.chip_id,
                f"{row.seq}",
                row.case,
                row.phase,
                row.a or "-",
                row.b or "-",
                "yes" if row.match else "NO",
            )
        return table

    def table(self, significant_only: bool = False) -> Table:
        """Render the diff (optionally just the significant rows)."""
        rows = self.significant() if significant_only else self.rows
        title = (
            f"Trace diff — {len(self.significant())} significant of "
            f"{len(self.rows)} compared"
        )
        table = Table(title, ["quantity", "category", "A", "B", "delta", "rel %"],
                      fmt="{:,.3f}")
        for row in rows:
            rel = row.rel
            table.add_row(
                row.key,
                row.category,
                row.a,
                row.b,
                row.delta,
                "inf" if rel == float("inf") else f"{100.0 * rel:+.1f}",
            )
        return table


def _state_hash_index(model: TraceModel) -> dict[tuple[str, int], tuple[str, str, str]]:
    """(chip_id, seq) -> (case, phase, digest) from ``state_hash`` spans."""
    index: dict[tuple[str, int], tuple[str, str, str]] = {}
    for span in model.spans_named("state_hash"):
        key = (str(span.attrs.get("chip_id", "-")), int(span.attrs.get("seq", 0)))
        index[key] = (
            str(span.attrs.get("case", "")),
            str(span.attrs.get("phase", "")),
            str(span.attrs.get("state", "")),
        )
    return index


def _hash_rows(a: TraceModel, b: TraceModel) -> list[HashRow]:
    index_a = _state_hash_index(a)
    index_b = _state_hash_index(b)
    rows: list[HashRow] = []
    for key in sorted(set(index_a) | set(index_b)):
        case_a, phase_a, digest_a = index_a.get(key, ("", "", ""))
        case_b, phase_b, digest_b = index_b.get(key, ("", "", ""))
        rows.append(
            HashRow(
                chip_id=key[0],
                seq=key[1],
                case=case_a or case_b,
                phase=phase_a or phase_b,
                a=digest_a,
                b=digest_b,
            )
        )
    return rows


def _metric_category(name: str, kind: str) -> str:
    """How a metric should be compared between runs."""
    if kind == "gauge":
        return "rate"
    if name.endswith(_TIMING_SUFFIXES):
        return "timing"
    # counters are logical quantities
    return "exact"


def diff_traces(
    a: TraceModel,
    b: TraceModel,
    time_rel: float = 0.5,
    time_abs: float = 0.5,
) -> TraceDiff:
    """Compare two traces of the same workload, A as the baseline.

    Two seeded runs of the same campaign produce identical exact rows
    (span counts, counter values) and near-identical timing rows, so the
    diff reports zero significant deltas; a structural change (more
    spans, different counters) or a large slowdown is flagged.  Traces
    carrying sanitizer ``state_hash`` spans additionally get per-phase
    digest rows (:meth:`TraceDiff.first_divergence` pinpoints where two
    runs' chip state first disagreed).
    """
    rows: list[DiffRow] = []
    groups_a = a.aggregate("name")
    groups_b = b.aggregate("name")
    for key in sorted(set(groups_a) | set(groups_b)):
        left = groups_a.get(key, SpanGroup(key))
        right = groups_b.get(key, SpanGroup(key))
        rows.append(
            DiffRow(f"span:{key} count", "exact", float(left.count),
                    float(right.count))
        )
        rows.append(
            DiffRow(f"span:{key} self_s", "timing", left.self_time,
                    right.self_time)
        )
    names = sorted(set(a.metrics) | set(b.metrics))
    for name in names:
        kind = (a.metrics.get(name) or b.metrics.get(name)).get("kind", "gauge")
        rows.append(
            DiffRow(
                f"metric:{name}",
                _metric_category(name, kind),
                a.metric_value(name),
                b.metric_value(name),
            )
        )
    return TraceDiff(
        rows, time_rel=time_rel, time_abs=time_abs, hash_rows=_hash_rows(a, b)
    )
