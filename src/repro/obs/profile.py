"""Deterministic hot-path profiler over finished traces.

Two halves:

* :class:`HotPathProfile` — pure aggregation over a
  :class:`~repro.obs.query.TraceModel`: per-phase self-time tables,
  flamegraph-style collapsed stacks (``campaign;case;phase:stress 1234``,
  value in microseconds of self time) and a throughput table read from
  the per-case histograms below;
* :class:`CaseThroughputSampler` — the *instrumentation* side: wrapped
  around each campaign case it derives throughput gauges from the
  existing counters (measurements/s, trap updates/s, rate-cache hit
  rate) and folds them into histograms, so a finished trace carries the
  distribution of per-case throughput, not just run totals.

The profiler is deterministic in structure: two seeded runs produce the
same stacks with the same shape; only the wall-clock values differ.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.tables import Table
from repro.obs.query import TraceModel

#: Histogram of per-case measurement throughput (samples per wall second).
MEAS_PER_S = "profile.case.meas_per_s"
#: Histogram of per-case trap-update throughput (updates per wall second).
TRAP_UPDATES_PER_S = "profile.case.trap_updates_per_s"
#: Derived gauge: fraction of rate lookups that reused memoised rates.
CACHE_HIT_RATE = "bti.rate_cache.hit_rate"

#: Operand counters the sampler reads (all pre-existing instrumentation).
_SAMPLES = "lab.samples"
_TRAP_UPDATES = "bti.trap_updates"
_CACHE_HITS = "bti.rate_cache.hits"
_CACHE_MISSES = "bti.rate_cache.misses"


class CaseThroughputSampler:
    """Derives per-case throughput metrics from counter deltas.

    Construct just before opening a case span (snapshots the counters),
    call :meth:`finish` with the closed span (reads its duration).  On a
    disabled tracer both steps are a single attribute check.
    """

    __slots__ = ("_tracer", "_samples0", "_updates0")

    def __init__(self, tracer) -> None:
        self._tracer = tracer
        if not tracer.enabled:
            return
        registry = tracer.metrics
        self._samples0 = registry.value(_SAMPLES)
        self._updates0 = registry.value(_TRAP_UPDATES)
        # Register up front so the trace carries the (possibly empty)
        # histograms even when no case span closes with a duration.
        tracer.histogram(MEAS_PER_S, "per-case measurement samples per wall second")
        tracer.histogram(TRAP_UPDATES_PER_S, "per-case trap updates per wall second")
        tracer.derived_gauge(
            CACHE_HIT_RATE,
            "fraction of rate lookups that reused memoised rates",
            _CACHE_HITS,
            (_CACHE_HITS, _CACHE_MISSES),
        )

    def finish(self, span) -> None:
        """Fold the finished case span into the throughput histograms."""
        tracer = self._tracer
        if not tracer.enabled or span.duration <= 0.0:
            return
        registry = tracer.metrics
        tracer.histogram(
            MEAS_PER_S, "per-case measurement samples per wall second"
        ).observe((registry.value(_SAMPLES) - self._samples0) / span.duration)
        tracer.histogram(
            TRAP_UPDATES_PER_S, "per-case trap updates per wall second"
        ).observe((registry.value(_TRAP_UPDATES) - self._updates0) / span.duration)


class HotPathProfile:
    """Aggregated profile views over one finished trace."""

    def __init__(self, model: TraceModel) -> None:
        self.model = model

    @classmethod
    def from_tracer(cls, tracer) -> "HotPathProfile":
        """Profile a live in-memory tracer."""
        return cls(TraceModel.from_tracer(tracer))

    @classmethod
    def load(cls, path: str | Path) -> "HotPathProfile":
        """Profile a JSONL trace file."""
        return cls(TraceModel.load(path))

    def phase_table(self) -> Table:
        """Self time of each schedule phase label, busiest first.

        Groups the ``phase`` spans by their phase label and kind — the
        view that says which part of the Table-1 schedule burns the wall
        clock — with sim-throughput so a perf regression in one phase
        family stands out.
        """
        rows: dict[tuple[str, str], list[float]] = {}
        for span in self.model.spans_named("phase"):
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
        totals: dict[str, float] = {}
        for span in self.model.spans:
            path = self.model.path(span)
            totals[path] = totals.get(path, 0.0) + span.self_time
        return [
            f"{path} {int(round(1e6 * seconds))}"
            for path, seconds in sorted(totals.items())
        ]

    def throughput_table(self) -> Table:
        """The per-case throughput histograms and cache hit rate."""
        table = Table(
            "Derived throughput (per case)",
            ["metric", "cases", "mean", "min", "max"],
            fmt="{:,.1f}",
        )
        for name in (MEAS_PER_S, TRAP_UPDATES_PER_S):
            record = self.model.metrics.get(name)
            if record is None:
                table.add_row(name, "0", 0.0, 0.0, 0.0)
                continue
            count = int(record.get("count", record.get("value", 0)))
            table.add_row(
                name,
                f"{count}",
                float(record.get("mean", 0.0)),
                float(record.get("min") or 0.0),
                float(record.get("max") or 0.0),
            )
        hit_rate = self.model.metric_value(CACHE_HIT_RATE)
        table.add_row(CACHE_HIT_RATE, "-", 100.0 * hit_rate, "-", "-")
        return table

    def top_table(self, n: int = 10, by: str = "self") -> Table:
        """Convenience passthrough to :meth:`TraceModel.top`."""
        return self.model.top(n=n, by=by)
