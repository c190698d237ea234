"""Nestable spans and the tracer that records them.

A :class:`Span` covers one unit of work — a campaign, a case, a phase, a
single measurement — and knows its wall-clock duration, the simulated
time it advanced, and arbitrary structured attributes (chip id, case,
Vdd, temperature).  Spans nest: the tracer keeps a stack, so a phase
span started inside a case span records the case as its parent, giving
JSONL consumers the full ``campaign -> case -> phase -> measurement``
tree.

The default tracer is :data:`NULL_TRACER`, whose spans and metrics are
shared no-op objects: uninstrumented runs pay a bound-method call and
nothing else.  Tracers are not thread-safe; use one per worker.
"""

from __future__ import annotations

import time

from repro.obs.metrics import Counter, Gauge, MetricsRegistry, NULL_METRIC, NullMetric


class Span:
    """One timed unit of work, with attributes and a parent.

    Spans are context managers: entering starts the clock, exiting stops
    it and hands the finished span back to the tracer.  ``sim_advanced``
    (simulated seconds covered by the work) is an ordinary attribute set
    by instrumentation via :meth:`set`.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "depth",
        "attributes",
        "start",
        "duration",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: int | None,
        depth: int,
        attributes: dict,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.attributes = attributes
        self.start = 0.0
        self.duration = 0.0

    def set(self, key: str, value) -> None:
        """Attach (or overwrite) one structured attribute."""
        self.attributes[key] = value

    def incr(self, key: str, delta: float = 1.0) -> None:
        """Add ``delta`` to a numeric attribute (missing counts as 0)."""
        self.attributes[key] = self.attributes.get(key, 0) + delta

    @property
    def sim_advanced(self) -> float:
        """Simulated seconds this span advanced (0 if not recorded)."""
        return float(self.attributes.get("sim_advanced", 0.0))

    def __enter__(self) -> "Span":
        self.start = time.perf_counter() - self._tracer.epoch
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = (time.perf_counter() - self._tracer.epoch) - self.start
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        self._tracer._finish(self)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"duration={self.duration:.6f}s, attrs={self.attributes})"
        )


class _NullSpan:
    """Shared do-nothing span returned by the null tracer."""

    __slots__ = ()

    name = "null"
    span_id = -1
    parent_id = None
    depth = 0
    attributes: dict = {}
    start = 0.0
    duration = 0.0
    sim_advanced = 0.0

    def set(self, key: str, value) -> None:
        """Discard the attribute."""

    def incr(self, key: str, delta: float = 1.0) -> None:
        """Discard the increment."""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Records nested spans and owns the run's metrics registry.

    Parameters
    ----------
    exporter:
        Optional sink with ``span(dict)`` / ``metric(dict)`` / ``close()``
        methods (see :class:`repro.obs.exporter.JsonlExporter`).  Finished
        spans stream to it as they close; metrics are written on
        :meth:`close`.
    keep_spans:
        Keep finished spans in memory for querying (tests,
        :meth:`TraceModel.from_tracer <repro.obs.query.TraceModel.from_tracer>`).
        Disable for very long runs that only need the JSONL.
    """

    enabled = True

    def __init__(self, exporter=None, keep_spans: bool = True) -> None:
        self.exporter = exporter
        self.keep_spans = keep_spans
        self.metrics = MetricsRegistry()
        self.finished: list[Span] = []
        self.epoch = time.perf_counter()
        self._stack: list[Span] = []
        self._next_id = 1

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #

    def span(self, name: str, **attributes) -> Span:
        """A new span nested under the currently open one (if any)."""
        parent_id = self._stack[-1].span_id if self._stack else None
        span = Span(
            self,
            name,
            span_id=self._next_id,
            parent_id=parent_id,
            depth=len(self._stack),
            attributes=attributes,
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        self._record(span)

    def _record(self, span: Span) -> None:
        """Store and export one finished span."""
        if self.keep_spans:
            self.finished.append(span)
        if self.exporter is not None:
            self.exporter.span(
                {
                    "type": "span",
                    "name": span.name,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "depth": span.depth,
                    "start_s": round(span.start, 6),
                    "duration_s": round(span.duration, 6),
                    "attrs": span.attributes,
                }
            )

    def absorb(self, child: "Tracer") -> None:
        """Fold a finished worker tracer into this one.

        The child's spans are renumbered onto this tracer's id sequence,
        its root spans are re-parented under the currently open span (if
        any), depths shift accordingly, and start times are rebased from
        the child's epoch to this one's, so the merged trace reads as one
        consistent tree.  Counters accumulate; gauges take the child's
        value.

        Only call this after the child has finished every span (tracers
        are not thread-safe); absorbing workers in a fixed order keeps
        the merged trace deterministic however they were scheduled.
        """
        parent = self._stack[-1] if self._stack else None
        depth_offset = len(self._stack)
        epoch_offset = child.epoch - self.epoch
        id_map: dict[int, int] = {}
        # Children finish before their parents, so ids are assigned in a
        # first pass and parent links rewritten in a second.
        for span in child.finished:
            id_map[span.span_id] = self._next_id
            self._next_id += 1
        for span in child.finished:
            span.span_id = id_map[span.span_id]
            if span.parent_id is not None and span.parent_id in id_map:
                span.parent_id = id_map[span.parent_id]
            else:
                span.parent_id = parent.span_id if parent is not None else None
            span.depth += depth_offset
            span.start += epoch_offset
            span._tracer = self
            self._record(span)
        child.finished = []
        self.metrics.merge(child.metrics)

    def interval(
        self, name: str, started: float, finished: float, child: "Tracer | None" = None,
        **attributes,
    ) -> None:
        """Record a span over work already done, nested under the open span.

        ``started`` and ``finished`` are ``time.perf_counter()`` readings;
        a finished ``child`` tracer, if given, is absorbed beneath the new
        span.  This folds in work timed elsewhere (a forked worker) in
        whatever order the caller chooses, with the ids and nesting the
        work would have got inside ``with tracer.span(name):``.
        """
        span = self.span(name, **attributes)
        if child is not None:
            self.absorb(child)
        span.start = started - self.epoch
        span.duration = finished - started
        self._finish(span)

    @property
    def current(self) -> Span | None:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def spans(self, name: str | None = None) -> list[Span]:
        """Finished spans, optionally only those called ``name``."""
        if name is None:
            return list(self.finished)
        return [span for span in self.finished if span.name == name]

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #

    def counter(self, name: str, description: str = "") -> Counter:
        """Get-or-create a counter on this tracer's registry."""
        return self.metrics.counter(name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        """Get-or-create a gauge on this tracer's registry."""
        return self.metrics.gauge(name, description)

    def close(self) -> None:
        """Flush metrics to the exporter (if any) and close it."""
        if self.exporter is not None:
            for record in self.metrics.records():
                self.exporter.metric(record)
            self.exporter.close()
            self.exporter = None


class NullTracer:
    """Disabled tracer: every operation is a shared no-op.

    The instrumented hot paths hold a reference to either a real
    :class:`Tracer` or this object; the disabled cost is one attribute
    load plus a method call that immediately returns.
    """

    enabled = False
    metrics = MetricsRegistry()  # always empty; null metrics never register
    finished: list[Span] = []
    current = None

    def span(self, name: str, **attributes) -> _NullSpan:
        """The shared no-op span."""
        return _NULL_SPAN

    def interval(
        self, name: str, started: float, finished: float, child=None, **attributes
    ) -> None:
        """Record nothing."""

    def counter(self, name: str, description: str = "") -> NullMetric:
        """The shared no-op metric."""
        return NULL_METRIC

    def gauge(self, name: str, description: str = "") -> NullMetric:
        """The shared no-op metric."""
        return NULL_METRIC

    def spans(self, name: str | None = None) -> list[Span]:
        """Always empty."""
        return []

    def close(self) -> None:
        """Nothing to flush."""


#: The process-wide disabled tracer (also the default active tracer).
NULL_TRACER = NullTracer()

_active_tracer: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The currently active tracer (:data:`NULL_TRACER` by default)."""
    return _active_tracer


def set_tracer(tracer: Tracer | NullTracer | None) -> None:
    """Install ``tracer`` as the process default (``None`` resets)."""
    global _active_tracer
    _active_tracer = tracer if tracer is not None else NULL_TRACER


class use_tracer:
    """Context manager installing a tracer for the enclosed block::

        with use_tracer(Tracer()) as tracer:
            run_table1_campaign()
        TraceModel.from_tracer(tracer).top().print()
    """

    def __init__(self, tracer: Tracer | NullTracer) -> None:
        self.tracer = tracer
        self._previous: Tracer | NullTracer | None = None

    def __enter__(self) -> Tracer | NullTracer:
        self._previous = get_tracer()
        set_tracer(self.tracer)
        return self.tracer

    def __exit__(self, exc_type, exc, tb) -> None:
        set_tracer(self._previous)
