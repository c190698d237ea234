"""Observability: spans, counters and run telemetry.

The simulator's answer to the paper's in-situ measurement discipline —
"you cannot heal what you cannot monitor" applies to virtual silicon's
performance just as it does to real silicon's aging.  The subsystem has
five pieces:

* :class:`Tracer` / :class:`Span` — nestable timed units of work
  (``campaign -> case -> phase -> measurement``) with wall-clock
  duration, simulated time advanced, and structured attributes; each
  ``case`` span also carries the ``samples`` and ``trap_updates``
  counter deltas of its run;
* :class:`Counter` / :class:`Gauge` in a :class:`MetricsRegistry` —
  RO evaluations, trap-state updates, records appended, throughput;
* :class:`JsonlExporter` / :func:`load_trace` — a streamed JSONL trace
  (span records as they finish, counter and gauge records on close)
  and its loader;
* :class:`~repro.obs.query.TraceModel` — the one reader of finished
  traces: span tree, top-N, per-phase profile, per-case throughput,
  flamegraph stacks, rollups and run-to-run diffs;
* :class:`ProgressReporter` — human-facing progress lines for
  multi-minute campaign runs.

The default tracer is :data:`NULL_TRACER`; uninstrumented runs pay a
no-op method call per event and nothing else (see
``benchmarks/bench_obs_overhead.py`` for the enforced budget).
"""

from repro.obs.exporter import JsonlExporter, load_trace
from repro.obs.metrics import Counter, Gauge, MetricsRegistry, NULL_METRIC, NullMetric
from repro.obs.progress import NULL_PROGRESS, ProgressReporter
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "JsonlExporter",
    "MetricsRegistry",
    "NULL_METRIC",
    "NULL_PROGRESS",
    "NULL_TRACER",
    "NullMetric",
    "NullTracer",
    "ProgressReporter",
    "Span",
    "Tracer",
    "get_tracer",
    "load_trace",
    "set_tracer",
    "use_tracer",
]
