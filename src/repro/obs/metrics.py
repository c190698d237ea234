"""Lightweight counters and gauges.

Metrics are deliberately simple: a :class:`Counter` accumulates a float
and a :class:`Gauge` holds the latest value.  A :class:`MetricsRegistry`
owns one instance per name.  Hot paths cache the metric object once at
construction time, so recording a sample is a single bound-method call —
and :data:`NULL_METRIC` makes that call a no-op when telemetry is off.
Ratios and per-case rates are computed from the counters when a trace is
read (:class:`~repro.obs.query.TraceModel`), not stored as metrics.
"""

from __future__ import annotations

from typing import Union

from repro.analysis.tables import Table
from repro.errors import ConfigurationError


class Counter:
    """A monotonically increasing sum (events, records, seconds...)."""

    __slots__ = ("name", "description", "value")

    kind = "counter"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0.0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value:g})"


class Gauge:
    """A point-in-time value (throughput, queue depth, temperature...)."""

    __slots__ = ("name", "description", "value")

    kind = "gauge"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the latest observation."""
        self.value = float(value)

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value:g})"


class NullMetric:
    """Counter and gauge stand-in whose :meth:`inc` and :meth:`set` do nothing."""

    __slots__ = ()

    name = "null"
    description = ""
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Discard the increment."""

    def set(self, value: float) -> None:
        """Discard the observation."""


#: The shared no-op metric handed out by the null tracer.
NULL_METRIC = NullMetric()

Metric = Union[Counter, Gauge]


class MetricsRegistry:
    """Get-or-create store of named metrics, queryable from tests."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def counter(self, name: str, description: str = "") -> Counter:
        """The counter called ``name``, created on first use."""
        return self._get_or_create(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        """The gauge called ``name``, created on first use."""
        return self._get_or_create(Gauge, name, description)

    def _get_or_create(self, cls: type, name: str, description: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, description)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ConfigurationError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        return metric

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Metric | None:
        """The metric called ``name``, or ``None`` if never recorded."""
        return self._metrics.get(name)

    def value(self, name: str, default: float = 0.0) -> float:
        """The current value of ``name`` (``default`` if absent)."""
        metric = self._metrics.get(name)
        return metric.value if metric is not None else default

    def snapshot(self) -> dict[str, float]:
        """Name -> value for every metric, sorted by name."""
        return {name: self._metrics[name].value for name in sorted(self._metrics)}

    def records(self) -> list[dict]:
        """Every metric as its JSONL trace record, sorted by name."""
        return [
            {"type": "metric", "name": name, "kind": metric.kind, "value": metric.value}
            for name, metric in sorted(self._metrics.items())
        ]

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one.

        Counters accumulate (sums add); gauges take the other registry's
        value (it is the more recent observation when workers are merged
        after they finish).  A name registered with a different kind in
        the two registries raises :class:`ConfigurationError`.
        """
        for name, metric in other._metrics.items():
            if metric.kind == "counter":
                self.counter(name, metric.description).inc(metric.value)
            else:
                self.gauge(name, metric.description).set(metric.value)

    def reset(self) -> None:
        """Drop every metric (a fresh run starts from zero)."""
        self._metrics.clear()

    def table(self, title: str = "Run metrics") -> Table:
        """Render every metric as an aligned text table."""
        table = Table(title, ["metric", "kind", "value", "description"], fmt="{:,.3f}")
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            table.add_row(name, metric.kind, metric.value, metric.description)
        return table
