"""JSONL export of spans and metrics, and the matching loader.

The trace file is one JSON object per line, written as spans finish so a
crash still leaves a usable prefix.  Two record types share the stream:

``{"type": "span", "name", "span_id", "parent_id", "depth",
   "start_s", "duration_s", "attrs": {...}}``
    One finished span.  ``start_s`` is seconds since the tracer was
    created; ``parent_id`` is ``null`` for root spans.

``{"type": "metric", "name", "kind", "value"}``
    One counter or gauge, appended when the tracer is closed.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import MeasurementError


def _jsonable(value):
    """Coerce numpy scalars and other oddballs into JSON-safe values."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


class JsonlExporter:
    """Streams span/metric dicts to a JSON-lines file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        try:
            self._handle = open(self.path, "w")
        except OSError as error:
            raise MeasurementError(
                f"cannot open trace file {self.path}: {error}"
            ) from error
        self.n_lines = 0

    def _write(self, payload: dict) -> None:
        if self._handle is None:
            raise MeasurementError(f"trace exporter {self.path} is already closed")
        if "attrs" in payload:
            payload = dict(payload)
            payload["attrs"] = {
                key: _jsonable(val) for key, val in payload["attrs"].items()
            }
        self._handle.write(json.dumps(payload) + "\n")
        self.n_lines += 1

    def span(self, payload: dict) -> None:
        """Append one finished-span record."""
        self._write(payload)

    def metric(self, payload: dict) -> None:
        """Append one metric record."""
        self._write(payload)

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def load_trace(path: str | Path) -> list[dict]:
    """Parse a JSONL trace file back into a list of dicts.

    Raises :class:`~repro.errors.MeasurementError` with the file path and
    line number on malformed lines.
    """
    records: list[dict] = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise MeasurementError(
                    f"{path}:{line_no}: malformed trace line ({error})"
                ) from error
    return records

