"""Measurement records and the campaign data log."""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.errors import MeasurementError


@dataclass(frozen=True)
class MeasurementRecord:
    """One RO readout taken during a campaign.

    Times are simulated seconds; ``phase_elapsed`` is relative to the start
    of the phase the sample was taken in (what the paper's per-figure time
    axes show).
    """

    chip_id: str
    case: str
    phase: str
    timestamp: float
    phase_elapsed: float
    count: int
    frequency: float
    delay: float
    temperature_c: float
    supply_voltage: float


class DataLog:
    """Append-only store of :class:`MeasurementRecord` with query helpers."""

    def __init__(self) -> None:
        self._records: list[MeasurementRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[MeasurementRecord]:
        return iter(self._records)

    def append(self, record: MeasurementRecord) -> None:
        """Add one record (records must arrive in time order per chip)."""
        self._records.append(record)

    def extend(self, records: Iterable[MeasurementRecord]) -> None:
        """Add many records."""
        self._records.extend(records)

    @classmethod
    def merge(cls, logs: Iterable["DataLog"]) -> "DataLog":
        """Concatenate shard logs into one.

        Ordering guarantee: the result is the *stable* concatenation of
        the shards — records keep their within-shard order, and every
        record of shard ``i`` precedes every record of shard ``i + 1``.
        Callers pick a canonical shard order (the Table-1 campaign merges
        every chip's baseline shard, then every chip's case shard, in chip
        order) so merged logs never depend on how the shards were produced.
        """
        merged = cls()
        for log in logs:
            merged._records.extend(log._records)
        return merged

    def filter(
        self,
        chip_id: str | None = None,
        case: str | None = None,
        phase: str | None = None,
    ) -> "DataLog":
        """New log holding only the records matching every given key."""
        selected = DataLog()
        for record in self._records:
            if chip_id is not None and record.chip_id != chip_id:
                continue
            if case is not None and record.case != case:
                continue
            if phase is not None and record.phase != phase:
                continue
            selected.append(record)
        return selected

    def cases(self) -> list[str]:
        """Distinct case names in insertion order."""
        seen: dict[str, None] = {}
        for record in self._records:
            seen.setdefault(record.case, None)
        return list(seen)

    def series(self, field: str = "delay") -> tuple[np.ndarray, np.ndarray]:
        """(phase_elapsed, value) arrays for plotting/fitting.

        ``field`` is any numeric attribute of :class:`MeasurementRecord`.
        """
        if not self._records:
            raise MeasurementError("the data log is empty")
        times = np.array([r.phase_elapsed for r in self._records])
        try:
            values = np.array([getattr(r, field) for r in self._records], dtype=float)
        except AttributeError:
            raise MeasurementError(f"records have no field {field!r}") from None
        return times, values

    def first(self) -> MeasurementRecord:
        """Earliest record in the log."""
        if not self._records:
            raise MeasurementError("the data log is empty")
        return self._records[0]

    def last(self) -> MeasurementRecord:
        """Latest record in the log."""
        if not self._records:
            raise MeasurementError("the data log is empty")
        return self._records[-1]

    def write_csv(self, path: str | Path) -> None:
        """Dump every record to a CSV file with a header row."""
        names = [f.name for f in fields(MeasurementRecord)]
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(names)
            for record in self._records:
                writer.writerow([getattr(record, name) for name in names])

    @classmethod
    def read_csv(cls, path: str | Path) -> "DataLog":
        """Load a log previously written by :meth:`write_csv`.

        Malformed files raise :class:`~repro.errors.MeasurementError`
        naming the file and the 1-based line number of the bad row, so a
        truncated or hand-edited log points at itself rather than dying
        with a bare ``KeyError``.  A file with no header row at all (empty,
        or data where the header should be) is refused too — ``DictReader``
        would otherwise yield nothing and silently return an empty log.
        """
        log = cls()
        expected = [f.name for f in fields(MeasurementRecord)]
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None:
                raise MeasurementError(
                    f"{path}: empty file — expected a header row "
                    f"{','.join(expected)}"
                )
            missing = [name for name in expected if name not in reader.fieldnames]
            if missing:
                raise MeasurementError(
                    f"{path}: header row is missing column(s) "
                    f"{', '.join(missing)} — not a DataLog CSV?"
                )
            # Header is line 1; DictReader rows start on line 2.
            for line_no, row in enumerate(reader, start=2):
                try:
                    record = MeasurementRecord(
                        chip_id=row["chip_id"],
                        case=row["case"],
                        phase=row["phase"],
                        timestamp=float(row["timestamp"]),
                        phase_elapsed=float(row["phase_elapsed"]),
                        count=int(row["count"]),
                        frequency=float(row["frequency"]),
                        delay=float(row["delay"]),
                        temperature_c=float(row["temperature_c"]),
                        supply_voltage=float(row["supply_voltage"]),
                    )
                except (KeyError, TypeError, ValueError) as error:
                    raise MeasurementError(
                        f"{path}:{line_no}: malformed measurement row "
                        f"({type(error).__name__}: {error})"
                    ) from error
                log.append(record)
        return log
