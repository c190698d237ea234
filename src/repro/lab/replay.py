"""Replay: rebuild campaign analysis from an archived measurement log.

A campaign's CSV log is the durable artefact (the chips are transient
simulator state).  This module reconstructs a :class:`CampaignResult`-like
view from a log alone, deriving each chip's fresh delay from its first
recorded sample — which is why the campaign takes a time-zero reading of
every phase: the baseline burn-in's first sample *is* the fresh chip.
"""

from __future__ import annotations

from repro.errors import MeasurementError
from repro.lab.campaign import CampaignResult
from repro.lab.datalog import DataLog


def fresh_delays_from_log(log: DataLog) -> dict[str, float]:
    """Per-chip fresh delay inferred from the earliest record per chip.

    Raises :class:`MeasurementError` if any chip's earliest record is not
    a time-zero sample (phase_elapsed 0) — a log that starts mid-stress
    cannot anchor delay *changes*.
    """
    earliest: dict[str, object] = {}
    for record in log:
        current = earliest.get(record.chip_id)
        if current is None or record.timestamp < current.timestamp:
            earliest[record.chip_id] = record
    if not earliest:
        raise MeasurementError("the log holds no records")
    fresh: dict[str, float] = {}
    for chip_id, record in earliest.items():
        # Exact sentinel: time-zero samples are written as literal 0.0
        # and survive the CSV round trip bit-for-bit.
        if record.phase_elapsed != 0.0:  # repro: noqa[RPR003]
            raise MeasurementError(
                f"{chip_id}'s earliest record is mid-phase "
                f"(phase_elapsed={record.phase_elapsed}); cannot anchor a "
                "fresh delay"
            )
        fresh[chip_id] = record.delay
    return fresh


def result_from_log(log: DataLog) -> CampaignResult:
    """A :class:`CampaignResult` view over an archived log.

    Every series accessor that only needs the log and the fresh anchors
    works as on a fresh result; the model's final delays are not in a log.
    """
    return CampaignResult(log=log, fresh_delays=fresh_delays_from_log(log))


def result_from_csv(path) -> CampaignResult:
    """Load an archived campaign CSV and rebuild the analysis view."""
    return result_from_log(DataLog.read_csv(path))
