"""Pinned trap-kernel outputs the campaign golden digests do not cover.

``tests/lab/test_campaign_golden.py`` pins the per-chip Table-1
campaign, which never touches the binned fleet kernel or the N-cycle
closed form.  The values here pin both, plus an exact fleet driven on an
offset chip span with per-chip temperatures, so a refactor of the trap
physics that keeps them keeps every engine's numbers.
"""

import hashlib

import numpy as np
import pytest

from repro.fpga.chip import CycleSegment, FpgaChip
from repro.fpga.fleet import FleetChip
from repro.fpga.ring_oscillator import StressMode
from repro.lab.fleet import run_fleet_campaign
from repro.units import celsius, hours

#: Seed-0 ten-chip binned lot, summary collection: digest of the summaries.
BINNED_SUMMARY_DIGEST = "467fda1660fcd35c"
BINNED_MEASUREMENTS = 1244

#: ``FpgaChip(seed=5).apply_cycles`` (DC active + -0.3 V sleep, n=1000).
CYCLES_STATE_DIGEST = "2ca4931a61a89efd"


def digest(text: bytes) -> str:
    return hashlib.sha256(text).hexdigest()[:16]


def state_digest(state: dict) -> str:
    parts = []
    for key in sorted(state):
        parts.append(key.encode())
        parts.append(np.asarray(state[key], dtype=float).tobytes())
    return digest(b"".join(parts))


class TestBinnedLotPin:
    def test_seed0_ten_chip_summary_digest(self):
        result = run_fleet_campaign(
            seed=0, n_chips=10, fidelity="binned", collect="summary"
        )
        assert result.fidelity == "binned"
        assert result.total_measurements == BINNED_MEASUREMENTS
        text = "".join(repr(summary) for summary in result.summaries)
        assert digest(text.encode()) == BINNED_SUMMARY_DIGEST


class TestCycleClosedFormPin:
    def test_apply_cycles_occupancy_digest(self):
        chip = FpgaChip("chip-1", seed=5)
        segments = [
            CycleSegment.active(hours(1.0), celsius(110.0)),
            CycleSegment.sleep(hours(0.25), celsius(110.0), supply_voltage=-0.3),
        ]
        chip.apply_cycles(segments, 1000)
        assert chip.elapsed == pytest.approx(1000 * hours(1.25))
        assert state_digest(chip.export_state()) == CYCLES_STATE_DIGEST


SEEDS = (11, 12, 13)


def assert_rows_equal(fleet: FleetChip, index: int, chip: FpgaChip) -> None:
    view = fleet.view(index)
    assert view.elapsed == chip.elapsed
    assert view.path_delay() == chip.path_delay()
    np.testing.assert_array_equal(view.delta_vth(), chip.delta_vth())
    exported, expected = view.export_state(), chip.export_state()
    assert exported.keys() == expected.keys()
    for key in expected:
        np.testing.assert_array_equal(exported[key], expected[key])


class TestOffsetSpanBitIdentity:
    """A 3-chip exact fleet driven on ``chips=slice(1, 3)``."""

    def test_offset_span_rows_match_standalone_chips(self):
        ids = [f"chip-{i + 1}" for i in range(len(SEEDS))]
        fleet = FleetChip(ids, list(SEEDS))
        chips = [FpgaChip(chip_id, seed=seed) for chip_id, seed in zip(ids, SEEDS)]
        span = slice(1, 3)
        temps = np.array([celsius(100.0), celsius(110.0)])
        supplies = np.array([1.2, 1.1])

        fleet.apply_stress(hours(2.0), temps, supplies, mode=StressMode.DC,
                           chain_input=0, chips=span)
        for chip, temp, supply in zip(chips[1:], temps, supplies):
            chip.apply_stress(hours(2.0), float(temp), supply_voltage=float(supply),
                              mode=StressMode.DC, chain_input=0)

        fleet.apply_stress(hours(1.5), temps[::-1].copy(), supplies, mode=StressMode.AC,
                           chips=span)
        for chip, temp, supply in zip(chips[1:], temps[::-1], supplies):
            chip.apply_stress(hours(1.5), float(temp), supply_voltage=float(supply),
                              mode=StressMode.AC)

        fleet.apply_recovery(hours(0.5), temps, np.array([-0.3, 0.0]), chips=span)
        for chip, temp, supply in zip(chips[1:], temps, (-0.3, 0.0)):
            chip.apply_recovery(hours(0.5), float(temp), supply_voltage=supply)

        for index in (1, 2):
            segments = [
                CycleSegment.active(hours(1.0), celsius(90.0 + 10.0 * index)),
                CycleSegment.active(hours(0.5), celsius(100.0), mode=StressMode.AC),
                CycleSegment.sleep(hours(0.25), celsius(110.0), supply_voltage=-0.3),
            ]
            fleet.view(index).apply_cycles(segments, 40)
            chips[index].apply_cycles(segments, 40)

        for index, chip in enumerate(chips):
            assert_rows_equal(fleet, index, chip)
        # the untouched chip is still fresh
        assert fleet.view(0).elapsed == 0.0
        assert not np.any(fleet.view(0).delta_vth())
