"""Span invariance: a chip's trajectory does not depend on its fleet span.

An :class:`~repro.fpga.chip.FpgaChip` is a view of a one-chip exact
:class:`~repro.fpga.fleet.FleetChip`, so the fleet engine's contract is
that driving three chips as one span of a three-chip fleet gives each of
them, bit for bit, what three standalone chips built from the same seeds
get: the same trap state, the same observables or the same exception,
and the same per-chip counters.  Property-style: one randomised
operation tape is replayed against both.
"""

import numpy as np
import pytest

from repro.errors import ChipDropoutError, FleetDropoutError, PhysicsViolationError
from repro.fpga.chip import CycleSegment, FpgaChip
from repro.fpga.fleet import FleetChip
from repro.fpga.ring_oscillator import StressMode
from repro.guard import Guard, GuardConfig
from repro.obs import Tracer
from repro.units import celsius, hours

CHIP_IDS = ("chip-1", "chip-2", "chip-3")
SEEDS = (123, 124, 125)
#: Per-chip offsets of the delivered temperature (K) and stress supply (V).
TEMPERATURE_OFFSETS = np.array([0.0, 3.0, -2.0])
SUPPLY_OFFSETS = np.array([0.0, -0.02, 0.01])


def guard(mode: str) -> Guard:
    return Guard(GuardConfig(mode=mode, dump_dir=None))


def make_pair(guard_mode: str = "raise"):
    """A three-chip fleet and three standalone chips, each with a tracer."""
    fleet = FleetChip(
        list(CHIP_IDS), list(SEEDS), guard=guard(guard_mode), tracer=Tracer()
    )
    tracer = Tracer()
    chips = [
        FpgaChip(chip_id, seed=seed, guard=guard(guard_mode), tracer=tracer)
        for chip_id, seed in zip(CHIP_IDS, SEEDS)
    ]
    return fleet, chips, tracer


def random_tape(seed: int, n_ops: int = 12):
    """A deterministic random sequence of chip operations."""
    rng = np.random.default_rng(seed)
    tape = []
    for _ in range(n_ops):
        op = rng.choice(["stress_dc", "stress_ac", "recover", "cycles"])
        duration = hours(float(rng.uniform(0.1, 3.0)))
        temperature = celsius(float(rng.uniform(20.0, 110.0)))
        if op == "stress_dc":
            tape.append(("stress", duration, temperature, 1.2, StressMode.DC,
                         int(rng.integers(0, 2))))
        elif op == "stress_ac":
            tape.append(("stress", duration, temperature, 1.1, StressMode.AC, 1))
        elif op == "recover":
            voltage = float(rng.choice([0.0, -0.3]))
            tape.append(("recover", duration, temperature, voltage))
        else:
            tape.append(("cycles", duration, temperature, int(rng.integers(2, 6))))
    return tape


def segments(duration: float, temperature: float):
    return [
        CycleSegment.active(duration, temperature),
        CycleSegment.sleep(duration / 4.0, temperature, supply_voltage=-0.3),
    ]


def replay(fleet: FleetChip, chips, tape) -> None:
    """Drive the whole fleet as one span, and each standalone chip alone."""
    for entry in tape:
        if entry[0] == "stress":
            _, duration, temperature, supply, mode, chain = entry
            temperatures = temperature + TEMPERATURE_OFFSETS
            supplies = supply + SUPPLY_OFFSETS
            fleet.apply_stress(duration, temperatures, supplies, mode=mode,
                               chain_input=chain)
            for chip, kelvin, volts in zip(chips, temperatures, supplies):
                chip.apply_stress(duration, float(kelvin), supply_voltage=float(volts),
                                  mode=mode, chain_input=chain)
        elif entry[0] == "recover":
            _, duration, temperature, voltage = entry
            temperatures = temperature + TEMPERATURE_OFFSETS
            fleet.apply_recovery(duration, temperatures, voltage)
            for chip, kelvin in zip(chips, temperatures):
                chip.apply_recovery(duration, float(kelvin), supply_voltage=voltage)
        else:
            _, duration, temperature, n = entry
            fleet.apply_cycles(segments(duration, temperature), n)
            for chip in chips:
                chip.apply_cycles(segments(duration, temperature), n)


def assert_states_equal(fleet: FleetChip, chips) -> None:
    np.testing.assert_array_equal(fleet.path_delays(), [c.path_delay() for c in chips])
    np.testing.assert_array_equal(fleet.delta_vth_all(), [c.delta_vth() for c in chips])
    for index, chip in enumerate(chips):
        view = fleet.view(index)
        assert view.chip_id == chip.chip_id
        assert view.elapsed == chip.elapsed
        np.testing.assert_array_equal(view.delta_vth(), chip.delta_vth())
        assert view.path_delay() == chip.path_delay()
        assert view.oscillation_frequency() == chip.oscillation_frequency()
        a, b = chip.export_state(), view.export_state()
        assert a.keys() == b.keys()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])


def outcome(read):
    """A read's value, or its exception type and contract."""
    try:
        return read()
    except PhysicsViolationError as error:
        return type(error), error.contract


class TestFacadeEquivalence:
    def test_fresh_state_identical(self):
        fleet, chips, _ = make_pair()
        for index, chip in enumerate(chips):
            view = fleet.view(index)
            assert view.fresh_path_delay == chip.fresh_path_delay
            assert view.n_owners == chip.n_owners
        assert_states_equal(fleet, chips)

    @pytest.mark.parametrize("tape_seed", [0, 1, 2])
    def test_random_tape_bit_identical(self, tape_seed):
        fleet, chips, tracer = make_pair()
        replay(fleet, chips, random_tape(tape_seed))
        assert_states_equal(fleet, chips)
        for name in ("bti.trap_updates", "bti.cycles_compressed"):
            assert fleet.tracer.metrics.value(name) == tracer.metrics.value(name)

    def test_apply_cycles_counts_per_chip(self):
        fleet, chips, tracer = make_pair()
        fleet.apply_cycles(segments(hours(1.0), celsius(110.0)), 50)
        for chip in chips:
            chip.apply_cycles(segments(hours(1.0), celsius(110.0)), 50)
        assert_states_equal(fleet, chips)
        for name in ("bti.trap_updates", "bti.cycles_compressed"):
            assert fleet.tracer.metrics.value(name) == tracer.metrics.value(name) > 0

    @pytest.mark.parametrize("mode", ["raise", "clamp", "off"])
    def test_guard_modes_agree(self, mode):
        fleet, chips, _ = make_pair(guard_mode=mode)
        replay(fleet, chips, random_tape(4, n_ops=6))
        assert_states_equal(fleet, chips)
        assert fleet.guard.violations == sum(c.guard.violations for c in chips) == 0

    def test_injected_upset_identical_through_both_surfaces(self):
        for mode in ("raise", "clamp", "off"):
            fleet, chips, _ = make_pair(guard_mode=mode)
            replay(fleet, chips, random_tape(5, n_ops=3))
            fleet.inject_trap_upset_chip(1, float("nan"), n_traps=32)
            chips[1].inject_trap_upset(float("nan"), n_traps=32)
            a, b = chips[1].export_state(), fleet.export_chip_state(1)
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])
            # The observable right after the upset: the same delay or the
            # same violation, whether the chip is read alone, through its
            # view or as part of the span.
            expected = outcome(chips[1].path_delay)
            assert outcome(fleet.view(1).path_delay) == expected
            assert fleet.guard.violations == chips[1].guard.violations
            span = outcome(fleet.path_delays)
            if isinstance(expected, tuple):
                assert span == expected
                assert expected[1] == ("device.dvth" if mode == "off" else "device.delta_vth")
            else:
                assert mode == "clamp" and np.isfinite(expected)
                assert span[1] == expected

    def test_state_roundtrip_across_surfaces(self):
        # A state exported from a standalone chip imports into its fleet
        # position (and back) — the checkpoint path works unmodified.
        fleet, chips, _ = make_pair()
        for chip in chips:
            chip.apply_stress(hours(2.0), celsius(110.0))
        for index, chip in enumerate(chips):
            fleet.import_chip_state(index, chip.export_state())
        assert_states_equal(fleet, chips)
        fleet.apply_recovery(hours(1.0), celsius(20.0), -0.3)
        for index, chip in enumerate(chips):
            chip.import_state(fleet.view(index).export_state())
        assert_states_equal(fleet, chips)

    def test_snapshot_restore_and_reset(self):
        fleet, chips, _ = make_pair()
        replay(fleet, chips, random_tape(9, n_ops=4))
        views = [fleet.view(index) for index in range(len(chips))]
        snapshots = [view.snapshot() for view in views]
        fleet.apply_stress(hours(5.0), celsius(110.0), 1.2)
        for view, snapshot in zip(views, snapshots):
            view.restore(snapshot)
        assert_states_equal(fleet, chips)
        views[1].reset()
        chips[1].reset()
        assert_states_equal(fleet, chips)
        assert fleet.view(1).elapsed == 0.0
        assert not np.any(fleet.view(1).delta_vth())


class TestPerChipGuardBudgets:
    """One guard per chip: an exhausted budget drops that chip alone."""

    def test_dropped_chip_stops_where_it_would_alone(self):
        def budget():
            return Guard(GuardConfig(mode="clamp", violation_budget=0, dump_dir=None))

        fleet = FleetChip(list(CHIP_IDS), list(SEEDS), guard=[budget() for _ in SEEDS])
        chips = [FpgaChip(c, seed=s, guard=budget()) for c, s in zip(CHIP_IDS, SEEDS)]
        fleet.inject_trap_upset_chip(1, float("nan"))
        chips[1].inject_trap_upset(float("nan"))
        temperatures = celsius(110.0) + TEMPERATURE_OFFSETS
        with pytest.raises(FleetDropoutError) as dropped:
            fleet.apply_stress(hours(1.0), temperatures, 1.2)
        assert set(dropped.value.errors) == {1}
        for index, chip in enumerate(chips):
            if index == 1:
                with pytest.raises(ChipDropoutError):
                    chip.apply_stress(hours(1.0), temperatures[index], 1.2)
            else:
                chip.apply_stress(hours(1.0), temperatures[index], 1.2)
            # The struck chip keeps the state its failing check left (its
            # pMOS repaired, its nMOS untouched, its clock stopped).
            a, b = chip.export_state(), fleet.export_chip_state(index)
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])
        assert fleet.elapsed[1] == 0.0
        assert "budget exhausted" in str(dropped.value)
