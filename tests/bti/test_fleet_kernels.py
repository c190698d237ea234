"""Argument checks of the batched trap kernels.

The fleet engines share the per-chip kernel's checks: a duty outside
``[0, 1]``, a negative duration or a strided chip span is a
:class:`ConfigurationError`, never a silent evolve.  The exact engine
also takes one duty per chip, and a span evolved that way matches its
chips evolved one by one.
"""

import numpy as np
import pytest

from repro.bti.fleet import BinnedFleetTraps, FleetTraps, TrapGrid, draw_population
from repro.bti.traps import CyclePhase, TrapParameters
from repro.errors import ConfigurationError
from repro.units import celsius, hours

PARAMS = TrapParameters(mean_trap_count=12.0)
N_OWNERS = 4
N_CHIPS = 3
HOT = celsius(110.0)


def chip_draws():
    rngs = np.random.default_rng(0).spawn(N_CHIPS)
    return [draw_population(PARAMS, N_OWNERS, rng) for rng in rngs]


def exact_fleet() -> FleetTraps:
    return FleetTraps(PARAMS, N_OWNERS, chip_draws())


def binned_fleet() -> BinnedFleetTraps:
    return BinnedFleetTraps(TrapGrid(PARAMS, n_classes=2), N_CHIPS)


def binned_args(k: int = N_CHIPS):
    return hours(1.0), np.full((k, 2), 1.2), np.full(k, HOT)


class TestBinnedFleetChecks:
    def test_duty_above_one_is_refused(self):
        fleet = binned_fleet()
        with pytest.raises(ConfigurationError, match="duty"):
            fleet.evolve(*binned_args(), duty=1.7)
        assert not np.any(fleet.occupancy)

    def test_per_chip_duty_is_refused(self):
        fleet = binned_fleet()
        with pytest.raises(ConfigurationError, match="one duty per span"):
            fleet.evolve(*binned_args(), duty=[0.5, 1.0, 0.5])
        assert not np.any(fleet.occupancy)

    def test_strided_chip_slice_is_refused(self):
        fleet = binned_fleet()
        with pytest.raises(ConfigurationError, match="contiguous"):
            fleet.evolve(*binned_args(2), chips=slice(0, 3, 2))
        assert not np.any(fleet.occupancy)

    def test_negative_duration_is_refused(self):
        with pytest.raises(ConfigurationError, match="duration"):
            binned_fleet().evolve(-1.0, *binned_args()[1:])


class TestExactFleetChecks:
    def test_bad_cycle_phase_is_refused(self):
        # The phase evolve_cycles takes validates itself: a negative
        # duration and a duty of 3 never reach the kernel.
        with pytest.raises(ConfigurationError):
            CyclePhase(
                duration=-5.0,
                stress_voltage=np.full((N_CHIPS, N_OWNERS), 1.2),
                temperature=np.full(N_CHIPS, HOT),
                duty=3.0,
            )

    def test_duty_above_one_is_refused(self):
        fleet = exact_fleet()
        with pytest.raises(ConfigurationError, match="duty"):
            fleet.evolve(hours(1.0), np.full((N_CHIPS, N_OWNERS), 1.2),
                         np.full(N_CHIPS, HOT), duty=1.7)

    def test_wrong_voltage_shape_is_refused(self):
        fleet = exact_fleet()
        with pytest.raises(ConfigurationError, match="broadcast"):
            fleet.evolve(hours(1.0), np.full((N_CHIPS, N_OWNERS + 1), 1.2),
                         np.full(N_CHIPS, HOT))

    def test_cycles_on_a_span_match_repeated_evolves(self):
        phases = [
            CyclePhase(hours(1.0), np.full((2, N_OWNERS), 1.2), np.full(2, HOT),
                       duty=0.5),
            CyclePhase(hours(0.5), -0.3, HOT),
        ]
        closed, looped = exact_fleet(), exact_fleet()
        closed.evolve_cycles(phases, 20, chips=slice(1, 3))
        for _ in range(20):
            for phase in phases:
                looped.evolve(phase.duration, phase.stress_voltage, phase.temperature,
                              duty=phase.duty, v_relax=phase.relax_voltage,
                              chips=slice(1, 3))
        np.testing.assert_allclose(closed.occupancy, looped.occupancy,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(closed.elapsed, looped.elapsed, rtol=1e-12)
        assert closed.elapsed[0] == 0.0


class TestPerChipDuty:
    DUTY = [0.5, 1.0, 0.25]
    STRESS = np.array([[1.2, 1.1, 0.0, 1.25], [-0.3] * N_OWNERS, [1.0, 0.0, 1.2, 0.9]])
    TEMPS = np.array([HOT, celsius(85.0), celsius(125.0)])

    def one_chip_fleets(self) -> list[FleetTraps]:
        return [FleetTraps(PARAMS, N_OWNERS, [draws]) for draws in chip_draws()]

    def test_span_evolve_equals_one_chip_evolves(self):
        span = exact_fleet()
        singles = self.one_chip_fleets()
        for duration in (hours(2.0), hours(0.5)):
            span.evolve(duration, self.STRESS, self.TEMPS, duty=self.DUTY, v_relax=-0.1)
            for i, single in enumerate(singles):
                single.evolve(duration, self.STRESS[i], self.TEMPS[i], duty=self.DUTY[i],
                              v_relax=-0.1)
        assert span.occupancy.tobytes() == b"".join(s.occupancy.tobytes() for s in singles)
        assert span.elapsed.tobytes() == b"".join(s.elapsed.tobytes() for s in singles)

    def test_span_cycles_equal_one_chip_cycles(self):
        span = exact_fleet()
        singles = self.one_chip_fleets()
        span.evolve_cycles(
            [
                CyclePhase(hours(1.0), self.STRESS, self.TEMPS, duty=self.DUTY),
                CyclePhase(hours(0.25), -0.3, HOT, duty=np.array(self.DUTY[::-1])),
            ],
            40,
        )
        for i, single in enumerate(singles):
            single.evolve_cycles(
                [
                    CyclePhase(hours(1.0), self.STRESS[i], self.TEMPS[i], duty=self.DUTY[i]),
                    CyclePhase(hours(0.25), -0.3, HOT, duty=self.DUTY[::-1][i]),
                ],
                40,
            )
        assert span.occupancy.tobytes() == b"".join(s.occupancy.tobytes() for s in singles)

    @pytest.mark.parametrize(
        "duty, match",
        [
            ([0.5, 1.0], r"shape \(3,\)"),
            ([[0.5, 1.0, 0.25]], "shape"),
            ([0.5, 1.5, 0.25], r"\[0, 1\]"),
            ([0.5, float("nan"), 0.25], r"\[0, 1\]"),
        ],
    )
    def test_bad_duty_is_refused_by_evolve(self, duty, match):
        fleet = exact_fleet()
        with pytest.raises(ConfigurationError, match=match):
            fleet.evolve(hours(1.0), self.STRESS, self.TEMPS, duty=duty)
        assert not np.any(fleet.occupancy) and not np.any(fleet.elapsed)

    @pytest.mark.parametrize(
        "duty",
        [[[0.5, 1.0, 0.25]], [0.5, 1.5, 0.25], [0.5, float("nan"), 0.25]],
    )
    def test_bad_duty_is_refused_by_cycle_phase(self, duty):
        with pytest.raises(ConfigurationError, match="duty"):
            CyclePhase(hours(1.0), self.STRESS, self.TEMPS, duty=duty)

    def test_duty_of_another_span_is_refused_by_evolve_cycles(self):
        fleet = exact_fleet()
        phase = CyclePhase(hours(1.0), 1.2, HOT, duty=[0.5, 1.0])
        with pytest.raises(ConfigurationError, match=r"shape \(3,\)"):
            fleet.evolve_cycles([phase], 5)
        assert not np.any(fleet.occupancy)
