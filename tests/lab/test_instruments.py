"""Virtual instruments: chamber, supply, reference clock."""

import numpy as np
import pytest

from repro.errors import InstrumentError
from repro.lab.fleet import FleetBench
from repro.lab.power_supply import DcPowerSupply
from repro.lab.thermal_chamber import ThermalChamber
from repro.units import celsius


class TestThermalChamber:
    def test_default_room_temperature(self):
        assert ThermalChamber().setpoint_celsius == pytest.approx(20.0)

    def test_setpoint_programming(self):
        chamber = ThermalChamber()
        chamber.set_temperature_celsius(110.0)
        assert chamber.setpoint == pytest.approx(celsius(110.0))

    def test_fluctuation_within_spec(self, rng):
        chamber = ThermalChamber(fluctuation_c=0.3)
        chamber.set_temperature_celsius(110.0)
        temps = [chamber.actual_temperature(rng) for _ in range(500)]
        deviations = np.abs(np.array(temps) - celsius(110.0))
        assert deviations.max() <= 0.3 + 1e-12

    def test_range_enforced(self):
        chamber = ThermalChamber(min_c=-60.0, max_c=150.0)
        with pytest.raises(InstrumentError):
            chamber.set_temperature_celsius(200.0)
        with pytest.raises(InstrumentError):
            chamber.set_temperature_celsius(-80.0)

    def test_invalid_construction(self):
        with pytest.raises(InstrumentError):
            ThermalChamber(fluctuation_c=-0.1)
        with pytest.raises(InstrumentError):
            ThermalChamber(min_c=100.0, max_c=0.0)


class TestDcPowerSupply:
    def test_default_nominal(self):
        assert DcPowerSupply().setpoint == pytest.approx(1.2)

    def test_negative_rail_supported(self):
        supply = DcPowerSupply()
        supply.set_voltage(-0.3)
        assert supply.setpoint == -0.3

    def test_range_enforced(self):
        supply = DcPowerSupply()
        with pytest.raises(InstrumentError):
            supply.set_voltage(2.0)
        with pytest.raises(InstrumentError):
            supply.set_voltage(-1.0)

    def test_output_disable_gives_exact_zero(self, rng):
        supply = DcPowerSupply()
        supply.disable_output()
        assert supply.actual_voltage(rng) == 0.0
        assert not supply.output_enabled

    def test_accuracy_within_spec(self, rng):
        supply = DcPowerSupply(accuracy_volts=1e-3)
        supply.set_voltage(1.2)
        volts = [supply.actual_voltage(rng) for _ in range(200)]
        assert max(abs(v - 1.2) for v in volts) <= 1e-3 + 1e-12

    def test_enable_after_disable(self, rng):
        supply = DcPowerSupply()
        supply.disable_output()
        supply.enable_output()
        assert supply.actual_voltage(rng) != 0.0


class TestClockGenerator:
    """The paper's 500 Hz reference clock is the bench counter's ``fref``."""

    def test_default_paper_reference(self, small_chip):
        assert FleetBench(small_chip._fleet, [None]).counter.fref == 500.0
