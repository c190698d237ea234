"""On-chip aging sensors: the silicon-odometer RO pair.

Reactive recovery (paper Sec. 2.2) "needs to track changing threshold
voltages" — on real silicon that is done with an odometer-style sensor
(paper refs [7, 8]): two small ring oscillators, one *stressed* alongside
the mission logic and one *reference* kept power-gated except during
readouts.  The fractional beat between their frequencies estimates the
accumulated degradation without knowing the fresh frequency of either.

:class:`SiliconOdometer` is a self-contained virtual instrument: the
testbench (or any caller) mirrors the chip's bias history into
:meth:`experience`, and :meth:`measure` returns the degradation estimate
with realistic counter quantisation.  The reference RO is *not* perfectly
fresh — it ages a little during every readout burst — so the sensor has a
small, honest tracking error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.device.technology import TechnologyParameters, TECH_40NM
from repro.device.variation import ProcessVariation
from repro.errors import ConfigurationError
from repro.fpga.counter import ReadoutCounter
from repro.fpga.fleet import FleetChip
from repro.fpga.ring_oscillator import RingOscillator, StressMode
from repro.units import celsius


@dataclass(frozen=True)
class OdometerReading:
    """One sensor readout.

    ``degradation`` is the fractional frequency loss estimate
    ``(f_ref - f_stressed) / f_ref``; ``delay_shift_estimate`` converts it
    to a path-delay shift using the stressed RO's measured period.
    """

    stressed_frequency: float
    reference_frequency: float
    degradation: float
    delay_shift_estimate: float
    timestamp: float


class SiliconOdometer:
    """A stressed/reference RO pair measuring in-situ aging.

    Parameters
    ----------
    n_stages:
        Length of each sensor RO (small: sensors are meant to be cheap).
    tech:
        Process; defaults to the same 40 nm parameters as the mission
        chip so the sensor ages representatively.
    readout_overhead:
        Seconds both ROs run per readout (the reference's only stress).
    seed:
        Seeds both RO instances; they share process variation statistics
        but not the exact draw — as adjacent but distinct circuits do.
    """

    def __init__(
        self,
        n_stages: int = 15,
        tech: TechnologyParameters = TECH_40NM,
        readout_overhead: float = 3.0,
        counter: ReadoutCounter | None = None,
        seed: int | None = None,
    ) -> None:
        if readout_overhead < 0.0:
            raise ConfigurationError("readout_overhead must be non-negative")
        master = np.random.default_rng(seed)
        seed_a, seed_b = (int(s.integers(2**31)) for s in master.spawn(2))
        # The RO pair is laid out matched and adjacent (common-centroid),
        # so it sees far less mismatch than two arbitrary chips would.
        variation = ProcessVariation(
            chip_vth_sigma=0.002, chip_delay_sigma=0.004, local_delay_sigma=0.01
        )
        self._pair = FleetChip(
            ["odometer-stressed", "odometer-reference"], [seed_a, seed_b],
            n_stages=n_stages, tech=tech, variation=variation,
        )
        self._stressed, self._reference = self._pair.view(0), self._pair.view(1)
        self._stressed_ro = RingOscillator(self._stressed, counter)
        self._reference_ro = RingOscillator(self._reference, counter)
        self.readout_overhead = readout_overhead
        self.tech = tech

    @property
    def elapsed(self) -> float:
        """Simulated seconds the sensor has lived through."""
        return self._stressed.elapsed

    def experience(
        self,
        duration: float,
        temperature: float,
        supply_voltage: float,
        mode: StressMode = StressMode.DC,
    ) -> None:
        """Mirror the mission logic's bias history into the sensor.

        The stressed RO sees whatever the chip sees; the reference RO sits
        power-gated (0 V) at the same temperature, so it only passively
        recovers between readouts.
        """
        if supply_voltage > 0.0:
            self._stressed.apply_stress(
                duration, temperature=temperature,
                supply_voltage=supply_voltage, mode=mode,
            )
        else:
            self._stressed.apply_recovery(
                duration, temperature=temperature, supply_voltage=supply_voltage
            )
        self._reference.apply_recovery(duration, temperature=temperature)

    def true_degradation(self) -> float:
        """Ground-truth fractional degradation of the stressed RO.

        Available only on the virtual bench — real silicon has no oracle;
        tests use it to bound the sensor's tracking error.
        """
        fresh = 1.0 / (2.0 * self._stressed.fresh_path_delay)
        return 1.0 - self._stressed.oscillation_frequency() / fresh

    def measure(
        self,
        temperature: float,
        rng: np.random.Generator | int | None = None,
    ) -> OdometerReading:
        """Wake both ROs, count both frequencies, estimate degradation.

        The estimate is differential: it needs no stored fresh frequency,
        which is the odometer's practical advantage — but it inherits the
        (small) mismatch between the two ROs' fresh frequencies as a fixed
        offset, just like hardware.
        """
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        if self.readout_overhead > 0.0:
            self._pair.apply_stress(
                self.readout_overhead, temperature, self.tech.vdd_nominal, mode=StressMode.AC
            )
        stressed = self._stressed_ro.measure_averaged(3, rng=rng)
        reference = self._reference_ro.measure_averaged(3, rng=rng)
        degradation = 1.0 - stressed.frequency / reference.frequency
        return OdometerReading(
            stressed_frequency=stressed.frequency,
            reference_frequency=reference.frequency,
            degradation=degradation,
            delay_shift_estimate=degradation * stressed.delay,
            timestamp=self._stressed.elapsed,
        )

    def calibrate(self, rng: np.random.Generator | int | None = None) -> float:
        """Fresh-pair offset: the reading a brand-new sensor reports.

        Measured once at time zero on hardware and subtracted from later
        readings; returns the offset so callers can do the same.
        """
        if self.elapsed > 0.0:
            raise ConfigurationError("calibrate the sensor before any stress")
        reading = self.measure(celsius(20.0), rng=rng)
        return reading.degradation
