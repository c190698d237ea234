"""Virtual testbench: one chip on the campaign engine's instrument stack.

:class:`VirtualTestbench` is the one-chip facade of
:class:`~repro.lab.fleet.FleetBench`, which reproduces the paper's
measurement discipline: the delivered chamber temperature jitters within
+/-0.3 degC and is re-sampled every chunk; every sampling interval the
RO wakes for a ~3 s readout burst (the paper's "data sampling overhead
is less than 3 s"), which briefly AC-stresses the chip at nominal rail,
exactly as on hardware; each readout averages a few counter reads.
"""

from __future__ import annotations

import numpy as np

from repro.lab.clock_generator import ClockGenerator
from repro.lab.datalog import DataLog, MeasurementRecord
from repro.lab.fleet import FleetBench
from repro.lab.power_supply import DcPowerSupply
from repro.lab.schedule import TestPhase
from repro.lab.thermal_chamber import ThermalChamber


class VirtualTestbench:
    """One chip (an :class:`~repro.fpga.chip.FpgaChip`) under a thermal
    chamber, supply and readout chain.

    ``rng`` (a seed or generator) drives every noise source on the bench;
    the instruments, ``reads_per_sample``, ``sampling_overhead`` and
    ``tracer`` are :class:`~repro.lab.fleet.FleetBench`'s.  A chip that
    drops out (an exhausted guard budget) raises its error.
    """

    def __init__(
        self,
        chip,
        chamber: ThermalChamber | None = None,
        supply: DcPowerSupply | None = None,
        clock: ClockGenerator | None = None,
        reads_per_sample: int = 3,
        sampling_overhead: float = 3.0,
        rng: np.random.Generator | int | None = None,
        tracer=None,
    ) -> None:
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        fleet, self._index = chip._fleet, chip._index
        rngs = [None] * fleet.n_chips
        rngs[self._index] = rng
        self._bench = FleetBench(
            fleet,
            rngs,
            tracer=tracer,
            reads_per_sample=reads_per_sample,
            sampling_overhead=sampling_overhead,
            chamber=chamber,
            supply=supply,
            clock=clock,
        )
        self.chip = chip
        self.chamber = self._bench.chamber
        self.supply = self._bench.supply
        self.clock = self._bench.clock

    def _raise_dropout(self) -> None:
        error = self._bench.dropped.pop(self._index, None)
        if error is not None:
            raise error

    def take_sample(
        self, case: str, phase_label: str, phase_elapsed: float
    ) -> MeasurementRecord:
        """Wake the RO, average a few reads, and return the record."""
        log: list = []
        failure = self._bench.take_samples(
            phase_label, [self._index], {self._index: case}, {self._index: log}, phase_elapsed
        ).get(self._index)
        self._raise_dropout()
        if failure is not None:
            raise failure
        return log[0]

    def run_phase(self, phase: TestPhase, case: str, log: DataLog) -> None:
        """Execute one phase, recording samples into ``log``.

        A sample is taken at the start of the phase (time 0 — the paper's
        recovery figures anchor there) and after every sampling interval.
        """
        records: list = []
        try:
            self._bench.run_phase(phase, [self._index], [case], {self._index: records})
        finally:
            log.extend(records)
        self._raise_dropout()
