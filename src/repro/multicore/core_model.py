"""Per-core aging model: a critical path driven by the trap ensemble.

A core is abstracted as one representative critical path whose PMOS and
NMOS populations age with the same physics as the FPGA substrate.  While
the core runs, its devices see AC stress at the core supply and its local
die temperature; while it sleeps, they see the recovery bias the scheduler
chose (0 V for plain power gating, negative for accelerated self-healing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.bti.traps import CyclePhase, FleetTraps, TrapParameters, draw_population
from repro.errors import ConfigurationError, FleetDropoutError
from repro.units import nanoseconds

#: Trap count of one "device equivalent" — matches the per-transistor
#: population of the FPGA substrate so both share one calibration.
_REFERENCE_TRAPS_PER_DEVICE = 80.0


@dataclass(frozen=True)
class CoreParameters:
    """Electrical/thermal description of one core.

    ``delay_sensitivity`` maps average device dVth (volts) to relative
    critical-path slowdown per volt — the Eq. (6) factor
    ``1/(Vdd - Vth0)`` times the stressed fraction of the path.
    """

    fresh_path_delay: float = nanoseconds(0.5)  # ~2 GHz critical path
    supply_voltage: float = 1.2
    delay_sensitivity: float = 0.9
    active_power: float = 10.0  # watts while running
    sleep_power: float = 0.4  # watts while power gated
    # Overhead of the on-chip negative-voltage generator while it is in
    # use, as a fraction of active power (paper Sec. 6.1 cost note).
    negative_rail_overhead: float = 0.02
    nbti_traps: TrapParameters = field(
        default_factory=lambda: TrapParameters(mean_trap_count=600.0)
    )
    pbti_traps: TrapParameters = field(
        default_factory=lambda: TrapParameters(
            mean_trap_count=420.0, impact_mean_volts=2.56e-3
        )
    )

    def __post_init__(self) -> None:
        if self.fresh_path_delay <= 0.0:
            raise ConfigurationError("fresh_path_delay must be positive")
        if self.delay_sensitivity <= 0.0:
            raise ConfigurationError("delay_sensitivity must be positive")
        if self.active_power <= 0.0 or self.sleep_power < 0.0:
            raise ConfigurationError("powers must be positive (active) / non-negative (sleep)")


@dataclass(frozen=True)
class CoreSegment:
    """One leg of a core schedule, for one core or for every core of a bank.

    An active leg stresses at the core supply (AC, 50% duty), a sleep
    leg recovers at ``sleep_voltage``.  ``temperature`` and ``active``
    are one value or one per core (``(k,)``); a sequence of segments
    repeated ``n`` times feeds :meth:`CoreBank.run_cycles`.
    """

    duration: float
    temperature: np.ndarray | float
    active: np.ndarray | bool
    sleep_voltage: float = 0.0

    def __post_init__(self) -> None:
        if self.duration < 0.0:
            raise ConfigurationError(
                f"segment duration must be non-negative, got {self.duration}"
            )
        if self.sleep_voltage > 0.0 and not np.all(self.active):
            raise ConfigurationError("sleep voltage must be non-positive")


class CoreBank:
    """Aging state and energy accounting of ``k`` cores with shared parameters.

    The cores are the chips of two :class:`~repro.bti.traps.FleetTraps`,
    one per polarity, with one owner per chip, so a segment ages every
    core in one update per polarity.  ``rngs`` holds one generator per
    core; each spawns its core's (PMOS, NMOS) pair of trap draws.  A core
    whose guard budget runs out raises
    :class:`~repro.errors.FleetDropoutError` keyed by its core index once
    the segment has finished for the other cores.
    """

    def __init__(
        self,
        params: CoreParameters,
        rngs: Sequence[np.random.Generator],
        guard=None,
    ) -> None:
        self.params = params
        streams = [rng.spawn(2) for rng in rngs]
        self._traps = tuple(
            FleetTraps(
                traps, 1, [draw_population(traps, 1, pair[side]) for pair in streams],
                guard=guard,
            )
            for side, traps in enumerate((params.nbti_traps, params.pbti_traps))
        )
        self.n_cores = len(streams)
        # The large population represents the many devices of the critical
        # path; dividing the total shift by the number of 80-trap device
        # equivalents yields the average per-device shift with low
        # statistical noise.
        self._devices = [
            np.maximum(np.diff(traps.trap_offsets), 1) / _REFERENCE_TRAPS_PER_DEVICE
            for traps in self._traps
        ]
        self.energy_joules = np.zeros(self.n_cores)
        self.active_seconds = np.zeros(self.n_cores)
        self.sleep_seconds = np.zeros(self.n_cores)

    def average_delta_vth(self) -> np.ndarray:
        """Per-core average device threshold shift on the critical path (volts)."""
        pmos, nmos = (
            traps.delta_vth()[:, 0] / devices
            for traps, devices in zip(self._traps, self._devices)
        )
        return 0.5 * (pmos + nmos)

    def delta_path_delay(self) -> np.ndarray:
        """Per-core critical-path delay increase (seconds)."""
        return (
            self.params.fresh_path_delay
            * self.params.delay_sensitivity
            * self.average_delta_vth()
        )

    def total_energy(self) -> float:
        """Energy consumed so far, summed over the cores in core order (joules)."""
        return sum(self.energy_joules.tolist())

    def _phase(self, segment: CoreSegment) -> tuple[CyclePhase, np.ndarray, np.ndarray]:
        """A segment's trap phase, per-core power (watts) and active mask."""
        p = self.params
        k = self.n_cores
        active = np.broadcast_to(np.asarray(segment.active, dtype=bool), (k,))
        sleep_power = p.sleep_power
        if segment.sleep_voltage < 0.0:
            sleep_power += p.negative_rail_overhead * p.active_power
        phase = CyclePhase(
            duration=segment.duration,
            stress_voltage=np.where(active, p.supply_voltage, segment.sleep_voltage)[:, None],
            temperature=np.broadcast_to(np.asarray(segment.temperature, dtype=float), (k,)),
            duty=np.where(active, 0.5, 1.0),
            relax_voltage=0.0,
        )
        return phase, np.where(active, p.active_power, sleep_power), active

    def step(self, segment: CoreSegment) -> None:
        """Age every core through one segment (:meth:`FleetTraps.evolve`)."""
        self._advance([segment], None)

    def run_cycles(self, segments: Sequence[CoreSegment], n: int) -> None:
        """Advance through ``n`` repetitions of a fixed segment sequence.

        The closed form of repeated :meth:`step` calls
        (:meth:`~repro.bti.traps.FleetTraps.evolve_cycles`), so the cost
        is O(1) in ``n``; energy and time accounting scale exactly with
        the cycle count.  Only valid when every cycle is identical — any
        per-cycle feedback (aging-aware scheduling, drifting
        temperatures) must stay on the stepping path.
        """
        if n < 0:
            raise ConfigurationError(f"cycle count must be non-negative, got {n}")
        if not segments:
            raise ConfigurationError("run_cycles needs at least one segment")
        if n:
            self._advance(segments, n)

    def _advance(self, segments: Sequence[CoreSegment], n: int | None) -> None:
        """One :meth:`step` (``n`` is ``None``) or ``n`` cycles of ``segments``."""
        phases = []
        energy = np.zeros(self.n_cores)
        active_seconds = np.zeros(self.n_cores)
        sleep_seconds = np.zeros(self.n_cores)
        for segment in segments:
            phase, powers, active = self._phase(segment)
            phases.append(phase)
            energy += powers * segment.duration
            active_seconds += np.where(active, segment.duration, 0.0)
            sleep_seconds += np.where(active, 0.0, segment.duration)
        failed = {}
        for traps in self._traps:
            try:
                if n is None:
                    phase = phases[0]
                    traps.evolve(
                        phase.duration, phase.stress_voltage, phase.temperature,
                        phase.duty, phase.relax_voltage,
                    )
                else:
                    traps.evolve_cycles(phases, n)
            except FleetDropoutError as error:
                failed.update(error.errors)
        n = 1 if n is None else n
        self.energy_joules += n * energy
        self.active_seconds += n * active_seconds
        self.sleep_seconds += n * sleep_seconds
        if failed:
            raise FleetDropoutError(failed)

    def snapshot(self) -> tuple:
        """Capture aging and accounting state for what-if runs."""
        rows = [
            [(traps.occupancy_row(i), float(traps.elapsed[i])) for i in range(self.n_cores)]
            for traps in self._traps
        ]
        accounts = (self.energy_joules, self.active_seconds, self.sleep_seconds)
        return rows, tuple(account.copy() for account in accounts)

    def restore(self, state: tuple) -> None:
        """Restore a :meth:`snapshot`."""
        rows, (energy, active, sleep) = state
        for traps, chip_rows in zip(self._traps, rows):
            for index, (occupancy, elapsed) in enumerate(chip_rows):
                traps.set_occupancy_row(index, occupancy, elapsed)
        self.energy_joules[:] = energy
        self.active_seconds[:] = active
        self.sleep_seconds[:] = sleep


class CoreAgingModel:
    """Aging state and energy accounting of one core: a one-core :class:`CoreBank`."""

    def __init__(
        self,
        core_id: str,
        params: CoreParameters | None = None,
        rng: np.random.Generator | int | None = None,
        guard=None,
    ) -> None:
        self.core_id = core_id
        self.params = params or CoreParameters()
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self._bank = CoreBank(self.params, [rng], guard=guard)

    @property
    def energy_joules(self) -> float:
        """Energy consumed so far (joules)."""
        return float(self._bank.energy_joules[0])

    @property
    def active_seconds(self) -> float:
        """Seconds spent running."""
        return float(self._bank.active_seconds[0])

    @property
    def sleep_seconds(self) -> float:
        """Seconds spent power gated."""
        return float(self._bank.sleep_seconds[0])

    def average_delta_vth(self) -> float:
        """Average device threshold shift on the critical path (volts)."""
        return float(self._bank.average_delta_vth()[0])

    def delta_path_delay(self) -> float:
        """Critical-path delay increase (seconds)."""
        return float(self._bank.delta_path_delay()[0])

    def relative_slowdown(self) -> float:
        """Fractional frequency loss the core has accumulated."""
        return self.delta_path_delay() / self.params.fresh_path_delay

    def run_active(self, duration: float, temperature: float) -> None:
        """Run the core (AC stress at supply) for ``duration`` seconds."""
        self._bank.step(CoreSegment(duration, temperature, active=True))

    def sleep(self, duration: float, temperature: float, voltage: float = 0.0) -> None:
        """Power-gate the core; negative ``voltage`` heals actively."""
        self._bank.step(CoreSegment(duration, temperature, active=False, sleep_voltage=voltage))

    def run_cycles(self, segments: Sequence[CoreSegment], n: int) -> None:
        """Advance through ``n`` repetitions of a fixed segment sequence.

        Same physics as alternating :meth:`run_active` / :meth:`sleep` in
        a loop, at O(1) cost in ``n`` (see :meth:`CoreBank.run_cycles`).
        """
        self._bank.run_cycles(segments, n)

    def snapshot(self) -> tuple:
        """Capture aging and accounting state for what-if runs."""
        return self._bank.snapshot()

    def restore(self, state: tuple) -> None:
        """Restore a :meth:`snapshot`."""
        self._bank.restore(state)
