"""The multi-core system simulation loop."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.multicore.core_model import CoreBank, CoreParameters, CoreSegment
from repro.multicore.scheduler import Scheduler
from repro.multicore.thermal import ThermalGrid
from repro.obs import get_tracer
from repro.units import hours


@dataclass
class SystemHistory:
    """Per-epoch record of a multi-core run.

    ``delay_shifts`` has shape (epochs+1, cores): row 0 is the initial
    state, row i the state after epoch i.  ``temperatures`` and
    ``active_mask`` have shape (epochs, cores).
    """

    epoch_duration: float
    delay_shifts: np.ndarray
    temperatures: np.ndarray
    active_mask: np.ndarray
    energy_joules: float

    @property
    def n_epochs(self) -> int:
        """Number of simulated epochs."""
        return self.active_mask.shape[0]

    @property
    def times(self) -> np.ndarray:
        """Wall-clock seconds at each recorded state row."""
        return np.arange(self.delay_shifts.shape[0]) * self.epoch_duration

    def worst_core_shift(self) -> np.ndarray:
        """System-level margin consumption: max shift across cores per row."""
        return self.delay_shifts.max(axis=1)

    def final_shifts(self) -> np.ndarray:
        """Per-core delay shift at the end of the run."""
        return self.delay_shifts[-1]

    def utilisation(self) -> np.ndarray:
        """Fraction of epochs each core spent active."""
        return self.active_mask.mean(axis=0)


class MulticoreSystem:
    """Cores + thermal grid + scheduler, stepped epoch by epoch.

    The cores are one :class:`~repro.multicore.core_model.CoreBank`, so
    each epoch ages all of them in one trap update per polarity.

    Parameters
    ----------
    grid:
        Thermal network; its size fixes the core count (paper Fig. 10 uses
        a 2 x 4 grid of 8 cores).
    core_params:
        Shared per-core electrical parameters.
    seed:
        Seeds the cores' trap draws (each core gets a child
        stream, so cores differ the way real dies do).
    tracer:
        Telemetry sink for run spans and epoch counters; defaults to the
        process tracer (a no-op unless one was installed).
    guard:
        Physics-contract checker shared by the cores and (when the grid
        is built here) the thermal solve; defaults to the ambient guard.
        A core whose budget runs out raises
        :class:`~repro.errors.FleetDropoutError` keyed by its core index.
    """

    def __init__(
        self,
        grid: ThermalGrid | None = None,
        core_params: CoreParameters | None = None,
        seed: int | None = 0,
        tracer=None,
        guard=None,
    ) -> None:
        self.grid = grid if grid is not None else ThermalGrid(guard=guard)
        master = np.random.default_rng(seed)
        self._bank = CoreBank(
            core_params or CoreParameters(), master.spawn(self.grid.n_cores), guard=guard
        )
        self.tracer = tracer if tracer is not None else get_tracer()
        self._epochs = self.tracer.counter(
            "multicore.epochs", "scheduler epochs simulated"
        )
        self._core_steps = self.tracer.counter(
            "multicore.core_steps", "per-core aging steps (active or sleeping)"
        )

    @property
    def n_cores(self) -> int:
        """Number of cores in the system."""
        return self._bank.n_cores

    def delay_shifts(self) -> np.ndarray:
        """Current per-core delay shift (seconds)."""
        return self._bank.delta_path_delay()

    def total_energy(self) -> float:
        """Energy consumed so far across all cores (joules)."""
        return self._bank.total_energy()

    def _epoch(
        self, scheduler: Scheduler, epoch: int, demand: int, aging: np.ndarray,
        epoch_duration: float,
    ) -> CoreSegment:
        """One epoch's decision, power map and temperature field as a segment."""
        decision = scheduler.decide(epoch, demand, aging, self.grid)
        n = self.n_cores
        active = np.zeros(n, dtype=bool)
        for index in decision.active:
            if not 0 <= index < n:
                raise ConfigurationError(
                    f"scheduler activated core {index}, but cores are 0..{n - 1}"
                )
            active[index] = True
        params = self._bank.params
        powers = np.where(active, params.active_power, params.sleep_power)
        return CoreSegment(
            duration=epoch_duration,
            temperature=self.grid.steady_state(powers),
            active=active,
            sleep_voltage=decision.sleep_voltage,
        )

    def run(
        self,
        scheduler: Scheduler,
        workload,
        n_epochs: int,
        epoch_duration: float = hours(1.0),
        epoch_offset: int = 0,
    ) -> SystemHistory:
        """Simulate ``n_epochs`` epochs under a scheduler and workload.

        Each epoch: the workload states its demand, the scheduler picks
        the active set and sleep bias, the thermal grid finds the
        steady-state temperature field, and every core ages accordingly.
        ``epoch_offset`` shifts the epoch indices the scheduler and
        workload see — callers that step the system one epoch at a time
        (the lifetime projector) pass it so rotation policies keep
        rotating.
        """
        if n_epochs <= 0:
            raise ConfigurationError("n_epochs must be positive")
        if epoch_duration <= 0.0:
            raise ConfigurationError("epoch_duration must be positive")
        n = self.n_cores
        shifts = np.empty((n_epochs + 1, n))
        temps = np.empty((n_epochs, n))
        active_mask = np.zeros((n_epochs, n), dtype=bool)
        shifts[0] = self.delay_shifts()
        energy_start = self.total_energy()
        with self.tracer.span(
            "multicore.run",
            scheduler=type(scheduler).__name__,
            n_cores=n,
            n_epochs=n_epochs,
            epoch_duration=epoch_duration,
        ) as span:
            for epoch in range(n_epochs):
                logical_epoch = epoch_offset + epoch
                segment = self._epoch(
                    scheduler, logical_epoch, workload.demand(logical_epoch),
                    shifts[epoch], epoch_duration,
                )
                self._bank.step(segment)
                temps[epoch] = segment.temperature
                active_mask[epoch] = segment.active
                shifts[epoch + 1] = self.delay_shifts()
            self._epochs.inc(n_epochs)
            self._core_steps.inc(n_epochs * n)
            span.set("sim_advanced", n_epochs * epoch_duration)
        if span.duration > 0.0:
            self.tracer.gauge(
                "multicore.sim_seconds_per_wall_second",
                "simulated time advanced per wall-clock second",
            ).set(n_epochs * epoch_duration / span.duration)
        return SystemHistory(
            epoch_duration=epoch_duration,
            delay_shifts=shifts,
            temperatures=temps,
            active_mask=active_mask,
            energy_joules=self.total_energy() - energy_start,
        )

    def fast_forward(
        self,
        scheduler: Scheduler,
        demand: int,
        n_rotations: int,
        epoch_duration: float = hours(1.0),
        epoch_offset: int = 0,
    ) -> np.ndarray:
        """Advance whole schedule rotations at O(1) cost in ``n_rotations``.

        Valid only for schedulers declaring ``aging_independent = True``:
        with constant ``demand`` their schedule repeats every ``n_cores``
        epochs, so each core sees a fixed periodic active/sleep pattern
        that the trap ensemble's closed-form cycle composition can
        compress.  One rotation (``n_cores`` epochs) is decided and its
        thermal fields solved normally; the cores then jump through
        ``n_rotations`` repetitions of it in one
        :meth:`~repro.bti.traps.FleetTraps.evolve_cycles` call per
        polarity.  Per-epoch history is not recorded — use :meth:`run`
        for trajectories.  Callers that resume stepping afterwards should
        advance their ``epoch_offset`` by ``n_rotations * n_cores``.
        Returns the final per-core delay shifts.
        """
        if not getattr(scheduler, "aging_independent", False):
            raise ConfigurationError(
                f"{type(scheduler).__name__} decisions depend on the aging "
                "state; its schedule is not periodic and cannot be "
                "fast-forwarded"
            )
        if n_rotations <= 0:
            raise ConfigurationError("n_rotations must be positive")
        if epoch_duration <= 0.0:
            raise ConfigurationError("epoch_duration must be positive")
        n = self.n_cores
        aging = self.delay_shifts()  # ignored by aging-independent policies
        with self.tracer.span(
            "multicore.fast_forward",
            scheduler=type(scheduler).__name__,
            n_cores=n,
            n_rotations=n_rotations,
            epoch_duration=epoch_duration,
        ) as span:
            rotation = [
                self._epoch(scheduler, epoch_offset + k, demand, aging, epoch_duration)
                for k in range(n)
            ]
            self._bank.run_cycles(rotation, n_rotations)
            self._epochs.inc(n_rotations * n)
            self._core_steps.inc(n_rotations * n * n)
            span.set("sim_advanced", n_rotations * n * epoch_duration)
        return self.delay_shifts()
