"""A virtual 40 nm FPGA chip: netlist + process variation + trap aging.

:class:`FpgaChip` is the library's replacement for the paper's physical
devices.  It carries one :class:`~repro.bti.traps.TrapPopulation` per BTI
polarity (NBTI for the PMOS devices, PBTI for the NMOS pass/pulldown
devices), wired to the inverter-chain netlist, and exposes the observables
the paper measures: CUT path delay and ring-oscillator frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bti.traps import CyclePhase, TrapPopulation, _check_cycles, _PopulationState
from repro.device.delay import AlphaPowerDelayModel, FirstOrderDelayShift, GateDelayModel
from repro.device.technology import TechnologyParameters, TECH_40NM
from repro.device.variation import ProcessVariation, VariationSample
from repro.errors import ConfigurationError
from repro.fpga.fabric import Fabric, Location
from repro.fpga.netlist import InverterChainNetlist
from repro.fpga.ring_oscillator import StressMode
from repro.guard import get_guard
from repro.obs import get_tracer


@dataclass(frozen=True)
class CycleSegment:
    """One leg of a repeating chip schedule, in :meth:`FpgaChip.apply_stress`
    / :meth:`FpgaChip.apply_recovery` terms.

    Build with :meth:`active` (stress) or :meth:`sleep` (recovery); a
    sequence of segments repeated ``n`` times feeds
    :meth:`FpgaChip.apply_cycles`.
    """

    duration: float
    temperature: float
    supply_voltage: float | None
    stress: bool
    mode: StressMode = StressMode.DC
    chain_input: int = 1

    def __post_init__(self) -> None:
        if self.duration < 0.0:
            raise ConfigurationError(
                f"segment duration must be non-negative, got {self.duration}"
            )

    @classmethod
    def active(
        cls,
        duration: float,
        temperature: float,
        supply_voltage: float | None = None,
        mode: StressMode = StressMode.DC,
        chain_input: int = 1,
    ) -> "CycleSegment":
        """A stress leg; ``supply_voltage`` ``None`` means the nominal rail."""
        return cls(
            duration=duration,
            temperature=temperature,
            supply_voltage=supply_voltage,
            stress=True,
            mode=mode,
            chain_input=chain_input,
        )

    @classmethod
    def sleep(
        cls, duration: float, temperature: float, supply_voltage: float = 0.0
    ) -> "CycleSegment":
        """A recovery leg (power-gated at 0 V or a negative rail)."""
        return cls(
            duration=duration,
            temperature=temperature,
            supply_voltage=supply_voltage,
            stress=False,
        )


def bias_pattern(
    netlist: InverterChainNetlist,
    tech: TechnologyParameters,
    stress: bool,
    supplies,
    temperatures,
    mode: StressMode = StressMode.DC,
    chain_input: int = 1,
) -> tuple[np.ndarray, float, np.ndarray | None]:
    """Validated per-owner ``(v_stress, duty, v_relax)`` of one bias, for k chips.

    ``supplies`` and ``temperatures`` are scalars or ``(k,)`` arrays; a
    ``None`` supply is the nominal rail under stress and 0 V (power
    gated) in recovery.  Voltages come back as ``(k, n_owners)``: a DC
    stress freezes the ring at ``chain_input``, an AC stress toggles at
    50 % duty between the two complementary static patterns (``v_relax``
    is the off pattern), and a recovery biases every device uniformly.
    """
    if supplies is None:
        supplies = tech.vdd_nominal if stress else 0.0
    supplies = np.atleast_1d(np.asarray(supplies, dtype=float))
    if stress:
        if np.any(supplies <= 0.0):
            raise ConfigurationError("stress requires a positive supply; use apply_recovery")
    else:
        for supply in supplies:
            if supply > 0.0:
                raise ConfigurationError("recovery needs a non-positive supply voltage")
            tech.check_recovery_voltage(float(supply))
    for temperature in np.atleast_1d(temperatures):
        tech.check_temperature(float(temperature))
    column = supplies[:, None]
    if not stress:
        return np.repeat(column, netlist.n_owners, axis=1), 1.0, None
    if mode is StressMode.DC:
        return column * netlist.dc_stress_fractions(chain_input), 1.0, None
    if mode is StressMode.AC:
        pattern_a, pattern_b = netlist.ac_stress_fractions()
        return column * pattern_a, 0.5, column * pattern_b
    raise ConfigurationError(f"unknown stress mode {mode!r}")


def cycle_phases(
    segments: Sequence[CycleSegment],
    n: int,
    netlist: InverterChainNetlist,
    tech: TechnologyParameters,
    *owner_sets: np.ndarray,
) -> list[list[CyclePhase]]:
    """One chip's :class:`CyclePhase` legs per owner set (e.g. per polarity).

    Validates the cycle count and every segment's bias first, so an
    ``apply_cycles`` that would fail does so before any state moves.
    """
    _check_cycles(segments, n)
    phases: list[list[CyclePhase]] = [[] for _ in owner_sets]
    for segment in segments:
        v_stress, duty, v_relax = bias_pattern(
            netlist, tech, segment.stress, segment.supply_voltage,
            segment.temperature, segment.mode, segment.chain_input,
        )
        relax = np.zeros_like(v_stress) if v_relax is None else v_relax
        for owners, legs in zip(owner_sets, phases):
            legs.append(
                CyclePhase(
                    duration=segment.duration,
                    stress_voltage=v_stress[0, owners],
                    temperature=segment.temperature,
                    duty=duty,
                    relax_voltage=relax[0, owners],
                )
            )
    return phases


class FpgaChip:
    """One virtual chip under test.

    Parameters
    ----------
    chip_id:
        Label used in campaign data logs ("chip-1" .. "chip-5").
    n_stages:
        Ring-oscillator length (paper: 75 LUT inverters).
    tech:
        Process constants.
    variation:
        Statistical process spread; each chip samples its own instance so
        fresh frequencies differ chip to chip, as the paper observes.
    fabric / location:
        Optional placement of the CUT on the fabric; adds the systematic
        delay gradient of the location.
    delay_model:
        "first-order" for the paper's Eq. (6) linearisation (default) or
        "alpha-power" for the ablation model.
    seed:
        Seeds both the variation draw and the trap populations, making a
        chip fully reproducible.
    tracer:
        Telemetry sink counting trap-state updates; defaults to the
        process tracer (a no-op unless one was installed).
    """

    def __init__(
        self,
        chip_id: str = "chip-1",
        n_stages: int = 75,
        tech: TechnologyParameters = TECH_40NM,
        variation: ProcessVariation | None = None,
        fabric: Fabric | None = None,
        location: Location | None = None,
        delay_model: str = "first-order",
        enable_gated: bool = False,
        seed: int | None = None,
        tracer=None,
        guard=None,
    ) -> None:
        self.chip_id = chip_id
        self.tech = tech
        #: The chip's contract checker (shared with its trap populations
        #: and ring oscillator); defaults to the ambient process guard.
        self.guard = guard if guard is not None else get_guard()
        self.netlist = InverterChainNetlist(n_stages=n_stages, enable_gated=enable_gated)
        rng = np.random.default_rng(seed)
        variation = variation if variation is not None else ProcessVariation()
        self.variation_sample: VariationSample = variation.sample(n_stages, rng=rng)

        systematic = 1.0
        if fabric is not None:
            location = location if location is not None else fabric.center
            systematic = fabric.systematic_multiplier(location)
        elif location is not None:
            raise ConfigurationError("a location requires a fabric")
        self.fabric = fabric
        self.location = location

        stage_multiplier = (
            self.variation_sample.local_delay_multipliers
            * self.variation_sample.delay_multiplier
            * systematic
        )
        self._owner_multiplier = stage_multiplier[self.netlist.owner_stage]
        self._weights = self.netlist.delay_weights(tech) * self._owner_multiplier
        self.fresh_path_delay = float(tech.stage_delay * stage_multiplier.sum())

        vth_offset = self.variation_sample.vth_offset
        self._vth0_pmos = tech.vth0_pmos + vth_offset
        self._vth0_nmos = tech.vth0_nmos + vth_offset
        if delay_model == "first-order":
            self._pmos_delay: GateDelayModel = FirstOrderDelayShift(
                tech.vdd_nominal, self._vth0_pmos
            )
            self._nmos_delay: GateDelayModel = FirstOrderDelayShift(
                tech.vdd_nominal, self._vth0_nmos
            )
        elif delay_model == "alpha-power":
            self._pmos_delay = AlphaPowerDelayModel(tech.vdd_nominal, self._vth0_pmos)
            self._nmos_delay = AlphaPowerDelayModel(tech.vdd_nominal, self._vth0_nmos)
        else:
            raise ConfigurationError(
                f"delay_model must be 'first-order' or 'alpha-power', got {delay_model!r}"
            )

        is_pmos = self.netlist.owner_is_pmos
        self._pmos_owners = np.flatnonzero(is_pmos)
        self._nmos_owners = np.flatnonzero(~is_pmos)
        tracer = tracer if tracer is not None else get_tracer()
        pop_rng_p, pop_rng_n = rng.spawn(2)
        self._pmos_population = TrapPopulation(
            tech.nbti_traps, n_owners=self._pmos_owners.size, rng=pop_rng_p,
            tracer=tracer, guard=self.guard,
        )
        self._nmos_population = TrapPopulation(
            tech.pbti_traps, n_owners=self._nmos_owners.size, rng=pop_rng_n,
            tracer=tracer, guard=self.guard,
        )
        self._elapsed = 0.0
        self._trap_updates = tracer.counter(
            "bti.trap_updates", "per-transistor trap-population evolutions"
        )
        # Per-owner ceiling on delta_vth (every trap occupied) — the
        # domain bound the device.delta_vth contract checks against.
        caps = np.zeros(self.n_owners)
        caps[self._pmos_owners] = self._pmos_population.max_delta_vth()
        caps[self._nmos_owners] = self._nmos_population.max_delta_vth()
        self._dvth_caps = caps

    # ------------------------------------------------------------------ #
    # observables
    # ------------------------------------------------------------------ #

    @property
    def elapsed(self) -> float:
        """Simulated seconds the chip has lived through."""
        return self._elapsed

    @property
    def n_owners(self) -> int:
        """Total number of aging transistors on the CUT."""
        return self.netlist.n_owners

    def delta_vth(self) -> np.ndarray:
        """Per-owner expected threshold shift (volts), global owner order.

        Contract: each shift lives in ``[0, sum of that owner's trap
        impacts]`` — BTI only raises Vth, and a fully occupied population
        is the worst case.
        """
        shifts = np.zeros(self.n_owners)
        shifts[self._pmos_owners] = self._pmos_population.delta_vth()
        shifts[self._nmos_owners] = self._nmos_population.delta_vth()
        guard = self.guard
        if guard.checking:
            shifts = guard.check_array(
                "device.delta_vth",
                shifts,
                0.0,
                self._dvth_caps,
                inputs=lambda: {
                    "chip": self.chip_id,
                    "elapsed": float(self._elapsed),
                },
            )
        return shifts

    def path_delay(self) -> float:
        """Current CUT delay in seconds (half the oscillation period).

        Contract: finite and never below the fresh delay — aging only
        slows the CUT, and a full recovery asymptotically returns to (but
        never overshoots) the fresh chip.
        """
        shifts = self.delta_vth()
        pmos_shift = np.sum(
            self._pmos_delay.delay_shift(
                self._weights[self._pmos_owners], shifts[self._pmos_owners]
            )
        )
        nmos_shift = np.sum(
            self._nmos_delay.delay_shift(
                self._weights[self._nmos_owners], shifts[self._nmos_owners]
            )
        )
        delay = self.fresh_path_delay + float(pmos_shift) + float(nmos_shift)
        guard = self.guard
        if guard.checking:
            fresh = self.fresh_path_delay
            delay = guard.check_scalar(
                "fpga.path_delay",
                delay,
                fresh,
                np.inf,
                tol=1e-9 * fresh,
                inputs=lambda: {"chip": self.chip_id, "fresh": fresh,
                                "elapsed": float(self._elapsed)},
            )
        return delay

    def delta_path_delay(self) -> float:
        """Delay increase versus the fresh chip (paper's dTd)."""
        return self.path_delay() - self.fresh_path_delay

    def oscillation_frequency(self) -> float:
        """Ring-oscillator frequency ``1 / (2 * path_delay)`` in Hz."""
        return 1.0 / (2.0 * self.path_delay())

    # ------------------------------------------------------------------ #
    # bias application
    # ------------------------------------------------------------------ #

    def _evolve(
        self,
        duration: float,
        temperature: float,
        v_stress: np.ndarray,
        duty: float,
        v_relax: np.ndarray | None,
    ) -> None:
        """Age both populations through one :func:`bias_pattern` phase."""
        relax = np.zeros(self.n_owners) if v_relax is None else v_relax[0]
        self._pmos_population.evolve(
            duration,
            v_stress[0, self._pmos_owners],
            temperature,
            duty=duty,
            relax_voltage=relax[self._pmos_owners],
        )
        self._nmos_population.evolve(
            duration,
            v_stress[0, self._nmos_owners],
            temperature,
            duty=duty,
            relax_voltage=relax[self._nmos_owners],
        )
        self._trap_updates.inc(self.n_owners)
        self._elapsed += duration

    def apply_stress(
        self,
        duration: float,
        temperature: float,
        supply_voltage: float | None = None,
        mode: StressMode = StressMode.DC,
        chain_input: int = 1,
    ) -> None:
        """Stress the CUT for ``duration`` seconds.

        DC mode freezes the ring at ``chain_input``; AC mode lets it
        oscillate (50 % duty between the two complementary static
        patterns).  ``supply_voltage`` defaults to the nominal rail.
        """
        pattern = bias_pattern(
            self.netlist, self.tech, True, supply_voltage, temperature, mode, chain_input
        )
        self._evolve(duration, temperature, *pattern)

    def apply_recovery(
        self, duration: float, temperature: float, supply_voltage: float = 0.0
    ) -> None:
        """Let the CUT recover for ``duration`` seconds.

        ``supply_voltage`` of 0 is passive recovery (power gated); a
        negative value is the paper's accelerated recovery.  Every device
        sees the recovery bias uniformly.
        """
        pattern = bias_pattern(self.netlist, self.tech, False, supply_voltage, temperature)
        self._evolve(duration, temperature, *pattern)

    def apply_cycles(self, segments: Sequence[CycleSegment], n: int) -> None:
        """Advance through ``n`` repetitions of a fixed segment sequence.

        Uses the closed-form affine composition of
        :meth:`~repro.bti.traps.TrapPopulation.evolve_cycles` — exact (the
        same piecewise-constant physics as calling :meth:`apply_stress` /
        :meth:`apply_recovery` in a loop) but O(1) in ``n``.  Only valid
        when every cycle really is identical: any per-cycle feedback
        (adaptive duty, jittered instruments) must stay on the loop path.
        """
        phases_pmos, phases_nmos = cycle_phases(
            segments, n, self.netlist, self.tech, self._pmos_owners, self._nmos_owners
        )
        if n == 0:
            return
        self._pmos_population.evolve_cycles(phases_pmos, n)
        self._nmos_population.evolve_cycles(phases_nmos, n)
        self._trap_updates.inc(self.n_owners * len(segments) * n)
        self._elapsed += n * sum(segment.duration for segment in segments)

    # ------------------------------------------------------------------ #
    # state management
    # ------------------------------------------------------------------ #

    def snapshot(self) -> tuple:
        """Capture aging state for later :meth:`restore` (what-if runs)."""
        return (
            self._pmos_population.snapshot(),
            self._nmos_population.snapshot(),
            self._elapsed,
        )

    def restore(self, state: tuple) -> None:
        """Restore a snapshot taken on this chip."""
        pmos, nmos, elapsed = state
        self._pmos_population.restore(pmos)
        self._nmos_population.restore(nmos)
        self._elapsed = elapsed

    def reset(self) -> None:
        """Return the chip to the fresh, unaged state."""
        self._pmos_population.reset()
        self._nmos_population.reset()
        self._elapsed = 0.0

    def inject_trap_upset(self, value: float, n_traps: int = 64) -> None:
        """Corrupt the leading trap occupancies of both populations.

        Fault-injection hook for the lab's ``TRAP_UPSET`` events: writes
        ``value`` (typically NaN or an out-of-domain occupancy) straight
        into the state, bypassing the physics.  The corruption surfaces at
        the next evolve step through the :mod:`repro.guard` contracts.
        """
        self._pmos_population.inject_upset(value, n_traps)
        self._nmos_population.inject_upset(value, n_traps)

    def export_state(self) -> dict[str, np.ndarray | float]:
        """Aging state as plain arrays/floats, for on-disk checkpoints.

        Everything mutable lives here: the two trap occupancies and the
        three clocks.  The immutable parts (variation sample, netlist,
        weights) are reproduced exactly by rebuilding the chip from the
        same seed, so a checkpoint never stores them.
        """
        pmos, nmos, elapsed = self.snapshot()
        return {
            "pmos_occupancy": pmos.occupancy,
            "pmos_elapsed": pmos.elapsed,
            "nmos_occupancy": nmos.occupancy,
            "nmos_elapsed": nmos.elapsed,
            "elapsed": elapsed,
        }

    def import_state(self, state: dict) -> None:
        """Restore a state produced by :meth:`export_state`.

        The chip must have been built from the same seed/technology — the
        occupancy shapes are validated against this chip's populations.
        """
        self.restore(
            (
                _PopulationState(
                    occupancy=np.asarray(state["pmos_occupancy"], dtype=float),
                    elapsed=float(state["pmos_elapsed"]),
                ),
                _PopulationState(
                    occupancy=np.asarray(state["nmos_occupancy"], dtype=float),
                    elapsed=float(state["nmos_elapsed"]),
                ),
                float(state["elapsed"]),
            )
        )
