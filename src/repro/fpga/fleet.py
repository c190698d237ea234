"""A wafer lot of virtual FPGA chips behind one batched state.

:class:`FleetChip` owns N same-process chips as struct-of-arrays state
(:mod:`repro.bti.fleet`) plus per-chip variation columns (stage delay
multipliers, Vth offsets, fresh delays), so one call ages the whole lot.
Two fidelities:

* ``"exact"`` — flat per-trap state; every chip's trajectory is
  bit-identical to a standalone :class:`~repro.fpga.chip.FpgaChip` built
  from the same seed (the facade-equivalence contract, enforced by
  :meth:`FleetChip.view`'s :class:`ChipView` and the fleet test suite).
* ``"binned"`` — CET-grid quantised populations for 10k-chip lots;
  statistically faithful, not bit-identical (see
  :class:`~repro.bti.fleet.BinnedFleetTraps`).  Owners with identical
  voltage histories form one bias class, and only one representative
  owner per class is biased.

Chip construction consumes each seed's generator in
:class:`FpgaChip.__init__`'s order (variation sample, then the two
population spawns, drawn by the same kernel), and both classes turn a
stress or recovery into per-owner voltages with one rule,
:func:`~repro.fpga.chip.bias_pattern`, so an exact-fidelity fleet chip
and a standalone chip from the same seed hold identical constants and
see identical biases.
"""

from __future__ import annotations

import numpy as np

from repro.bti.fleet import (
    BinnedFleetTraps,
    FleetTraps,
    TrapDraws,
    TrapGrid,
    contiguous_chips,
    draw_population,
)
from repro.device.technology import TechnologyParameters, TECH_40NM
from repro.device.variation import ProcessVariation
from repro.errors import ConfigurationError
from repro.fpga.chip import bias_pattern, cycle_phases
from repro.fpga.netlist import InverterChainNetlist
from repro.fpga.ring_oscillator import StressMode
from repro.guard import get_guard
from repro.obs import get_tracer

#: Fidelity names accepted by :class:`FleetChip`.
FIDELITIES = ("exact", "binned")


class FleetChip:
    """N chips of one process, batched.

    Parameters
    ----------
    chip_ids / seeds:
        Parallel sequences naming each lot position and seeding its
        variation + trap draws (exactly like ``FpgaChip(seed=...)``).
    fidelity:
        ``"exact"`` (per-trap, bit-identical) or ``"binned"``
        (CET-grid, population-scale).
    bins_per_decade:
        Grid density of the binned fidelity; ignored for exact.
    guard:
        Fleet-level contract checker for batched calls; per-chip guards
        can still be threaded through the ``guard=`` argument of each
        method (the :class:`ChipView` facade does exactly that).
    """

    def __init__(
        self,
        chip_ids,
        seeds,
        *,
        tech: TechnologyParameters = TECH_40NM,
        variation: ProcessVariation | None = None,
        n_stages: int = 75,
        fidelity: str = "exact",
        bins_per_decade: float = 3.0,
        guard=None,
        tracer=None,
    ) -> None:
        if len(chip_ids) != len(seeds) or not chip_ids:
            raise ConfigurationError("chip_ids and seeds must be equal-length, non-empty")
        if fidelity not in FIDELITIES:
            raise ConfigurationError(f"fidelity must be one of {FIDELITIES}, got {fidelity!r}")
        self.chip_ids = list(chip_ids)
        self.n_chips = len(self.chip_ids)
        self.tech = tech
        self.fidelity = fidelity
        self.guard = guard if guard is not None else get_guard()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.netlist = InverterChainNetlist(n_stages=n_stages)
        variation = variation if variation is not None else ProcessVariation()

        is_pmos = self.netlist.owner_is_pmos
        self._pmos_owners = np.flatnonzero(is_pmos)
        self._nmos_owners = np.flatnonzero(~is_pmos)
        n_owners = self.netlist.n_owners
        base_weights = self.netlist.delay_weights(tech)

        self._weights = np.empty((self.n_chips, n_owners))
        self.fresh_path_delays = np.empty(self.n_chips)
        self._div_pmos = np.empty(self.n_chips)  # vdd - vth0_pmos per chip
        self._div_nmos = np.empty(self.n_chips)
        draws_p: list[TrapDraws] = []
        draws_n: list[TrapDraws] = []
        for index, seed in enumerate(seeds):
            # Replays FpgaChip.__init__'s draw order: variation sample
            # first, then the two population child streams.
            rng = np.random.default_rng(seed)
            sample = variation.sample(n_stages, rng=rng)
            stage_multiplier = sample.local_delay_multipliers * sample.delay_multiplier
            self._weights[index] = base_weights * stage_multiplier[self.netlist.owner_stage]
            self.fresh_path_delays[index] = float(tech.stage_delay * stage_multiplier.sum())
            self._div_pmos[index] = tech.vdd_nominal - (tech.vth0_pmos + sample.vth_offset)
            self._div_nmos[index] = tech.vdd_nominal - (tech.vth0_nmos + sample.vth_offset)
            pop_rng_p, pop_rng_n = rng.spawn(2)
            draws_p.append(draw_population(tech.nbti_traps, self._pmos_owners.size, pop_rng_p))
            draws_n.append(draw_population(tech.pbti_traps, self._nmos_owners.size, pop_rng_n))

        #: Per-chip simulated seconds (the ``FpgaChip.elapsed`` clock).
        self.elapsed = np.zeros(self.n_chips)
        self._trap_updates = self.tracer.counter(
            "bti.trap_updates", "per-transistor trap-population evolutions"
        )
        if fidelity == "exact":
            self._pmos = FleetTraps(
                tech.nbti_traps, self._pmos_owners.size, draws_p,
                guard=self.guard, tracer=self.tracer,
            )
            self._nmos = FleetTraps(
                tech.pbti_traps, self._nmos_owners.size, draws_n,
                guard=self.guard, tracer=self.tracer,
            )
            caps = np.zeros((self.n_chips, n_owners))
            caps[:, self._pmos_owners] = self._pmos.max_delta_vth()
            caps[:, self._nmos_owners] = self._nmos.max_delta_vth()
            self._dvth_caps = caps
            bias_p, bias_n = self._pmos_owners, self._nmos_owners
        else:
            # Every owner of a bias class shares its fraction row, so one
            # representative owner's voltage stands for the whole class.
            bias_p, class_of_owner_p = self._owner_classes(self._pmos_owners)
            bias_n, class_of_owner_n = self._owner_classes(self._nmos_owners)
            self._pmos = BinnedFleetTraps(
                TrapGrid(tech.nbti_traps, bias_p.size, bins_per_decade),
                self.n_chips,
                guard=self.guard,
            )
            self._nmos = BinnedFleetTraps(
                TrapGrid(tech.pbti_traps, bias_n.size, bins_per_decade),
                self.n_chips,
                guard=self.guard,
            )
            for index in range(self.n_chips):
                self._pmos.add_chip(
                    index,
                    draws_p[index],
                    class_of_owner_p,
                    self._weights[index, self._pmos_owners] / self._div_pmos[index],
                )
                self._nmos.add_chip(
                    index,
                    draws_n[index],
                    class_of_owner_n,
                    self._weights[index, self._nmos_owners] / self._div_nmos[index],
                )
        #: The owners whose voltages a phase needs: every owner (exact) or
        #: one per bias class (binned), pMOS first, then nMOS from column
        #: ``_bias_split`` on.
        self._bias_owners = np.concatenate([bias_p, bias_n])
        self._bias_split = bias_p.size

    def _owner_classes(self, owners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bias classes of one polarity's owners.

        Two owners belong to one class iff their voltage fractions agree
        in every bias the schedule grammar can apply (DC pattern, both AC
        patterns) — then their traps see identical voltage histories and
        can share grid cells.  Returns ``(representatives,
        class_of_owner)``: the first owner of each class, as a global
        owner index, and each owner's class.
        """
        dc = self.netlist.dc_stress_fractions(1)
        ac_a, ac_b = self.netlist.ac_stress_fractions()
        signature = np.stack([dc[owners], ac_a[owners], ac_b[owners]], axis=1)
        _, first, inverse = np.unique(
            signature, axis=0, return_index=True, return_inverse=True
        )
        return owners[first], inverse

    # ------------------------------------------------------------------ #
    # bias application (lock-step groups)
    # ------------------------------------------------------------------ #

    def apply_stress(
        self,
        duration: float,
        temperatures: np.ndarray,
        supplies: np.ndarray,
        mode: StressMode = StressMode.DC,
        chain_input: int = 1,
        chips: slice = slice(None),
        guard=None,
    ) -> None:
        """Stress a contiguous chip span for ``duration`` seconds.

        ``temperatures`` (kelvin) and ``supplies`` (volts) are per-chip
        delivered values; the bias pattern (DC freeze or AC oscillation)
        is shared — lock-step groups always run the same phase.
        """
        lo, hi = contiguous_chips(chips, self.n_chips)
        pattern = bias_pattern(
            self.netlist, self.tech, True, supplies, temperatures, mode, chain_input,
            owners=self._bias_owners,
        )
        self._evolve_span(duration, temperatures, *pattern, lo, hi, guard)

    def apply_recovery(
        self,
        duration: float,
        temperatures: np.ndarray,
        supplies: np.ndarray,
        chips: slice = slice(None),
        guard=None,
    ) -> None:
        """Recover a contiguous chip span (0 V passive or negative rail)."""
        lo, hi = contiguous_chips(chips, self.n_chips)
        pattern = bias_pattern(
            self.netlist, self.tech, False, supplies, temperatures, owners=self._bias_owners
        )
        self._evolve_span(duration, temperatures, *pattern, lo, hi, guard)

    def _evolve_span(
        self,
        duration: float,
        temperatures: np.ndarray,
        voltages: np.ndarray,
        duty: float,
        relax_voltages: np.ndarray | None,
        lo: int,
        hi: int,
        guard,
    ) -> None:
        """Age both populations; voltages are ``(k, _bias_owners)`` columns."""
        span = slice(lo, hi)
        temperatures = np.asarray(temperatures, dtype=float)
        split = self._bias_split
        for pop, columns in ((self._pmos, slice(None, split)), (self._nmos, slice(split, None))):
            relax = None if relax_voltages is None else relax_voltages[:, columns]
            if self.fidelity == "exact":
                pop.evolve(
                    duration, voltages[:, columns], temperatures,
                    duty=duty, v_relax=relax, chips=span, guard=guard,
                )
            else:
                pop.evolve(
                    duration, voltages[:, columns], temperatures,
                    duty=duty, v_class_relax=relax, chips=span,
                )
        self._trap_updates.inc(self.netlist.n_owners * (hi - lo))
        self.elapsed[span] += duration

    # ------------------------------------------------------------------ #
    # observables
    # ------------------------------------------------------------------ #

    def delta_vth_all(self, chips: slice = slice(None), guard=None) -> np.ndarray:
        """Per-chip per-owner threshold shifts, ``(k, n_owners)`` (exact only)."""
        if self.fidelity != "exact":
            raise ConfigurationError("per-owner delta_vth needs the exact fidelity")
        lo, hi = contiguous_chips(chips, self.n_chips)
        span = slice(lo, hi)
        shifts = np.zeros((hi - lo, self.netlist.n_owners))
        shifts[:, self._pmos_owners] = self._pmos.delta_vth(span)
        shifts[:, self._nmos_owners] = self._nmos.delta_vth(span)
        guard = guard if guard is not None else self.guard
        if guard.checking:
            shifts = guard.check_array(
                "device.delta_vth",
                shifts,
                0.0,
                self._dvth_caps[span],
                inputs=lambda: {"fleet_chips": hi - lo, "first_chip": self.chip_ids[lo]},
            )
        return shifts

    def path_delays(self, chips: slice = slice(None), guard=None) -> np.ndarray:
        """Per-chip CUT delay in seconds, ``(k,)``.

        Exact fidelity replicates ``FpgaChip.path_delay`` operation for
        operation (including both guard contracts); binned fidelity reads
        the pooled linear observable of each population.
        """
        lo, hi = contiguous_chips(chips, self.n_chips)
        span = slice(lo, hi)
        guard = guard if guard is not None else self.guard
        if self.fidelity == "exact":
            shifts = self.delta_vth_all(chips, guard=guard)
            dv_p = shifts[:, self._pmos_owners]
            dv_n = shifts[:, self._nmos_owners]
            if guard.checking:
                dv_p = guard.check_array(
                    "device.dvth", dv_p, 0.0,
                    np.broadcast_to(self._div_pmos[span, None], dv_p.shape),
                )
                dv_n = guard.check_array(
                    "device.dvth", dv_n, 0.0,
                    np.broadcast_to(self._div_nmos[span, None], dv_n.shape),
                )
            shift_p = np.sum(
                self._weights[span][:, self._pmos_owners] * dv_p
                / self._div_pmos[span, None],
                axis=1,
            )
            shift_n = np.sum(
                self._weights[span][:, self._nmos_owners] * dv_n
                / self._div_nmos[span, None],
                axis=1,
            )
        else:
            shift_p = self._pmos.readout_shift(span)
            shift_n = self._nmos.readout_shift(span)
        delays = self.fresh_path_delays[span] + shift_p + shift_n
        if guard.checking:
            fresh = self.fresh_path_delays[span]
            delays = guard.check_array(
                "fpga.path_delay",
                delays,
                0.0,
                np.inf,
                tol=0.0,
                inputs=lambda: {"fleet_chips": hi - lo, "first_chip": self.chip_ids[lo]},
            )
            if np.any(delays < fresh - 1e-9 * fresh):
                bad = int(np.argmax(delays < fresh - 1e-9 * fresh))
                guard.check_scalar(
                    "fpga.path_delay",
                    float(delays[bad]),
                    float(fresh[bad]),
                    np.inf,
                    tol=1e-9 * float(fresh[bad]),
                    inputs=lambda: {"chip": self.chip_ids[lo + bad]},
                )
        return delays

    def frequencies(self, chips: slice = slice(None), guard=None) -> np.ndarray:
        """Per-chip noise-free RO frequency ``1 / (2 * path_delay)``."""
        return 1.0 / (2.0 * self.path_delays(chips, guard=guard))

    # ------------------------------------------------------------------ #
    # per-chip state (checkpoint / sanitizer / fault surface)
    # ------------------------------------------------------------------ #

    def export_chip_state(self, index: int) -> dict:
        """One chip's mutable state, key-compatible with ``FpgaChip.export_state``."""
        return {
            "pmos_occupancy": self._pmos.occupancy_row(index),
            "pmos_elapsed": float(self._pmos.elapsed[index]),
            "nmos_occupancy": self._nmos.occupancy_row(index),
            "nmos_elapsed": float(self._nmos.elapsed[index]),
            "elapsed": float(self.elapsed[index]),
        }

    def import_chip_state(self, index: int, state: dict) -> None:
        """Restore one chip's mutable state from :meth:`export_chip_state`."""
        self._pmos.set_occupancy_row(
            index, state["pmos_occupancy"], float(state["pmos_elapsed"])
        )
        self._nmos.set_occupancy_row(
            index, state["nmos_occupancy"], float(state["nmos_elapsed"])
        )
        self.elapsed[index] = float(state["elapsed"])

    def inject_trap_upset_chip(self, index: int, value: float, n_traps: int = 64) -> None:
        """Corrupt the leading trap occupancies of one chip's populations."""
        self._pmos.inject_upset(index, value, n_traps)
        self._nmos.inject_upset(index, value, n_traps)

    def view(self, index: int) -> "ChipView":
        """An :class:`FpgaChip`-compatible facade onto one lot position."""
        if self.fidelity != "exact":
            raise ConfigurationError("ChipView requires the exact fidelity")
        if not 0 <= index < self.n_chips:
            raise ConfigurationError(f"chip index {index} outside this fleet")
        return ChipView(self, index)


class ChipView:
    """One fleet position exposed through the :class:`FpgaChip` surface.

    Everything the campaign, guard, fault-injection, sanitizer and
    checkpoint layers call on a chip works unchanged here; the state it
    reads and writes is the fleet's batched arrays.  Exact fidelity only
    — views exist to *prove* facade equivalence and to host the
    resilience paths, not for throughput.
    """

    def __init__(self, fleet: FleetChip, index: int, guard=None) -> None:
        self._fleet = fleet
        self._index = index
        self.chip_id = fleet.chip_ids[index]
        self.tech = fleet.tech
        self.netlist = fleet.netlist
        self.guard = guard if guard is not None else fleet.guard
        self.fresh_path_delay = float(fleet.fresh_path_delays[index])

    @property
    def _span(self) -> slice:
        return slice(self._index, self._index + 1)

    @property
    def elapsed(self) -> float:
        return float(self._fleet.elapsed[self._index])

    @property
    def n_owners(self) -> int:
        return self._fleet.netlist.n_owners

    # observables ------------------------------------------------------- #

    def delta_vth(self) -> np.ndarray:
        """Per-owner threshold shift of this chip, as ``FpgaChip.delta_vth``."""
        return self._fleet.delta_vth_all(self._span, guard=self.guard)[0]

    def path_delay(self) -> float:
        """Current CUT path delay of this chip in seconds."""
        return float(self._fleet.path_delays(self._span, guard=self.guard)[0])

    def delta_path_delay(self) -> float:
        """Delay increase versus the fresh chip."""
        return self.path_delay() - self.fresh_path_delay

    def oscillation_frequency(self) -> float:
        """Ring-oscillator frequency ``1 / (2 Td)`` of this chip."""
        return 1.0 / (2.0 * self.path_delay())

    # bias -------------------------------------------------------------- #

    def apply_stress(
        self,
        duration: float,
        temperature: float,
        supply_voltage: float | None = None,
        mode: StressMode = StressMode.DC,
        chain_input: int = 1,
    ) -> None:
        """Apply a stress phase to this chip only (``FpgaChip.apply_stress``)."""
        self._fleet.apply_stress(
            duration,
            np.array([float(temperature)]),
            supply_voltage,
            mode=mode,
            chain_input=chain_input,
            chips=self._span,
            guard=self.guard,
        )

    def apply_recovery(
        self, duration: float, temperature: float, supply_voltage: float = 0.0
    ) -> None:
        """Apply a recovery phase to this chip only (``FpgaChip.apply_recovery``)."""
        self._fleet.apply_recovery(
            duration,
            np.array([float(temperature)]),
            supply_voltage,
            chips=self._span,
            guard=self.guard,
        )

    def apply_cycles(self, segments, n: int) -> None:
        """Closed-form N-cycle fast-forward through the fleet engine."""
        fleet = self._fleet
        phases_p, phases_n = cycle_phases(
            segments, n, self.netlist, self.tech, fleet._pmos_owners, fleet._nmos_owners
        )
        if n == 0:
            return
        fleet._pmos.evolve_cycles(phases_p, n, chips=self._span, guard=self.guard)
        fleet._nmos.evolve_cycles(phases_n, n, chips=self._span, guard=self.guard)
        fleet._trap_updates.inc(self.n_owners * len(segments) * n)
        fleet.elapsed[self._index] += n * sum(segment.duration for segment in segments)

    # state ------------------------------------------------------------- #

    def export_state(self) -> dict:
        """This chip's trap state and clock in ``FpgaChip.export_state`` form."""
        return self._fleet.export_chip_state(self._index)

    def import_state(self, state: dict) -> None:
        """Replace this chip's state from an export/snapshot dict."""
        self._fleet.import_chip_state(self._index, state)

    def snapshot(self) -> dict:
        """Checkpoint form; the fleet facade uses the export dict directly."""
        return self.export_state()

    def restore(self, state: dict) -> None:
        """Rewind to a snapshot (alias of ``import_state`` on the facade)."""
        self.import_state(state)

    def reset(self) -> None:
        """Return this lot position to the fresh, unaged state."""
        fleet = self._fleet
        zeros_p = np.zeros_like(fleet._pmos.occupancy_row(self._index))
        zeros_n = np.zeros_like(fleet._nmos.occupancy_row(self._index))
        fleet._pmos.set_occupancy_row(self._index, zeros_p, 0.0)
        fleet._nmos.set_occupancy_row(self._index, zeros_n, 0.0)
        fleet.elapsed[self._index] = 0.0

    def inject_trap_upset(self, value: float, n_traps: int = 64) -> None:
        """Corrupt this chip's trap occupancies in place (fault injection)."""
        self._fleet.inject_trap_upset_chip(self._index, value, n_traps)
