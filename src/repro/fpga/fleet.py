"""Virtual FPGA chips of one process behind one batched state.

:class:`FleetChip` owns N same-process chips as struct-of-arrays state
(:mod:`repro.bti.fleet`) plus per-chip variation columns (stage delay
multipliers, Vth offsets, fresh delays, delay models), so one call ages
a span of the lot.  Two fidelities:

* ``"exact"`` — flat per-trap state.  A chip's trajectory is the same
  bit for bit whatever span it is driven in, so a standalone
  :class:`~repro.fpga.chip.FpgaChip` is a view of a one-chip exact fleet
  and :meth:`FleetChip.view` binds the same facade to one lot position.
* ``"binned"`` — CET-grid quantised populations for 10k-chip lots;
  statistically faithful, not bit-identical (see
  :class:`~repro.bti.fleet.BinnedFleetTraps`).  Owners with identical
  voltage histories form one bias class, and only one representative
  owner per class is biased.

Each seed's generator is consumed in one order (variation sample, then
the two population spawns), and a stress or recovery becomes per-owner
voltages through one rule, :func:`bias_pattern`, so a chip's constants
and biases depend only on its seed and schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bti.fleet import (
    BinnedFleetTraps,
    FleetTraps,
    TrapGrid,
    contiguous_chips,
    draw_population,
)
from repro.bti.traps import CyclePhase, _check_cycles, advance_clocks, chip_runs
from repro.device.delay import AlphaPowerDelayModel, FirstOrderDelayShift
from repro.device.technology import TechnologyParameters, TECH_40NM
from repro.device.variation import ProcessVariation
from repro.errors import ConfigurationError, FleetDropoutError
from repro.fpga.fabric import Fabric, Location
from repro.fpga.netlist import InverterChainNetlist
from repro.fpga.ring_oscillator import StressMode
from repro.guard.contracts import chip_guards, consult_chips, verdict_tolerance
from repro.obs import get_tracer

#: Fidelity names accepted by :class:`FleetChip`.
FIDELITIES = ("exact", "binned")

#: Gate-delay models accepted by :class:`FleetChip` (``delay_model=``).
DELAY_MODELS = {"first-order": FirstOrderDelayShift, "alpha-power": AlphaPowerDelayModel}


@dataclass(frozen=True)
class CycleSegment:
    """One leg of a repeating chip schedule, in :meth:`FleetChip.apply_stress`
    / :meth:`FleetChip.apply_recovery` terms.

    Build with :meth:`active` (stress) or :meth:`sleep` (recovery); a
    sequence of segments repeated ``n`` times feeds
    :meth:`FleetChip.apply_cycles`.
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


def _rows(values: np.ndarray, rows: slice, k: int) -> np.ndarray:
    """``rows`` of a per-chip array of a ``k``-chip span; a scalar or a
    single shared row stands for every chip."""
    return values[rows] if values.ndim and values.shape[0] == k else values


def bias_pattern(
    netlist: InverterChainNetlist,
    tech: TechnologyParameters,
    stress: bool,
    supplies,
    temperatures,
    mode: StressMode = StressMode.DC,
    chain_input: int = 1,
    owners: np.ndarray | None = None,
) -> tuple[np.ndarray, float, np.ndarray | None]:
    """Validated per-owner ``(v_stress, duty, v_relax)`` of one bias, for k chips.

    ``supplies`` and ``temperatures`` are scalars or ``(k,)`` arrays; a
    ``None`` supply is the nominal rail under stress and 0 V (power
    gated) in recovery.  Voltages come back as ``(k, n_owners)``: a DC
    stress freezes the ring at ``chain_input``, an AC stress toggles at
    50 % duty between the two complementary static patterns (``v_relax``
    is the off pattern), and a recovery biases every device uniformly.
    An ``owners`` index returns only those owners' columns, bit for bit
    the same as selecting them from the full pattern.
    """
    if supplies is None:
        supplies = tech.vdd_nominal if stress else 0.0
    supplies = np.atleast_1d(np.asarray(supplies, dtype=float))
    if stress:
        if np.any(supplies <= 0.0):
            raise ConfigurationError("stress requires a positive supply; use apply_recovery")
    else:
        # Vectorised range checks; the first failing element, in order,
        # raises through the scalar checks' messages.
        bad = (supplies > 0.0) | (supplies < tech.min_recovery_voltage)
        if bad.any():
            supply = float(supplies[bad.argmax()])
            if supply > 0.0:
                raise ConfigurationError("recovery needs a non-positive supply voltage")
            tech.check_recovery_voltage(supply)
    kelvin = np.atleast_1d(np.asarray(temperatures, dtype=float))
    hot = kelvin > tech.max_accelerated_temperature
    if hot.any():
        tech.check_temperature(float(kelvin[hot.argmax()]))
    column = supplies[:, None]
    select = slice(None) if owners is None else owners
    if not stress:
        width = netlist.n_owners if owners is None else len(owners)
        return np.repeat(column, width, axis=1), 1.0, None
    if mode is StressMode.DC:
        return column * netlist.dc_stress_fractions(chain_input)[select], 1.0, None
    if mode is StressMode.AC:
        pattern_a, pattern_b = netlist.ac_stress_fractions()
        return column * pattern_a[select], 0.5, column * pattern_b[select]
    raise ConfigurationError(f"unknown stress mode {mode!r}")


class FleetChip:
    """N chips of one process, batched.

    Parameters
    ----------
    chip_ids / seeds:
        Parallel sequences naming each lot position and seeding its
        variation + trap draws, so a chip is fully reproducible.
    tech:
        Process constants.
    variation:
        Statistical process spread; each chip samples its own instance so
        fresh frequencies differ chip to chip, as the paper observes.
    n_stages:
        Ring-oscillator length (paper: 75 LUT inverters).
    fabric / location:
        Optional placement of the CUT on the fabric; adds the systematic
        delay gradient of the location to every chip.
    delay_model:
        "first-order" for the paper's Eq. (6) linearisation (default) or
        "alpha-power" for the ablation model (exact fidelity only).
    enable_gated:
        Build the ring with its enable NAND gate.
    fidelity:
        ``"exact"`` (per-trap, bit-identical) or ``"binned"``
        (CET-grid, population-scale).
    bins_per_decade:
        Grid density of the binned fidelity; ignored for exact.
    guard:
        The chips' contract checker (shared with their trap engines):
        one guard for every chip or one per chip; defaults to the
        ambient process guard.  A chip whose clamp budget runs out in a
        span operation stops where it would alone, the rest of the span
        completes, then :class:`~repro.errors.FleetDropoutError` names it.
    tracer:
        Telemetry sink counting trap-state updates; defaults to the
        process tracer (a no-op unless one was installed).
    """

    def __init__(
        self,
        chip_ids,
        seeds,
        *,
        tech: TechnologyParameters = TECH_40NM,
        variation: ProcessVariation | None = None,
        n_stages: int = 75,
        fabric: Fabric | None = None,
        location: Location | None = None,
        delay_model: str = "first-order",
        enable_gated: bool = False,
        fidelity: str = "exact",
        bins_per_decade: float = 3.0,
        guard=None,
        tracer=None,
    ) -> None:
        if len(chip_ids) != len(seeds) or not chip_ids:
            raise ConfigurationError("chip_ids and seeds must be equal-length, non-empty")
        if fidelity not in FIDELITIES:
            raise ConfigurationError(f"fidelity must be one of {FIDELITIES}, got {fidelity!r}")
        if delay_model not in DELAY_MODELS:
            raise ConfigurationError(
                f"delay_model must be 'first-order' or 'alpha-power', got {delay_model!r}"
            )
        if fidelity == "binned" and delay_model != "first-order":
            raise ConfigurationError(
                "the binned fidelity reads the first-order delay model only, "
                f"got delay_model={delay_model!r}"
            )
        systematic = 1.0
        if fabric is not None:
            location = location if location is not None else fabric.center
            systematic = fabric.systematic_multiplier(location)
        elif location is not None:
            raise ConfigurationError("a location requires a fabric")
        self.chip_ids = list(chip_ids)
        self.n_chips = len(self.chip_ids)
        self.tech = tech
        self.fidelity = fidelity
        #: One contract checker per chip.
        self.guards = chip_guards(guard, self.n_chips)
        self._tolerance = verdict_tolerance(self.guards)
        self.tracer = tracer if tracer is not None else get_tracer()
        self.netlist = InverterChainNetlist(n_stages=n_stages, enable_gated=enable_gated)
        variation = variation if variation is not None else ProcessVariation()

        is_pmos = self.netlist.owner_is_pmos
        self._pmos_owners = np.flatnonzero(is_pmos)
        self._nmos_owners = np.flatnonzero(~is_pmos)
        base_weights = self.netlist.delay_weights(tech)

        self._weights = np.empty((self.n_chips, self.netlist.n_owners))
        self.fresh_path_delays = np.empty(self.n_chips)
        #: Per chip, the (pMOS, nMOS) gate-delay models.
        self._delay_models: list[tuple] = []
        model = DELAY_MODELS[delay_model]
        #: Per chip, the (pMOS, nMOS) population streams.
        streams: list[tuple] = []
        for index, seed in enumerate(seeds):
            # Draw order: variation sample first, then the two population
            # child streams.
            rng = np.random.default_rng(seed)
            sample = variation.sample(n_stages, rng=rng)
            stage_multiplier = (
                sample.local_delay_multipliers * sample.delay_multiplier * systematic
            )
            self._weights[index] = base_weights * stage_multiplier[self.netlist.owner_stage]
            self.fresh_path_delays[index] = float(tech.stage_delay * stage_multiplier.sum())
            self._delay_models.append(
                (
                    model(tech.vdd_nominal, tech.vth0_pmos + sample.vth_offset),
                    model(tech.vdd_nominal, tech.vth0_nmos + sample.vth_offset),
                )
            )
            streams.append(tuple(rng.spawn(2)))

        #: Per-chip simulated seconds (each chip's ``FpgaChip.elapsed``).
        self.elapsed = np.zeros(self.n_chips)
        self._trap_updates = self.tracer.counter(
            "bti.trap_updates", "per-transistor trap-population evolutions"
        )
        # Each population's streams are independent, so drawing every
        # chip's pMOS traps before any nMOS trap moves no number; the draws
        # are generated one chip at a time and folded into the state
        # straight away.
        draws_p = (
            draw_population(tech.nbti_traps, self._pmos_owners.size, rng) for rng, _ in streams
        )
        draws_n = (
            draw_population(tech.pbti_traps, self._nmos_owners.size, rng) for _, rng in streams
        )
        if fidelity == "exact":
            self._pmos = FleetTraps(
                tech.nbti_traps, self._pmos_owners.size, draws_p,
                guard=self.guards, tracer=self.tracer,
            )
            self._nmos = FleetTraps(
                tech.pbti_traps, self._nmos_owners.size, draws_n,
                guard=self.guards, tracer=self.tracer,
            )
            # Per-owner ceiling on delta_vth (every trap occupied), in
            # polarity order — the bound of the device.delta_vth contract.
            self._dvth_caps = np.concatenate(
                [self._pmos.max_delta_vth(), self._nmos.max_delta_vth()], axis=1
            )
            self._weights_pmos = self._weights[:, self._pmos_owners]
            self._weights_nmos = self._weights[:, self._nmos_owners]
            bias_p, bias_n = self._pmos_owners, self._nmos_owners
        else:
            # Every owner of a bias class shares its fraction row, so one
            # representative owner's voltage stands for the whole class.
            bias_p, class_of_owner_p = self._owner_classes(self._pmos_owners)
            bias_n, class_of_owner_n = self._owner_classes(self._nmos_owners)
            self._pmos = BinnedFleetTraps(
                TrapGrid(tech.nbti_traps, bias_p.size, bins_per_decade),
                self.n_chips,
                guard=self.guards,
            )
            self._nmos = BinnedFleetTraps(
                TrapGrid(tech.pbti_traps, bias_n.size, bins_per_decade),
                self.n_chips,
                guard=self.guards,
            )
            # A cell's readout weight is the first-order delay sensitivity
            # td0 / (vdd - vth0) of its owners; each chip is binned as
            # soon as it is drawn.
            for pop, owners, classes, chip_draws, side in (
                (self._pmos, self._pmos_owners, class_of_owner_p, draws_p, 0),
                (self._nmos, self._nmos_owners, class_of_owner_n, draws_n, 1),
            ):
                for index, chip_draw in enumerate(chip_draws):
                    gate = self._delay_models[index][side]
                    weight = self._weights[index, owners] / (gate.vdd - gate.vth0)
                    pop.add_chip(index, chip_draw, classes, weight)
        #: The owners whose voltages a phase needs: every owner (exact) or
        #: one per bias class (binned), pMOS first, then nMOS from column
        #: ``_bias_split`` on.
        self._bias_owners = np.concatenate([bias_p, bias_n])
        self._bias_split = bias_p.size
        #: Global owner order from the exact fidelity's polarity order.
        self._owner_order = np.argsort(self._bias_owners)
        self._polarities = (
            (self._pmos, slice(None, self._bias_split)),
            (self._nmos, slice(self._bias_split, None)),
        )

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

    @property
    def guard(self):
        """Chip 0's guard — every chip's when the fleet was built with one."""
        return self.guards[0]

    def _exact(self, what: str) -> None:
        if self.fidelity != "exact":
            raise ConfigurationError(f"{what} needs the exact fidelity")

    # ------------------------------------------------------------------ #
    # bias application (lock-step spans)
    # ------------------------------------------------------------------ #

    def apply_stress(
        self,
        duration: float,
        temperatures,
        supplies,
        mode: StressMode = StressMode.DC,
        chain_input: int = 1,
        chips: slice = slice(None),
    ) -> None:
        """Stress a contiguous chip span for ``duration`` seconds.

        ``temperatures`` (kelvin) and ``supplies`` (volts; ``None`` is the
        nominal rail) are scalars or per-chip delivered values.  DC mode
        freezes the ring at ``chain_input``; AC mode lets it oscillate
        (50 % duty between the two complementary static patterns).  The
        bias pattern is shared: a span always runs one phase.
        """
        lo, hi = contiguous_chips(chips, self.n_chips)
        pattern = bias_pattern(
            self.netlist, self.tech, True, supplies, temperatures, mode, chain_input,
            owners=self._bias_owners,
        )
        self._evolve_span(duration, temperatures, *pattern, lo, hi)

    def apply_recovery(
        self,
        duration: float,
        temperatures,
        supplies,
        chips: slice = slice(None),
    ) -> None:
        """Let a contiguous chip span recover for ``duration`` seconds.

        A supply of 0 is passive recovery (power gated); a negative value
        is the paper's accelerated recovery.  Every device sees the
        recovery bias uniformly.
        """
        lo, hi = contiguous_chips(chips, self.n_chips)
        pattern = bias_pattern(
            self.netlist, self.tech, False, supplies, temperatures, owners=self._bias_owners
        )
        self._evolve_span(duration, temperatures, *pattern, lo, hi)

    def _evolve_span(
        self,
        duration: float,
        temperatures,
        voltages: np.ndarray,
        duty: float,
        relax_voltages: np.ndarray | None,
        lo: int,
        hi: int,
    ) -> None:
        """Age both populations; voltages are ``(k, _bias_owners)`` columns.

        A chip that drops out of its pMOS update skips its nMOS update,
        and a dropped chip's clock stands still, as when it runs alone.
        """
        k = hi - lo
        temperatures = np.asarray(temperatures, dtype=float)
        failed: dict = {}
        for pop, columns in self._polarities:
            for a, b, _ in chip_runs([i for i in range(lo, hi) if i not in failed]):
                rows = slice(a - lo, b - lo)
                relax = None if relax_voltages is None else _rows(relax_voltages, rows, k)
                try:
                    pop.evolve(
                        duration,
                        _rows(voltages, rows, k)[:, columns],
                        _rows(temperatures, rows, k),
                        duty=duty,
                        v_relax=None if relax is None else relax[:, columns],
                        chips=slice(a, b),
                    )
                except FleetDropoutError as error:
                    failed.update(error.errors)
        self._trap_updates.inc(self.netlist.n_owners * (k - len(failed)))
        for a, b, _ in chip_runs([i for i in range(lo, hi) if i not in failed]):
            advance_clocks(self.elapsed, slice(a, b), duration)
        if failed:
            raise FleetDropoutError(failed)

    def apply_cycles(
        self, segments: Sequence[CycleSegment], n: int, chips: slice = slice(None)
    ) -> None:
        """Advance a chip span through ``n`` repetitions of a segment sequence.

        Uses the closed-form affine composition of
        :meth:`~repro.bti.traps.FleetTraps.evolve_cycles` — exact (the
        same piecewise-constant physics as calling :meth:`apply_stress` /
        :meth:`apply_recovery` in a loop) but O(1) in ``n``.  Only valid
        when every cycle really is identical: any per-cycle feedback
        (adaptive duty, jittered instruments) must stay on the loop path.
        """
        self._exact("apply_cycles")
        lo, hi = contiguous_chips(chips, self.n_chips)
        # Every segment's bias is validated before any state moves.
        _check_cycles(segments, n)
        legs: list[list[CyclePhase]] = [[] for _ in self._polarities]
        for segment in segments:
            v_stress, duty, v_relax = bias_pattern(
                self.netlist, self.tech, segment.stress, segment.supply_voltage,
                segment.temperature, segment.mode, segment.chain_input,
                owners=self._bias_owners,
            )
            v_relax = np.zeros_like(v_stress) if v_relax is None else v_relax
            for (_, columns), phases in zip(self._polarities, legs):
                phases.append(
                    CyclePhase(
                        duration=segment.duration,
                        stress_voltage=v_stress[0, columns],
                        temperature=segment.temperature,
                        duty=duty,
                        relax_voltage=v_relax[0, columns],
                    )
                )
        if n == 0:
            return
        span = slice(lo, hi)
        for (pop, _), phases in zip(self._polarities, legs):
            pop.evolve_cycles(phases, n, chips=span)
        self._trap_updates.inc(self.netlist.n_owners * len(segments) * n * (hi - lo))
        advance_clocks(self.elapsed, span, n * sum(segment.duration for segment in segments))

    # ------------------------------------------------------------------ #
    # observables
    # ------------------------------------------------------------------ #

    def _shifts(self, lo: int, hi: int, guards, tolerance) -> tuple[np.ndarray, dict]:
        """Checked ``(k, n_owners)`` threshold shifts, pMOS owners first.

        Contract: each shift lives in ``[0, sum of that owner's trap
        impacts]`` — BTI only raises Vth, and a fully occupied population
        is the worst case.  Returns the shifts and the chips whose budget
        ran out on the check.
        """
        span = slice(lo, hi)
        shifts = np.concatenate(
            [self._pmos.delta_vth(span), self._nmos.delta_vth(span)], axis=1
        )
        if tolerance is None:
            return shifts, {}
        caps = self._dvth_caps[span]
        if np.all(shifts >= -tolerance) and np.all(shifts <= caps + tolerance):
            return shifts, {}
        return shifts, consult_chips(
            guards,
            range(lo, hi),
            lambda index, guard: guard.check_array(
                "device.delta_vth",
                shifts[index - lo],
                0.0,
                caps[index - lo],
                inputs=lambda: {
                    "chip": self.chip_ids[index],
                    "fleet_chips": 1,
                    "elapsed": float(self.elapsed[index]),
                },
            ),
        )

    def delta_vth_all(self, chips: slice = slice(None)) -> np.ndarray:
        """Per-chip per-owner threshold shifts (volts), ``(k, n_owners)``,
        in global owner order (exact only)."""
        self._exact("per-owner delta_vth")
        lo, hi = contiguous_chips(chips, self.n_chips)
        shifts, failed = self._shifts(lo, hi, self.guards, self._tolerance)
        if failed:
            raise FleetDropoutError(failed)
        return shifts.take(self._owner_order, axis=1)

    def path_delays(self, chips: slice = slice(None), guard=None) -> np.ndarray:
        """Per-chip CUT delay in seconds (half the oscillation period), ``(k,)``.

        Exact fidelity maps each chip's shifts through its gate-delay
        models, which check the ``device.dvth`` domain against the
        ambient guard; binned fidelity reads the pooled linear observable
        of each population.  Contract: finite and never below the fresh
        delay — aging only slows the CUT, and a full recovery
        asymptotically returns to (but never overshoots) the fresh chip.
        ``guard`` checks every chip instead of the chips' own guards.  A
        chip that drops out of the read raises
        :class:`~repro.errors.FleetDropoutError` with the span's delays
        (NaN where a dropped chip's shifts stopped the read).
        """
        lo, hi = contiguous_chips(chips, self.n_chips)
        if guard is None:
            guards, tolerance = self.guards, self._tolerance
        else:
            guards, tolerance = chip_guards(guard, self.n_chips), verdict_tolerance([guard])
        span = slice(lo, hi)
        fresh = self.fresh_path_delays[span]
        failed: dict = {}
        if self.fidelity == "exact":
            shifts, failed = self._shifts(lo, hi, guards, tolerance)
            split = self._bias_split
            delays = np.full(hi - lo, np.nan)
            for row, (model_p, model_n) in enumerate(self._delay_models[span]):
                if lo + row in failed:
                    continue
                pmos_shift = np.sum(
                    model_p.delay_shift(self._weights_pmos[lo + row], shifts[row, :split])
                )
                nmos_shift = np.sum(
                    model_n.delay_shift(self._weights_nmos[lo + row], shifts[row, split:])
                )
                delays[row] = float(fresh[row]) + float(pmos_shift) + float(nmos_shift)
        else:
            delays = fresh + self._pmos.readout_shift(span) + self._nmos.readout_shift(span)
        if tolerance is not None and not (
            bool(np.isfinite(delays).all()) and bool((delays >= fresh - 1e-9 * fresh).all())
        ):
            # The vectorised verdict is check_scalar's; only a violating
            # span pays for one check per chip.
            def check(index: int, guard) -> None:
                row = index - lo
                floor = float(fresh[row])
                delays[row] = guard.check_scalar(
                    "fpga.path_delay",
                    float(delays[row]),
                    floor,
                    np.inf,
                    tol=1e-9 * floor,
                    inputs=lambda: {
                        "chip": self.chip_ids[index],
                        "fresh": floor,
                        "elapsed": float(self.elapsed[index]),
                    },
                )

            alive = [index for index in range(lo, hi) if index not in failed]
            failed.update(consult_chips(guards, alive, check))
        if failed:
            raise FleetDropoutError(failed, delays)
        return delays

    def frequencies(self, chips: slice = slice(None)) -> np.ndarray:
        """Per-chip noise-free RO frequency ``1 / (2 * path_delay)``.

        A dropped chip raises :class:`~repro.errors.FleetDropoutError`
        with the span's frequencies.
        """
        try:
            return 1.0 / (2.0 * self.path_delays(chips))
        except FleetDropoutError as error:
            error.values = 1.0 / (2.0 * error.values)
            raise

    # ------------------------------------------------------------------ #
    # per-chip state (checkpoint / sanitizer / fault surface)
    # ------------------------------------------------------------------ #

    def export_chip_state(self, index: int) -> dict:
        """One chip's aging state as plain arrays/floats, for checkpoints.

        Everything mutable lives here: the two trap occupancies and the
        three clocks.  The immutable parts (variation sample, netlist,
        weights) are reproduced exactly by rebuilding the chip from the
        same seed, so a checkpoint never stores them.
        """
        return {
            "pmos_occupancy": self._pmos.occupancy_row(index),
            "pmos_elapsed": float(self._pmos.elapsed[index]),
            "nmos_occupancy": self._nmos.occupancy_row(index),
            "nmos_elapsed": float(self._nmos.elapsed[index]),
            "elapsed": float(self.elapsed[index]),
        }

    def import_chip_state(self, index: int, state: dict) -> None:
        """Restore one chip's state from :meth:`export_chip_state`.

        The chip must have been built from the same seed/technology — the
        occupancy shapes are validated against this chip's populations.
        """
        self._pmos.set_occupancy_row(
            index, state["pmos_occupancy"], float(state["pmos_elapsed"])
        )
        self._nmos.set_occupancy_row(
            index, state["nmos_occupancy"], float(state["nmos_elapsed"])
        )
        self.elapsed[index] = float(state["elapsed"])

    def reset_chip(self, index: int) -> None:
        """Return one lot position to the fresh, unaged state."""
        for pop in (self._pmos, self._nmos):
            pop.set_occupancy_row(index, np.zeros_like(pop.occupancy_row(index)), 0.0)
        self.elapsed[index] = 0.0

    def inject_trap_upset_chip(self, index: int, value: float, n_traps: int = 64) -> None:
        """Corrupt the leading trap occupancies of one chip's populations.

        Fault-injection hook for the lab's ``TRAP_UPSET`` events: writes
        ``value`` (typically NaN or an out-of-domain occupancy) straight
        into the state, bypassing the physics.  The corruption surfaces at
        the next evolve step through the :mod:`repro.guard` contracts.
        """
        self._pmos.inject_upset(index, value, n_traps)
        self._nmos.inject_upset(index, value, n_traps)

    def view(self, index: int):
        """The :class:`~repro.fpga.chip.FpgaChip` facade of one lot position.

        On a binned lot the per-owner reads (``delta_vth``,
        ``apply_cycles``) refuse with :class:`ConfigurationError`.
        """
        from repro.fpga.chip import FpgaChip  # the facade module imports this one

        if not 0 <= index < self.n_chips:
            raise ConfigurationError(f"chip index {index} outside this fleet")
        return FpgaChip._of(self, index)
