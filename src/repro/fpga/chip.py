"""A virtual 40 nm FPGA chip: netlist + process variation + trap aging.

:class:`FpgaChip` is the library's replacement for the paper's physical
devices and exposes the observables the paper measures: CUT path delay
and ring-oscillator frequency.  It is a view of one position of a
:class:`~repro.fpga.fleet.FleetChip`, which holds the chip's trap state
(one population per BTI polarity: NBTI for the PMOS devices, PBTI for
the NMOS pass/pulldown devices), its variation and its delay models.  A
standalone chip is position 0 of its own one-chip exact fleet;
:meth:`FleetChip.view <repro.fpga.fleet.FleetChip.view>` binds the same
facade to a position of a larger lot.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.device.technology import TechnologyParameters, TECH_40NM
from repro.device.variation import ProcessVariation
from repro.fpga.fabric import Fabric, Location
from repro.fpga.fleet import CycleSegment, FleetChip, bias_pattern
from repro.fpga.ring_oscillator import StressMode

__all__ = ["CycleSegment", "FpgaChip", "bias_pattern"]


class FpgaChip:
    """One virtual chip under test.

    Parameters
    ----------
    chip_id:
        Label used in campaign data logs ("chip-1" .. "chip-5").
    seed:
        Seeds both the variation draw and the trap populations, making a
        chip fully reproducible.

    Every other parameter (``n_stages``, ``tech``, ``variation``,
    ``fabric``/``location``, ``delay_model``, ``enable_gated``,
    ``tracer``, ``guard``) is :class:`~repro.fpga.fleet.FleetChip`'s.
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
        fleet = FleetChip(
            [chip_id],
            [seed],
            tech=tech,
            variation=variation,
            n_stages=n_stages,
            fabric=fabric,
            location=location,
            delay_model=delay_model,
            enable_gated=enable_gated,
            guard=guard,
            tracer=tracer,
        )
        self._bind(fleet, 0)

    @classmethod
    def _of(cls, fleet: FleetChip, index: int) -> "FpgaChip":
        """The facade of position ``index`` of ``fleet``."""
        chip = cls.__new__(cls)
        chip._bind(fleet, index)
        return chip

    def _bind(self, fleet: FleetChip, index: int) -> None:
        self._fleet = fleet
        self._index = index
        self._chips = slice(index, index + 1)
        self.chip_id = fleet.chip_ids[index]
        self.tech = fleet.tech
        self.netlist = fleet.netlist
        #: Total number of aging transistors on the CUT.
        self.n_owners = fleet.netlist.n_owners
        #: The chip's contract checker (its fleet guard, shared with its
        #: trap populations and ring oscillator).
        self.guard = fleet.guards[index]
        self.fresh_path_delay = float(fleet.fresh_path_delays[index])

    # ------------------------------------------------------------------ #
    # observables
    # ------------------------------------------------------------------ #

    @property
    def elapsed(self) -> float:
        """Simulated seconds the chip has lived through."""
        return float(self._fleet.elapsed[self._index])

    def delta_vth(self) -> np.ndarray:
        """Per-owner expected threshold shift (volts), global owner order."""
        return self._fleet.delta_vth_all(self._chips)[0]

    def path_delay(self) -> float:
        """Current CUT delay in seconds (half the oscillation period)."""
        return float(self._fleet.path_delays(self._chips)[0])

    def delta_path_delay(self) -> float:
        """Delay increase versus the fresh chip (paper's dTd)."""
        return self.path_delay() - self.fresh_path_delay

    def oscillation_frequency(self) -> float:
        """Ring-oscillator frequency ``1 / (2 * path_delay)`` in Hz."""
        return 1.0 / (2.0 * self.path_delay())

    # ------------------------------------------------------------------ #
    # bias application
    # ------------------------------------------------------------------ #

    def apply_stress(
        self,
        duration: float,
        temperature: float,
        supply_voltage: float | None = None,
        mode: StressMode = StressMode.DC,
        chain_input: int = 1,
    ) -> None:
        """Stress the CUT for ``duration`` seconds (see ``FleetChip.apply_stress``).

        ``supply_voltage`` defaults to the nominal rail.
        """
        self._fleet.apply_stress(
            duration, temperature, supply_voltage, mode, chain_input, chips=self._chips
        )

    def apply_recovery(
        self, duration: float, temperature: float, supply_voltage: float = 0.0
    ) -> None:
        """Let the CUT recover for ``duration`` seconds.

        ``supply_voltage`` of 0 is passive recovery (power gated); a
        negative value is the paper's accelerated recovery.
        """
        self._fleet.apply_recovery(duration, temperature, supply_voltage, chips=self._chips)

    def apply_cycles(self, segments: Sequence[CycleSegment], n: int) -> None:
        """``n`` repetitions of a fixed segment sequence, O(1) in ``n``
        (see ``FleetChip.apply_cycles``)."""
        self._fleet.apply_cycles(segments, n, chips=self._chips)

    # ------------------------------------------------------------------ #
    # state management
    # ------------------------------------------------------------------ #

    def export_state(self) -> dict[str, np.ndarray | float]:
        """Aging state as plain arrays/floats, for on-disk checkpoints."""
        return self._fleet.export_chip_state(self._index)

    def import_state(self, state: dict) -> None:
        """Restore a state produced by :meth:`export_state`."""
        self._fleet.import_chip_state(self._index, state)

    #: What-if runs snapshot and restore the checkpoint form.
    snapshot = export_state
    restore = import_state

    def reset(self) -> None:
        """Return the chip to the fresh, unaged state."""
        self._fleet.reset_chip(self._index)

    def inject_trap_upset(self, value: float, n_traps: int = 64) -> None:
        """Corrupt the leading trap occupancies of both populations
        (see ``FleetChip.inject_trap_upset_chip``)."""
        self._fleet.inject_trap_upset_chip(self._index, value, n_traps)
