"""Struct-of-arrays trap engine: one ``evolve`` call ages a wafer lot.

:class:`TrapPopulation` simulates one chip's traps; campaigns over many
chips pay the full numpy dispatch and guard overhead once per chip per
chunk.  This module batches the same physics across chips:

* :class:`FleetTraps` — the *exact* engine.  Per-chip trap arrays (drawn
  with :func:`draw_population`, stream-identical to
  ``TrapPopulation.__init__``) are concatenated into flat struct-of-arrays
  state with a global owner index, so one elementwise update advances
  every trap of every chip.  Because the update is elementwise and numpy
  elementwise kernels are value-identical across slicing/concatenation,
  the exact engine is bit-identical to evolving each chip's
  :class:`TrapPopulation` on its own — the fleet facade-equivalence
  contract (see ``tests/fpga/test_fleet_facade.py``).

* :class:`BinnedFleetTraps` — the *population-scale* engine.  Each chip's
  traps are quantised onto a shared log-log (tau_c, tau_e) grid per
  bias-class (owners whose voltage history is identical in every phase
  pool their traps), so occupancy state shrinks from ~43k traps to a few
  thousand cells per chip and the whole lot evolves as one
  ``(n_chips, n_cells)`` array.  Tau quantisation (default 3 bins per
  decade, a <15 % rounding of log-uniformly drawn constants) is the only
  approximation; it is statistically invisible in population
  distributions but *not* bit-identical to the exact engine — use it for
  10k-chip fleets, never for bit-identity checks.

Both engines call the trap-physics kernel of :mod:`repro.bti.traps`
(voltage factors, occupancy update; the exact engine also the rate
memo, scalar Arrhenius factors, duty mix and cycle closed form), so
there is one rate model.  The binned engine keeps its own float32 duty
mix and vectorised Arrhenius factors: it never claims bit-identity.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bti.traps import (
    CyclePhase,
    RateMemo,
    TrapDraws,
    TrapParameters,
    _affine_step,
    _arrhenius,
    _check_cycles,
    _check_phase,
    _compose_cycles,
    _draw_population,
    _rate_entry,
    _rate_key,
    _rates_into,
    _voltage_factors,
)
from repro.errors import ConfigurationError
from repro.guard import get_guard
from repro.units import BOLTZMANN_EV

def draw_population(
    params: TrapParameters, n_owners: int, rng: np.random.Generator
) -> TrapDraws:
    """Draw one population's constants, stream-identical to ``TrapPopulation``.

    A function of its own rather than an alias of the kernel's draw:
    ``perfbench/tracing.py`` times this name as fleet lot setup, which
    must not also catch ``TrapPopulation``'s draws.
    """
    return _draw_population(params, n_owners, rng)


def contiguous_chips(chips: slice, n_chips: int) -> tuple[int, int]:
    """``(lo, hi)`` of a chip slice; strided or empty slices are refused."""
    lo, hi, step = chips.indices(n_chips)
    if step != 1 or hi <= lo:
        raise ConfigurationError("fleet chip slices must be contiguous and non-empty")
    return lo, hi


class FleetTraps:
    """Exact struct-of-arrays ensemble: N same-netlist chips, one polarity.

    Parameters
    ----------
    params:
        Shared :class:`TrapParameters` (all chips are the same process).
    n_owners:
        Owners *per chip* for this polarity.
    draws:
        One :class:`TrapDraws` per chip, in fleet order.
    guard:
        Contract checker for the batched updates; defaults to the
        ambient guard.  Per-call override via the ``guard=`` argument of
        the evolve methods keeps per-chip budgets possible through the
        :class:`~repro.fpga.fleet.ChipView` facade.
    """

    def __init__(
        self,
        params: TrapParameters,
        n_owners: int,
        draws: Sequence[TrapDraws],
        guard=None,
        tracer=None,
    ) -> None:
        if n_owners <= 0:
            raise ConfigurationError(f"n_owners must be positive, got {n_owners}")
        if not draws:
            raise ConfigurationError("a fleet needs at least one chip")
        self.params = params
        self.n_owners = n_owners
        self.n_chips = len(draws)
        trap_counts = np.array([d.n_traps for d in draws], dtype=np.int64)
        self.trap_counts = trap_counts
        #: trap_offsets[i]:trap_offsets[i+1] is chip i's span in the flat arrays.
        self.trap_offsets = np.concatenate(([0], np.cumsum(trap_counts)))
        self.owner_global = np.concatenate(
            [d.owner + index * n_owners for index, d in enumerate(draws)]
        )
        tau_c0 = np.concatenate([d.tau_c0 for d in draws])
        tau_e0 = np.concatenate([d.tau_e0 for d in draws])
        self.impact = np.concatenate([d.impact for d in draws])
        self._inv_tau_c0 = 1.0 / tau_c0
        self._inv_tau_e0 = 1.0 / tau_e0
        n_total = int(trap_counts.sum())
        self.occupancy = np.zeros(n_total)
        #: Per-chip simulated seconds, advanced exactly like
        #: ``TrapPopulation.elapsed`` (same scalar additions, same order).
        self.elapsed = np.zeros(self.n_chips)
        self._scratch_total = np.empty(n_total)
        self._scratch_pinf = np.empty(n_total)
        self._scratch_weights = np.empty(n_total)
        self._guard = guard if guard is not None else get_guard()
        self._memo = RateMemo(tracer)

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #

    @property
    def n_traps(self) -> int:
        """Total trap count across the whole fleet."""
        return self.owner_global.size

    def _span(self, chips: slice) -> tuple[slice, int, int]:
        """(trap span, first chip, chip count) of a contiguous chip slice."""
        lo, hi = contiguous_chips(chips, self.n_chips)
        return slice(int(self.trap_offsets[lo]), int(self.trap_offsets[hi])), lo, hi - lo

    def _gather_index(self, trap_span: slice, lo: int) -> np.ndarray:
        """Owner-gather index local to a chip span's flat owner block."""
        if lo == 0:
            return self.owner_global[trap_span]
        return self.owner_global[trap_span] - lo * self.n_owners

    # ------------------------------------------------------------------ #
    # physics
    # ------------------------------------------------------------------ #

    def _owner_block(self, voltage, k: int) -> np.ndarray:
        """A scalar, per-owner or ``(k, n_owners)`` bias as one flat block."""
        try:
            block = np.broadcast_to(np.asarray(voltage, dtype=float), (k, self.n_owners))
        except ValueError:
            raise ConfigurationError(
                f"voltages must broadcast to ({k}, {self.n_owners}), "
                f"got shape {np.shape(voltage)}"
            ) from None
        return block.ravel()

    def _rates(
        self,
        v_stress,
        temperatures,
        duty: float,
        v_relax,
        trap_span: slice,
        lo: int,
        k: int,
        guard,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Duty-averaged per-trap rates for a contiguous chip span.

        Temperatures are per chip (a scalar applies to the whole span);
        each chip's scalar Arrhenius factors scale its trap block.  The
        span goes through the kernel's rate memo, keyed by its first chip
        and flat bias block, and the rates are written into the span's
        scratch buffers like ``TrapPopulation._effective_rates``.
        """
        temperatures = np.asarray(temperatures, dtype=float)
        if temperatures.ndim == 0:
            temperatures = np.full(k, float(temperatures))
        if temperatures.shape != (k,):
            raise ConfigurationError(
                f"temperatures must have shape ({k},), got {temperatures.shape}"
            )
        v_stress = self._owner_block(v_stress, k)
        if duty >= 1.0:  # callers validate duty <= 1.0, so this is pure DC
            v_relax = None
        else:
            v_relax = self._owner_block(0.0 if v_relax is None else v_relax, k)
        bounds = (self.trap_offsets[lo : lo + k + 1] - trap_span.start).tolist()
        entry = self._memo.lookup(
            _rate_key(lo, v_stress, duty, v_relax),
            lambda: _rate_entry(
                self.params, v_stress, duty, v_relax,
                self._inv_tau_c0[trap_span], self._inv_tau_e0[trap_span],
                self._gather_index(trap_span, lo), bounds,
            ),
        )
        return _rates_into(
            entry,
            bounds,
            [_arrhenius(self.params, t) for t in temperatures.tolist()],
            self._scratch_pinf[trap_span],
            self._scratch_total[trap_span],
            guard,
            lambda: {"duty": float(duty), "fleet_chips": int(k)},
        )

    def evolve(
        self,
        duration: float,
        v_stress: np.ndarray,
        temperatures: np.ndarray,
        duty: float = 1.0,
        v_relax: np.ndarray | None = None,
        chips: slice = slice(None),
        guard=None,
    ) -> None:
        """Advance every trap of a chip span through one phase.

        ``v_stress`` / ``v_relax`` are ``(k, n_owners)`` per-chip voltage
        patterns and ``temperatures`` the per-chip delivered kelvin.  The
        rates and the in-place update are the kernel ``TrapPopulation``
        uses, so each chip's occupancy row is bit-identical to evolving
        it alone.
        """
        _check_phase(duration, duty)
        if duration <= 0.0:
            return
        guard = guard if guard is not None else self._guard
        trap_span, lo, k = self._span(chips)
        capture, emission = self._rates(
            v_stress, temperatures, duty, v_relax, trap_span, lo, k, guard
        )
        occupancy = self.occupancy[trap_span]
        _affine_step(
            occupancy, capture, emission, duration,
            self._scratch_total[trap_span], self._scratch_pinf[trap_span],
        )
        self.elapsed[lo : lo + k] += duration
        if guard.checking:
            guard.check_array(
                "bti.occupancy",
                occupancy,
                0.0,
                1.0,
                inputs=lambda: {
                    "op": "fleet.evolve",
                    "duration": float(duration),
                    "duty": float(duty),
                    "fleet_chips": int(k),
                },
                arrays=lambda: {
                    "occupancy": occupancy,
                    "temperatures": np.asarray(temperatures, dtype=float),
                },
            )

    def evolve_cycles(
        self, phases: Sequence[CyclePhase], n: int, chips: slice = slice(None), guard=None
    ) -> None:
        """``n`` repetitions of a fixed phase sequence, O(1) in ``n``.

        Phases carry ``(k, n_owners)`` voltages and ``(k,)`` temperatures
        for the span; the closed form is ``TrapPopulation.evolve_cycles``'
        kernel, so per-chip rows are bit-identical to the single-chip path.
        """
        _check_cycles(phases, n)
        if n == 0:
            return
        guard = guard if guard is not None else self._guard
        trap_span, lo, k = self._span(chips)
        self.occupancy[trap_span], period = _compose_cycles(
            self.occupancy[trap_span],
            phases,
            n,
            lambda phase: self._rates(
                phase.stress_voltage, phase.temperature, phase.duty,
                phase.relax_voltage, trap_span, lo, k, guard,
            ),
        )
        self.elapsed[lo : lo + k] += n * period
        if guard.checking:
            guard.check_array(
                "bti.occupancy",
                self.occupancy[trap_span],
                0.0,
                1.0,
                inputs=lambda: {
                    "op": "fleet.evolve_cycles",
                    "n": int(n),
                    "period": float(period),
                    "fleet_chips": int(k),
                },
            )

    # ------------------------------------------------------------------ #
    # observables / state
    # ------------------------------------------------------------------ #

    def delta_vth(self, chips: slice = slice(None)) -> np.ndarray:
        """Per-chip per-owner expected threshold shift, ``(k, n_owners)``.

        One bincount over the span's traps; row ``i`` is bit-identical to
        ``TrapPopulation.delta_vth`` on chip ``lo + i`` alone.
        """
        trap_span, lo, k = self._span(chips)
        weights = np.multiply(
            self.occupancy[trap_span],
            self.impact[trap_span],
            out=self._scratch_weights[trap_span],
        )
        counts = np.bincount(
            self._gather_index(trap_span, lo),
            weights=weights,
            minlength=k * self.n_owners,
        )
        return counts.reshape(k, self.n_owners)

    def max_delta_vth(self, chips: slice = slice(None)) -> np.ndarray:
        """Per-chip per-owner ceiling on :meth:`delta_vth` (all traps occupied)."""
        trap_span, lo, k = self._span(chips)
        counts = np.bincount(
            self._gather_index(trap_span, lo),
            weights=self.impact[trap_span],
            minlength=k * self.n_owners,
        )
        return counts.reshape(k, self.n_owners)

    def occupancy_row(self, index: int) -> np.ndarray:
        """Copy of one chip's occupancy slice (checkpoint/export form)."""
        span = slice(int(self.trap_offsets[index]), int(self.trap_offsets[index + 1]))
        return self.occupancy[span].copy()

    def set_occupancy_row(self, index: int, occupancy: np.ndarray, elapsed: float) -> None:
        """Restore one chip's occupancy slice (checkpoint/import form)."""
        span = slice(int(self.trap_offsets[index]), int(self.trap_offsets[index + 1]))
        occupancy = np.asarray(occupancy, dtype=float)
        if occupancy.shape != (span.stop - span.start,):
            raise ConfigurationError("snapshot does not match this fleet population")
        self.occupancy[span] = occupancy
        self.elapsed[index] = float(elapsed)

    def inject_upset(self, index: int, value: float, n_traps: int = 64) -> None:
        """Fault-injection hook: corrupt the head of one chip's trap span."""
        start = int(self.trap_offsets[index])
        count = min(int(n_traps), int(self.trap_counts[index]))
        self.occupancy[start : start + count] = value


# ---------------------------------------------------------------------- #
# population-scale (binned) engine
# ---------------------------------------------------------------------- #


class TrapGrid:
    """Shared log-log (tau_c, tau_e) x bias-class grid for one polarity.

    The grid covers exactly the draw bounds of ``params`` (draws are
    log-uniform inside them by construction).  A cell's representative
    time constants are the geometric centres of its bin; quantising a
    trap onto its cell moves each tau by at most half a bin width.
    Cells are laid out ``(class, tau_c bin, tau_e bin)`` row-major, so a
    cell's capture rate depends only on its (class, tau_c bin) and its
    emission rate only on its (class, tau_e bin).
    """

    def __init__(
        self,
        params: TrapParameters,
        n_classes: int,
        bins_per_decade: float = 3.0,
        dtype=np.float32,
    ) -> None:
        if n_classes <= 0:
            raise ConfigurationError(f"n_classes must be positive, got {n_classes}")
        if bins_per_decade <= 0.0:
            raise ConfigurationError("bins_per_decade must be positive")
        self.params = params
        self.n_classes = n_classes
        self.bins_per_decade = bins_per_decade
        self.dtype = np.dtype(dtype)
        self._log_lo_c, self._n_c, centres_c = self._axis(params.tau_capture_bounds)
        self._log_lo_e, self._n_e, centres_e = self._axis(params.tau_emission_bounds)
        #: ``(n_classes, n_c, n_e)``: the cell layout as an array shape.
        self.shape = (n_classes, self._n_c, self._n_e)
        self.n_cells = n_classes * self._n_c * self._n_e
        #: Representative rates of the tau_c and tau_e bins.
        self.inv_c_axis = (1.0 / centres_c).astype(self.dtype)
        self.inv_e_axis = (1.0 / centres_e).astype(self.dtype)

    def _axis(self, bounds: tuple[float, float]) -> tuple[float, int, np.ndarray]:
        lo, hi = bounds
        decades = np.log10(hi) - np.log10(lo)
        n_bins = max(1, int(np.ceil(decades * self.bins_per_decade)))
        width = decades / n_bins
        centres = 10.0 ** (np.log10(lo) + (np.arange(n_bins) + 0.5) * width)
        return np.log10(lo), n_bins, centres

    def cell_ids(
        self, draws: TrapDraws, class_of_owner: np.ndarray
    ) -> np.ndarray:
        """Cell index of every trap in ``draws`` (for weight accumulation)."""
        decades_c = np.log10(self.params.tau_capture_bounds[1]) - self._log_lo_c
        decades_e = np.log10(self.params.tau_emission_bounds[1]) - self._log_lo_e
        ic = np.floor(
            (np.log10(draws.tau_c0) - self._log_lo_c) / decades_c * self._n_c
        ).astype(np.int64)
        ie = np.floor(
            (np.log10(draws.tau_e0) - self._log_lo_e) / decades_e * self._n_e
        ).astype(np.int64)
        np.clip(ic, 0, self._n_c - 1, out=ic)
        np.clip(ie, 0, self._n_e - 1, out=ie)
        cls = class_of_owner[draws.owner]
        return (cls * self._n_c + ic) * self._n_e + ie


class BinnedFleetTraps:
    """Quantised-ensemble fleet state: ``(n_chips, n_cells)`` occupancy.

    Each chip contributes per-cell *readout weights* (sums of
    impact x delay-sensitivity over the traps that landed in the cell),
    so the chip-level observable collapses to one dot product per chip.
    Rates are factored: per (chip, bias-class) field/Arrhenius factors
    times the grid's per-axis representative rates give ``(k, classes,
    n_c)`` capture and ``(k, classes, n_e)`` emission rates, duty-mixed
    at that size and expanded once onto the cells for the occupancy
    update — the same model as the exact engine, evaluated at the
    cells' representative time constants, in the grid's dtype.
    """

    def __init__(self, grid: TrapGrid, n_chips: int, guard=None) -> None:
        if n_chips <= 0:
            raise ConfigurationError(f"n_chips must be positive, got {n_chips}")
        self.grid = grid
        self.n_chips = n_chips
        self.dtype = grid.dtype
        self.occupancy = np.zeros((n_chips, grid.n_cells), dtype=self.dtype)
        self.readout_weight = np.zeros((n_chips, grid.n_cells), dtype=self.dtype)
        self.elapsed = np.zeros(n_chips)
        self._guard = guard if guard is not None else get_guard()
        # Per-cell rate buffers, shaped (chip, class, tau_c bin, tau_e bin)
        # so the per-axis rates expand into them by broadcasting.
        self._b_rc = np.empty((n_chips, *grid.shape), dtype=self.dtype)
        self._b_re = np.empty((n_chips, *grid.shape), dtype=self.dtype)

    def add_chip(
        self, index: int, draws: TrapDraws, class_of_owner: np.ndarray, owner_weight: np.ndarray
    ) -> None:
        """Bin one chip's draws: readout weight = impact x owner sensitivity."""
        cells = self.grid.cell_ids(draws, class_of_owner)
        weights = draws.impact * owner_weight[draws.owner]
        row = np.bincount(cells, weights=weights, minlength=self.grid.n_cells)
        self.readout_weight[index] = row.astype(self.dtype)

    def _axis_rates(
        self, v_class: np.ndarray, arr_c: np.ndarray, arr_e: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(k, classes, n_c)`` capture and ``(k, classes, n_e)`` emission rates."""
        vfac_c, vfac_e = _voltage_factors(self.grid.params, v_class)
        fac_c = (vfac_c * arr_c[:, None]).astype(self.dtype)
        fac_e = (vfac_e * arr_e[:, None]).astype(self.dtype)
        return fac_c[:, :, None] * self.grid.inv_c_axis, fac_e[:, :, None] * self.grid.inv_e_axis

    def evolve(
        self,
        duration: float,
        v_class: np.ndarray,
        temperatures: np.ndarray,
        duty: float = 1.0,
        v_class_relax: np.ndarray | None = None,
        chips: slice = slice(None),
    ) -> None:
        """Advance a chip span; ``v_class`` is ``(k, n_classes)`` volts.

        With ``duty < 1`` the off fraction sits at ``v_class_relax`` and
        the rates are duty-averaged (including the AC capture
        suppression) like the exact engines', in the state's dtype.
        """
        _check_phase(duration, duty)
        if duration <= 0.0:
            return
        lo, hi = contiguous_chips(chips, self.n_chips)
        temperatures = np.asarray(temperatures, dtype=float)
        p = self.grid.params
        inv_kt = 1.0 / (BOLTZMANN_EV * temperatures)
        inv_kt_ref = 1.0 / (BOLTZMANN_EV * p.reference_temperature)
        # Population-scale engine: vectorised exp is deliberate — the
        # binned fidelity never claims bit-identity with the scalar path.
        arr_c = np.exp(np.minimum(-p.ea_capture_ev * (inv_kt - inv_kt_ref), 700.0))  # repro: noqa[RPR006]
        arr_e = np.exp(np.minimum(-p.ea_emission_ev * (inv_kt - inv_kt_ref), 700.0))  # repro: noqa[RPR006]
        rc, re = self._axis_rates(np.asarray(v_class, dtype=float), arr_c, arr_e)
        if duty < 1.0:
            relax = (
                np.zeros_like(v_class)
                if v_class_relax is None
                else np.asarray(v_class_relax, dtype=float)
            )
            off_c, off_e = self._axis_rates(relax, arr_c, arr_e)
            suppression = self.dtype.type(
                p.ac_capture_suppression ** (1.0 - duty)
            )
            off_weight = self.dtype.type(1.0 - duty)
            np.multiply(rc, self.dtype.type(duty) * suppression, out=rc)
            np.multiply(off_c, off_weight, out=off_c)
            rc += off_c
            np.multiply(re, self.dtype.type(duty), out=re)
            np.multiply(off_e, off_weight, out=off_e)
            re += off_e
        # One expansion onto the cells: the update's inner loops stay long.
        capture = self._b_rc[lo:hi]
        emission = self._b_re[lo:hi]
        np.copyto(capture, rc[:, :, :, None])
        np.copyto(emission, re[:, :, None, :])
        capture = capture.reshape(hi - lo, -1)
        emission = emission.reshape(hi - lo, -1)
        occupancy = self.occupancy[lo:hi]
        _affine_step(occupancy, capture, emission, self.dtype.type(duration), emission, capture)
        self.elapsed[lo:hi] += duration
        guard = self._guard
        if guard.checking:
            guard.check_array(
                "bti.occupancy",
                occupancy,
                0.0,
                1.0,
                inputs=lambda: {
                    "op": "fleet.binned_evolve",
                    "duration": float(duration),
                    "duty": float(duty),
                    "fleet_chips": int(hi - lo),
                },
            )

    def readout_shift(self, chips: slice = slice(None)) -> np.ndarray:
        """Per-chip delay shift: one dot product of occupancy x weights."""
        lo, hi = contiguous_chips(chips, self.n_chips)
        shift = np.einsum(
            "ij,ij->i", self.occupancy[lo:hi], self.readout_weight[lo:hi]
        )
        return shift.astype(float)

    def occupancy_row(self, index: int) -> np.ndarray:
        """Copy of one chip's cell occupancy (export form)."""
        return self.occupancy[index].copy()

    def set_occupancy_row(self, index: int, occupancy: np.ndarray, elapsed: float) -> None:
        """Restore one chip's cell occupancy (import form)."""
        occupancy = np.asarray(occupancy, dtype=self.dtype)
        if occupancy.shape != (self.grid.n_cells,):
            raise ConfigurationError("snapshot does not match this binned fleet")
        self.occupancy[index] = occupancy
        self.elapsed[index] = float(elapsed)

    def inject_upset(self, index: int, value: float, n_cells: int = 64) -> None:
        """Fault-injection hook: corrupt the head of one chip's cell row."""
        count = min(int(n_cells), self.grid.n_cells)
        self.occupancy[index, :count] = value
