"""Fleet trap engines: one ``evolve`` call ages a wafer lot.

* :class:`~repro.bti.traps.FleetTraps` — the *exact* engine, defined in
  :mod:`repro.bti.traps` and re-exported here.  Per-chip trap arrays are
  concatenated into flat struct-of-arrays state with a global owner
  index, so one elementwise update advances every trap of a chip span;
  a chip's row is bit-identical whatever span it is evolved in, and
  :class:`~repro.bti.traps.TrapPopulation` is its one-chip case.

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
(voltage factors, occupancy update), so there is one rate model.  The
binned engine keeps its own float32 duty mix and vectorised Arrhenius
factors: it never claims bit-identity.
"""

from __future__ import annotations

import numpy as np

from repro.bti.traps import (
    FleetTraps,
    TrapDraws,
    TrapParameters,
    _affine_step,
    _check_phase,
    _voltage_factors,
    contiguous_chips,
    draw_population,
)
from repro.errors import ConfigurationError, FleetDropoutError
from repro.guard.contracts import chip_guards, consult_chips, verdict_tolerance
from repro.units import BOLTZMANN_EV

__all__ = [
    "BinnedFleetTraps",
    "FleetTraps",
    "TrapGrid",
    "contiguous_chips",
    "draw_population",
]


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
        if not bins_per_decade > 0.0:
            raise ConfigurationError(f"bins_per_decade must be positive, got {bins_per_decade}")
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
        self._guards = chip_guards(guard, n_chips)
        self._tolerance = verdict_tolerance(self._guards)
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
        v_relax: np.ndarray | None = None,
        chips: slice = slice(None),
    ) -> None:
        """Advance a chip span; ``v_class`` is ``(k, n_classes)`` volts.

        With ``duty < 1`` the off fraction sits at ``v_relax`` (default
        0 V) and the rates are duty-averaged (including the AC capture
        suppression) like the exact engine's, in the state's dtype.
        """
        if isinstance(_check_phase(duration, duty), tuple):
            raise ConfigurationError("the binned engine takes one duty per span")
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
                if v_relax is None
                else np.asarray(v_relax, dtype=float)
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
        tol = self._tolerance
        if tol is None or (occupancy.min() >= -tol and occupancy.max() <= 1.0 + tol):
            return
        # Only a failing span verdict consults each chip's guard.
        failed = consult_chips(
            self._guards,
            range(lo, hi),
            lambda index, guard: guard.check_array(
                "bti.occupancy",
                self.occupancy[index],
                0.0,
                1.0,
                inputs=lambda: {
                    "op": "fleet.binned_evolve",
                    "duration": float(duration),
                    "duty": float(duty),
                    "chip": index,
                },
            ),
        )
        if failed:
            raise FleetDropoutError(failed)

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
