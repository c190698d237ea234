"""Microscopic trapping/detrapping (TD) ensemble — the virtual silicon.

The aggregate log(1+Ct) stress law and fast-then-logarithmic recovery that
the paper's first-order model (Eqs. 1-4) captures emerge microscopically
from an ensemble of independent oxide traps whose capture and emission time
constants are distributed log-uniformly over many decades [Velamala et al.,
DAC 2012].  This module implements that ensemble directly:

* each trap ``i`` has a capture time constant ``tau_c0[i]`` (at the
  reference stress bias) and an emission time constant ``tau_e0[i]`` (at
  the reference recovery bias), both drawn log-uniformly;
* its occupancy probability ``p`` obeys ``dp/dt = (1-p)*rc - p*re`` with
  bias/temperature dependent rates, which has an exact exponential solution
  over any piecewise-constant phase — no time-stepping error;
* an occupied trap shifts the owning transistor's threshold voltage by an
  exponentially distributed amount ``impact[i]``.

:class:`FleetTraps` holds the traps of any number of chips of one polarity
in flat arrays with a global ``owner`` index, so evolving a span of chips,
each a 75-LUT ring oscillator, over a 24 h phase is a handful of numpy
operations.  :class:`TrapPopulation` is its one-chip case.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from repro.bti.conditions import BiasCondition, BiasPhase
from repro.errors import ChipDropoutError, ConfigurationError, FleetDropoutError
from repro.guard import safe_exp, safe_exp_array
from repro.guard.contracts import chip_guards, consult_chips, verdict_tolerance
from repro.obs import get_tracer
from repro.units import BOLTZMANN_EV, celsius

#: Number of bias patterns a rate memo retains, and the length of its
#: history of patterns seen once.  A campaign reuses a handful of
#: patterns (frozen DC, the two AC half-cycles, passive/negative
#: recovery, the readout bias); 32 covers every schedule in the repo
#: with room for ablation sweeps.
RATE_CACHE_SIZE = 32


@dataclass(frozen=True)
class TrapParameters:
    """Statistical description of a transistor's trap population.

    Parameters
    ----------
    mean_trap_count:
        Poisson mean of the number of traps per transistor.
    tau_capture_bounds / tau_emission_bounds:
        (min, max) in seconds of the log-uniform distributions for the
        capture time constant at the reference stress bias and the emission
        time constant at the reference recovery bias.
    impact_mean_volts:
        Mean of the exponential per-trap threshold-voltage impact.
    ea_capture_ev / ea_emission_ev:
        Arrhenius activation energies of capture and emission.
    gamma_capture_per_volt / gamma_emission_per_volt:
        Exponential field-acceleration coefficients.  Capture speeds up
        with stress overdrive; emission speeds up as the overdrive drops
        below (and especially beyond, i.e. negative) the recovery
        reference.
    reference_stress_voltage / reference_recovery_voltage:
        Overdrives at which ``tau_c0`` / ``tau_e0`` are quoted.
    reference_temperature:
        Temperature (kelvin) at which both are quoted.
    """

    mean_trap_count: float = 80.0
    tau_capture_bounds: tuple[float, float] = (5e6, 1e12)
    tau_emission_bounds: tuple[float, float] = (10.0, 2.0e9)
    impact_mean_volts: float = 3.2e-3
    ea_capture_ev: float = 0.90
    ea_emission_ev: float = 0.60
    gamma_capture_per_volt: float = 5.0
    gamma_emission_per_volt: float = 8.2
    reference_stress_voltage: float = 1.2
    reference_recovery_voltage: float = 0.0
    reference_temperature: float = celsius(20.0)
    # AC duty-factor correction: duty-averaged rate equations alone
    # under-predict the measured gap between AC and DC stress, because
    # capture under fast toggling is additionally suppressed by sub-cycle
    # emission dynamics that rate averaging cannot see.  The stress-bias
    # capture rate is multiplied by ``ac_capture_suppression**(1 - duty)``
    # (1.0 under DC, the full suppression as duty -> 0), the standard
    # shape of measured AC-BTI duty-factor curves.
    ac_capture_suppression: float = 0.01

    def __post_init__(self) -> None:
        if self.mean_trap_count <= 0.0:
            raise ConfigurationError("mean_trap_count must be positive")
        for name in ("tau_capture_bounds", "tau_emission_bounds"):
            lo, hi = getattr(self, name)
            if lo <= 0.0 or hi <= lo:
                raise ConfigurationError(f"{name} must satisfy 0 < min < max")
        if self.impact_mean_volts <= 0.0:
            raise ConfigurationError("impact_mean_volts must be positive")
        if not 0.0 < self.ac_capture_suppression <= 1.0:
            raise ConfigurationError("ac_capture_suppression must be in (0, 1]")
        if self.reference_temperature <= 0.0:
            raise ConfigurationError("reference_temperature must be positive kelvin")


def _log_uniform(rng: np.random.Generator, bounds: tuple[float, float], size: int) -> np.ndarray:
    lo, hi = bounds
    # Bounded by construction: the exponent is a draw in [log lo, log hi].
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=size))  # repro: noqa[RPR006]


@dataclass(frozen=True)
class TrapDraws:
    """One population's frozen random draws (no mutable state)."""

    owner: np.ndarray
    tau_c0: np.ndarray
    tau_e0: np.ndarray
    impact: np.ndarray

    @property
    def n_traps(self) -> int:
        return self.owner.size


@dataclass
class _PopulationState:
    """Snapshot of the mutable part of a population (occupancies + time)."""

    occupancy: np.ndarray
    elapsed: float = 0.0


@dataclass(frozen=True)
class CyclePhase:
    """One leg of a repeating bias cycle, in ``evolve`` terms.

    ``stress_voltage`` and ``relax_voltage`` follow the same scalar,
    per-owner or ``(k, n_owners)`` convention as :meth:`FleetTraps.evolve`,
    and ``temperature`` and ``duty`` are one value or ``(k,)`` per chip.
    The phase is piecewise constant, so its occupancy update is an exact
    affine map.
    """

    duration: float
    stress_voltage: np.ndarray | float
    temperature: np.ndarray | float
    duty: float | Sequence[float] = 1.0
    relax_voltage: np.ndarray | float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "duty", _check_phase(self.duration, self.duty))


# ---------------------------------------------------------------------- #
# the trap-physics kernel, shared by FleetTraps and the binned fleet engine
# ---------------------------------------------------------------------- #


def draw_population(
    params: TrapParameters, n_owners: int, rng: np.random.Generator
) -> TrapDraws:
    """Draw one chip's constants for one polarity: counts, tau_c0, tau_e0,
    impacts (traps stored owner by owner)."""
    counts = rng.poisson(params.mean_trap_count, size=n_owners)
    owner = np.repeat(np.arange(n_owners), counts)
    n_traps = int(counts.sum())
    tau_c0 = _log_uniform(rng, params.tau_capture_bounds, n_traps)
    tau_e0 = _log_uniform(rng, params.tau_emission_bounds, n_traps)
    impact = rng.exponential(params.impact_mean_volts, size=n_traps)
    return TrapDraws(owner=owner, tau_c0=tau_c0, tau_e0=tau_e0, impact=impact)


def _check_phase(duration: float, duty) -> float | tuple[float, ...]:
    """Reject a negative phase duration or a duty outside ``[0, 1]``.

    ``duty`` is one value or one per chip; returns it as a float or a
    tuple of floats.
    """
    if duration < 0.0:
        raise ConfigurationError(f"duration must be non-negative, got {duration}")
    if isinstance(duty, float):
        valid = 0.0 <= duty <= 1.0
    else:
        duties = np.asarray(duty, dtype=float)
        if duties.ndim > 1:
            raise ConfigurationError(
                f"duty must be a scalar or one value per chip, got shape {duties.shape}"
            )
        valid = bool(np.all((duties >= 0.0) & (duties <= 1.0)))
        duty = tuple(duties.tolist()) if duties.ndim else float(duties)
    if not valid:
        raise ConfigurationError(f"duty must be within [0, 1], got {duty}")
    return duty


def _check_cycles(phases: Sequence, n: int) -> None:
    """Reject a negative cycle count or an empty phase sequence."""
    if n < 0:
        raise ConfigurationError(f"cycle count must be non-negative, got {n}")
    if not phases:
        raise ConfigurationError("evolve_cycles needs at least one phase")


def _arrhenius(params: TrapParameters, temperature: float) -> tuple[float, float]:
    """Scalar capture/emission Arrhenius factors relative to reference.

    Scalar ``math.exp`` (via ``safe_exp``) on purpose: ``np.exp`` differs
    from it by one ULP on a few percent of inputs, and every exact engine
    must agree bit for bit.
    """
    inv_kt = 1.0 / (BOLTZMANN_EV * temperature)
    inv_kt_ref = 1.0 / (BOLTZMANN_EV * params.reference_temperature)
    # safe_exp: as T -> 0 K the exponent diverges; saturate rather
    # than overflow to inf (which would NaN-poison the rate product).
    arr_c = safe_exp(-params.ea_capture_ev * (inv_kt - inv_kt_ref))
    arr_e = safe_exp(-params.ea_emission_ev * (inv_kt - inv_kt_ref))
    return arr_c, arr_e


def _voltage_factors(
    params: TrapParameters, voltage: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Field-acceleration factors ``exp(+-gamma*dV)`` of capture and emission."""
    vfac_c = safe_exp_array(
        params.gamma_capture_per_volt * (voltage - params.reference_stress_voltage)
    )
    vfac_e = safe_exp_array(
        -params.gamma_emission_per_volt * (voltage - params.reference_recovery_voltage)
    )
    return vfac_c, vfac_e


def _combined_rates(
    params: TrapParameters,
    v_stress: np.ndarray,
    duty: float,
    v_relax: np.ndarray | None,
    inv_tau_c: np.ndarray,
    inv_tau_e: np.ndarray,
    repeats: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Temperature-free, duty-averaged per-trap rates.

    The voltage factor is computed at owner resolution and expanded to
    the traps, which are stored owner by owner: ``repeats[j]`` is owner
    ``j``'s trap count, so ``np.repeat(exp(x), repeats)`` equals
    ``exp(x[owner])`` bit for bit at a fraction of the exp and gather
    cost, since owners are ~100x fewer than traps.  The scalar Arrhenius
    factors are common to both legs of the duty average, so they
    distribute over the mix and are applied by the caller.
    """

    def bases(voltage: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        vfac_c, vfac_e = _voltage_factors(params, voltage)
        return inv_tau_c * np.repeat(vfac_c, repeats), inv_tau_e * np.repeat(vfac_e, repeats)

    base_c, base_e = bases(v_stress)
    if duty >= 1.0:  # callers validate duty <= 1.0, so this is pure DC
        return base_c, base_e
    relax_c, relax_e = bases(v_relax)
    suppression = params.ac_capture_suppression ** (1.0 - duty)
    comb_c = duty * suppression * base_c + (1.0 - duty) * relax_c
    comb_e = duty * base_e + (1.0 - duty) * relax_e
    return comb_c, comb_e


class RateMemo:
    """Temperature-free rates of the bias patterns one chip's traps reuse.

    Rates factor as (1/tau) * arrhenius(T) * exp(gamma * dV): the 1/tau
    arrays are immutable and the temperature factor is a per-chip
    scalar, so one entry per (stress, relax, duty) pattern serves every
    temperature.  Each chip of a fleet has its own memo, so what it
    holds and counts never depends on which chips share a span.
    Instrument jitter makes most stress and negative-rail chunks a
    pattern that never comes back, so a pattern is admitted only on its
    second miss: the first miss records its key in a history, the second
    stores the entry.  Entries and history are each LRU-bounded by
    :data:`RATE_CACHE_SIZE`.  An entry is ``(comb_c, comb_e, extrema)``
    from :func:`_rate_entry`.
    """

    def __init__(self, tracer=None) -> None:
        tracer = tracer if tracer is not None else get_tracer()
        self._entries: OrderedDict = OrderedDict()
        self._history: OrderedDict = OrderedDict()
        self._hits = tracer.counter(
            "bti.rate_cache.hits", "rate lookups that reused memoised rates"
        )
        self._misses = tracer.counter(
            "bti.rate_cache.misses", "rate lookups that recomputed voltage factors"
        )

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Forget every entry and every key seen once."""
        self._entries.clear()
        self._history.clear()

    def lookup(self, key, build: Callable[[], tuple]) -> tuple:
        """The entry for ``key``, from the memo or from ``build()``."""
        entries = self._entries
        entry = entries.get(key)
        if entry is not None:
            self._hits.inc()
            entries.move_to_end(key)
            return entry
        self._misses.inc()
        entry = build()
        history = self._history
        if history.pop(key, False):
            store, value = entries, entry
        else:
            store, value = history, True
        store[key] = value
        if len(store) > RATE_CACHE_SIZE:
            store.popitem(last=False)
        return entry


def _rate_key(v_stress: np.ndarray, duty: float, v_relax: np.ndarray | None) -> tuple:
    """Memo key of one chip's per-owner bias block."""
    return (duty, v_stress.tobytes(), None if v_relax is None else v_relax.tobytes())


def _rate_entry(
    params: TrapParameters,
    v_stress: np.ndarray,
    duty: float,
    v_relax: np.ndarray | None,
    inv_tau_c: np.ndarray,
    inv_tau_e: np.ndarray,
    repeats: np.ndarray,
) -> tuple:
    """A :class:`RateMemo` entry of one chip: ``(comb_c, comb_e, extrema)``.

    ``extrema`` is ``(min_c, max_c, min_e, max_e)`` of the
    temperature-free rates (0.0 for a chip without traps);
    :func:`_rates_into` turns it into the ``bti.rate`` verdict without
    touching the trap arrays.
    """
    comb_c, comb_e = _combined_rates(
        params, v_stress, duty, v_relax, inv_tau_c, inv_tau_e, repeats
    )
    extrema = []
    for comb in (comb_c, comb_e):
        comb.flags.writeable = False
        extrema += [float(comb.min()), float(comb.max())] if comb.size else [0.0, 0.0]
    return comb_c, comb_e, tuple(extrema)


def _rates_into(
    entry: tuple,
    factors: tuple[float, float],
    capture_out: np.ndarray,
    emission_out: np.ndarray,
    guard,
    inputs: Callable[[], dict],
) -> None:
    """One chip's per-trap rates from its memo entry at Arrhenius ``factors``.

    The entry is multiplied by the factors into ``capture_out`` /
    ``emission_out`` (no allocation).  The ``bti.rate`` verdict comes
    from the entry's extrema: a correctly rounded product with a positive
    scalar is monotone and NaN propagates, so ``min*arr`` and ``max*arr``
    are the extrema of the written block and the verdict is
    ``Guard.check_array``'s, in O(1).  Only a failing verdict runs the
    full ``check_array`` on the written arrays (repaired in place), which
    keeps its messages, bundles, clamping and counters.
    """
    comb_c, comb_e, (min_c, max_c, min_e, max_e) = entry
    arr_c, arr_e = factors
    np.multiply(comb_c, arr_c, out=capture_out)
    np.multiply(comb_e, arr_e, out=emission_out)
    if not guard.checking:
        return
    rate_cap = guard.config.rate_cap
    floor = 0.0 - guard.config.atol
    ceiling = rate_cap + guard.config.atol
    top_c = max_c * arr_c
    top_e = max_e * arr_e
    if not (
        min_c * arr_c >= floor and top_c <= ceiling and top_c < math.inf
        and min_e * arr_e >= floor and top_e <= ceiling and top_e < math.inf
    ):
        # Each factor is exp-clamped, but their product can still
        # overflow to inf; repair/raise before the update uses it.
        guard.check_array("bti.rate", capture_out, 0.0, rate_cap, inputs=inputs)
        guard.check_array("bti.rate", emission_out, 0.0, rate_cap, inputs=inputs)


def _affine_step(
    occupancy: np.ndarray,
    capture: np.ndarray,
    emission: np.ndarray,
    duration: float,
    total_out: np.ndarray,
    pinf_out: np.ndarray,
) -> None:
    """Exact occupancy update over one phase, in place.

    ``p' = p_inf + (p - p_inf) * exp(-(rc+re)*dt)``, computed in the two
    scratch buffers ``total_out`` / ``pinf_out`` (either may alias
    ``emission`` / ``capture``): the arrays are large, so these
    elementwise ops are memory-bound and must not allocate.
    """
    total = np.add(capture, emission, out=total_out)
    p_inf = np.divide(capture, total, out=pinf_out)
    np.multiply(total, -duration, out=total)
    # total = -(capture+emission)*duration <= 0: underflow-only, safe.
    decay = np.exp(total, out=total)  # repro: noqa[RPR006]
    np.subtract(occupancy, p_inf, out=occupancy)
    np.multiply(occupancy, decay, out=occupancy)
    np.add(occupancy, p_inf, out=occupancy)


def _compose_cycles(
    occupancy: np.ndarray, phases: Sequence[CyclePhase], n: int, rates
) -> tuple[np.ndarray, float]:
    """``n`` repetitions of a phase sequence in closed form, O(1) in ``n``.

    Every phase is an elementwise affine map ``p' = a*p + b`` with ``a =
    exp(-(rc+re)*dt)`` and ``b = p_inf*(1 - a)``, so one full cycle
    composes to ``p' = a_c*p + b_c`` and N identical cycles to::

        p' = a_c**N * p  +  b_c * (1 - a_c**N) / (1 - a_c)

    The cycle decay is accumulated as an exponent sum (``a_c = exp(-X)``
    with ``X = sum((rc+re)*dt)``) and ``1 - a_c`` is evaluated via
    ``expm1`` so slow traps keep full precision.  ``rates(phase)``
    returns the phase's per-trap ``(capture, emission)``.  Returns the
    new occupancy and the cycle period.
    """
    exponent = np.zeros(occupancy.shape)
    offset = np.zeros(occupancy.shape)
    period = 0.0
    for phase in phases:
        period += phase.duration
        if phase.duration <= 0.0:
            continue
        capture, emission = rates(phase)
        total = capture + emission
        x = total * phase.duration
        # x >= 0, so exp(-x) <= 1: underflow-only, safe.
        offset = offset * np.exp(-x) + (capture / total) * -np.expm1(-x)  # repro: noqa[RPR006]
        exponent = exponent + x
    one_minus_ac = -np.expm1(-exponent)
    # Geometric-series ratio (1 - a_c**n)/(1 - a_c); when the cycle
    # decay underflows to the identity the series degenerates to n.
    ratio = np.where(
        one_minus_ac > 0.0,
        -np.expm1(-n * exponent) / np.where(one_minus_ac > 0.0, one_minus_ac, 1.0),
        float(n),
    )
    # exponent >= 0 and n >= 1, so exp(-n*exponent) <= 1: safe.
    return np.exp(-n * exponent) * occupancy + offset * ratio, period  # repro: noqa[RPR006]


def _reference_rates(
    params: TrapParameters,
    inv_tau_c: np.ndarray,
    inv_tau_e: np.ndarray,
    voltage: np.ndarray,
    temperature: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Uncached per-trap capture and emission rates (1/s) at a bias point.

    ``voltage`` is already per trap.  The reference the memoised path is
    tested against, and the equilibrium and CET-map observables' rates.
    """
    arr_c, arr_e = _arrhenius(params, temperature)
    vfac_c, vfac_e = _voltage_factors(params, voltage)
    return inv_tau_c * arr_c * vfac_c, inv_tau_e * arr_e * vfac_e


def contiguous_chips(chips: slice, n_chips: int) -> tuple[int, int]:
    """``(lo, hi)`` of a chip slice; strided or empty slices are refused."""
    lo, hi, step = chips.indices(n_chips)
    if step != 1 or hi <= lo:
        raise ConfigurationError("fleet chip slices must be contiguous and non-empty")
    return lo, hi


def chip_runs(chips: Sequence[int]) -> list[tuple[int, int, int]]:
    """``(lo, hi, offset)`` of each contiguous run of a sorted chip index
    list; ``offset`` is the run's first position in ``chips``."""
    runs = []
    start = 0
    for end in range(1, len(chips) + 1):
        if end == len(chips) or chips[end] != chips[end - 1] + 1:
            runs.append((chips[start], chips[end - 1] + 1, start))
            start = end
    return runs


def advance_clocks(clocks: np.ndarray, chips: slice, seconds: float) -> None:
    """``clocks[chips] += seconds``; one chip, the usual span, as a scalar add."""
    if chips.stop - chips.start == 1:
        clocks[chips.start] += seconds
    else:
        clocks[chips] += seconds


class _Span(NamedTuple):
    """A contiguous chip span's views into the flat trap arrays."""

    chips: slice
    lo: int
    k: int
    traps: slice
    #: Chip trap blocks local to the span: ``bounds[i]:bounds[i + 1]``.
    bounds: list
    #: Global owner index of the span's traps (a view of ``owner_global``).
    gather: np.ndarray
    #: Trap count of each owner of the span's flat ``(k * n_owners)``
    #: block (traps are owner-sorted).
    repeats: np.ndarray
    occupancy: np.ndarray
    scratch_total: np.ndarray
    scratch_pinf: np.ndarray
    scratch_weights: np.ndarray


class FleetTraps:
    """Exact struct-of-arrays ensemble: N same-netlist chips, one polarity.

    Per-chip trap arrays are concatenated into flat state with a global
    owner index, so one elementwise update advances every trap of a
    contiguous chip span.  Numpy's elementwise kernels give the same
    value whatever the slicing, so each chip's row is bit-identical
    whether its span holds one chip or many: a one-chip fleet is
    :class:`TrapPopulation`.

    Parameters
    ----------
    params:
        Shared :class:`TrapParameters` (all chips are the same process).
    n_owners:
        Owners *per chip* for this polarity.
    draws:
        One :class:`TrapDraws` per chip, in fleet order — any iterable,
        consumed one chip at a time, so a generator keeps only one
        chip's draws alive while the flat state is built.
    guard:
        Contract checker: one guard for every chip or one per chip;
        defaults to the ambient guard.  A span's vectorised verdict
        consults each chip's guard only when it fails; chips whose clamp
        budget runs out keep the state the failing check left, and one
        :class:`~repro.errors.FleetDropoutError` names them once the
        rest of the span is done.
    tracer:
        Telemetry sink of the rate memos and cycle counters.
    """

    def __init__(
        self,
        params: TrapParameters,
        n_owners: int,
        draws: Iterable[TrapDraws],
        guard=None,
        tracer=None,
    ) -> None:
        if n_owners <= 0:
            raise ConfigurationError(f"n_owners must be positive, got {n_owners}")
        self.params = params
        self.n_owners = n_owners
        # Per chip, keep only what the state needs (the time constants
        # as rates), so each chip's draws can go as soon as it is read.
        pieces: tuple[list, list, list, list] = ([], [], [], [])
        for index, d in enumerate(draws):
            for piece, array in zip(
                pieces,
                (d.owner + index * n_owners if index else d.owner, d.impact,
                 1.0 / d.tau_c0, 1.0 / d.tau_e0),
            ):
                piece.append(array)
        self.n_chips = len(pieces[0])
        if not self.n_chips:
            raise ConfigurationError("a fleet needs at least one chip")
        trap_counts = np.array([owner.size for owner in pieces[0]], dtype=np.int64)
        #: trap_offsets[i]:trap_offsets[i+1] is chip i's span in the flat arrays.
        self.trap_offsets = np.concatenate(([0], np.cumsum(trap_counts)))
        # One chip has nothing to concatenate: it shares the draws' arrays.
        # Each piece list is dropped as soon as its flat array exists.
        flat = []
        for piece in pieces:
            flat.append(piece[0] if self.n_chips == 1 else np.concatenate(piece))
            piece.clear()
        self.owner_global, self.impact, self._inv_tau_c0, self._inv_tau_e0 = flat
        n_total = int(trap_counts.sum())
        self.occupancy = np.zeros(n_total)
        #: Per-chip simulated seconds.
        self.elapsed = np.zeros(self.n_chips)
        self._scratch_total = np.empty(n_total)
        self._scratch_pinf = np.empty(n_total)
        self._scratch_weights = np.empty(n_total)
        self._guards = chip_guards(guard, self.n_chips)
        self._tolerance = verdict_tolerance(self._guards)
        tracer = tracer if tracer is not None else get_tracer()
        #: One rate memo per chip.
        self._memos = [RateMemo(tracer) for _ in range(self.n_chips)]
        self._cycles_compressed = tracer.counter(
            "bti.cycles_compressed", "schedule cycles folded by evolve_cycles"
        )
        #: Spans by their slice's (start, stop, step).
        self._spans: dict[tuple, _Span] = {}

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #

    @property
    def rate_cache_entries(self) -> int:
        """Live entries in the chips' rate memos (introspection)."""
        return sum(len(memo) for memo in self._memos)

    def _span(self, chips: slice) -> _Span:
        """The (cached) :class:`_Span` of a contiguous chip slice."""
        key = (chips.start, chips.stop, chips.step)
        span = self._spans.get(key)
        if span is None:
            lo, hi = contiguous_chips(chips, self.n_chips)
            traps = slice(int(self.trap_offsets[lo]), int(self.trap_offsets[hi]))
            gather = self.owner_global[traps]
            span = self._spans[key] = _Span(
                chips=slice(lo, hi),
                lo=lo,
                k=hi - lo,
                traps=traps,
                bounds=(self.trap_offsets[lo : hi + 1] - traps.start).tolist(),
                gather=gather,
                repeats=np.bincount(gather, minlength=hi * self.n_owners)[lo * self.n_owners :],
                occupancy=self.occupancy[traps],
                scratch_total=self._scratch_total[traps],
                scratch_pinf=self._scratch_pinf[traps],
                scratch_weights=self._scratch_weights[traps],
            )
        return span

    # ------------------------------------------------------------------ #
    # physics
    # ------------------------------------------------------------------ #

    def _owner_block(self, voltage, k: int) -> np.ndarray:
        """A scalar, per-owner or ``(k, n_owners)`` bias as one flat block."""
        block = np.asarray(voltage, dtype=float)
        if block.shape != (k, self.n_owners):
            try:
                block = np.broadcast_to(block, (k, self.n_owners))
            except ValueError:
                raise ConfigurationError(
                    f"voltages must broadcast to ({k}, {self.n_owners}), "
                    f"got shape {np.shape(voltage)}"
                ) from None
        return block.reshape(-1)

    def _rates(
        self, v_stress, temperatures, duty, v_relax, span: _Span
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Duty-averaged per-trap rates for a contiguous chip span.

        Temperatures are per chip (a scalar applies to the whole span),
        and so is a tuple ``duty`` (a float applies to the whole span).
        Each chip's block comes from that chip's rate memo, keyed by its
        per-owner bias and duty, scaled by its scalar Arrhenius factors
        into the span's scratch buffers (capture into ``scratch_pinf``,
        emission into ``scratch_total``).  Returns the two buffers and
        the chips whose budget ran out on their ``bti.rate`` check.
        """
        k = span.k
        temperatures = np.asarray(temperatures, dtype=float)
        if temperatures.ndim == 0:
            factors = [_arrhenius(self.params, float(temperatures))] * k
        elif temperatures.shape == (k,):
            factors = [_arrhenius(self.params, t) for t in temperatures.tolist()]
        else:
            raise ConfigurationError(
                f"temperatures must have shape ({k},), got {temperatures.shape}"
            )
        if not isinstance(duty, tuple):
            duties = (float(duty),) * k
        elif len(duty) == k:
            duties = duty
        else:
            raise ConfigurationError(f"duty must have shape ({k},), got ({len(duty)},)")
        v_stress = self._owner_block(v_stress, k)
        if min(duties) >= 1.0:  # callers validate duty <= 1.0, so this is pure DC
            v_relax = None
        else:
            v_relax = self._owner_block(0.0 if v_relax is None else v_relax, k)
        n = self.n_owners
        failed = {}
        for offset, index in enumerate(range(span.lo, span.lo + k)):
            owners = slice(offset * n, (offset + 1) * n)
            stress = v_stress[owners]
            chip_duty = duties[offset]
            relax = None if chip_duty >= 1.0 else v_relax[owners]
            block = slice(span.bounds[offset], span.bounds[offset + 1])
            traps = slice(span.traps.start + block.start, span.traps.start + block.stop)
            entry = self._memos[index].lookup(
                _rate_key(stress, chip_duty, relax),
                partial(
                    _rate_entry, self.params, stress, chip_duty, relax,
                    self._inv_tau_c0[traps], self._inv_tau_e0[traps], span.repeats[owners],
                ),
            )
            try:
                _rates_into(
                    entry,
                    factors[offset],
                    span.scratch_pinf[block],
                    span.scratch_total[block],
                    self._guards[index],
                    lambda: {"duty": chip_duty, "fleet_chips": 1},
                )
            except ChipDropoutError as error:
                failed[index] = error
        return span.scratch_pinf, span.scratch_total, failed

    def _checked_rates(
        self, v_stress, temperatures, duty, v_relax, span: _Span
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_rates` for callers that stop at any chip's exhausted budget."""
        capture, emission, failed = self._rates(v_stress, temperatures, duty, v_relax, span)
        if failed:
            raise FleetDropoutError(failed)
        return capture, emission

    def _check_occupancy(
        self, span: _Span, inputs: Callable[[], dict], extra: dict, skip=()
    ) -> dict:
        """The ``bti.occupancy`` contract on a span's chips not in ``skip``.

        One vectorised verdict over the span; only when it fails is each
        chip's block checked by its own guard (a bundle adds the ``extra``
        arrays).  Returns the chips whose budget ran out.
        """
        tol = self._tolerance
        occupancy = span.occupancy
        if not occupancy.size or (
            occupancy.min() >= -tol and occupancy.max() <= 1.0 + tol
        ):
            return {}

        def check(index: int, guard) -> None:
            chip = self._span(slice(index, index + 1))
            traps = chip.traps
            guard.check_array(
                "bti.occupancy",
                chip.occupancy,
                0.0,
                1.0,
                inputs=lambda: {**inputs(), "fleet_chips": 1, "elapsed": float(self.elapsed[index])},
                arrays=lambda: {
                    "occupancy": chip.occupancy,
                    # Reciprocals of the stored rates, within an ulp of the draws.
                    "tau_c0": 1.0 / self._inv_tau_c0[traps],
                    "tau_e0": 1.0 / self._inv_tau_e0[traps],
                    "impact": self.impact[traps],
                    "owner": chip.gather - index * self.n_owners,
                    **{name: np.asarray(value, dtype=float) for name, value in extra.items()},
                },
            )

        alive = [i for i in range(span.lo, span.lo + span.k) if i not in skip]
        return consult_chips(self._guards, alive, check)

    def evolve(
        self,
        duration: float,
        v_stress,
        temperatures,
        duty: float | Sequence[float] = 1.0,
        v_relax=None,
        chips: slice = slice(None),
    ) -> None:
        """Advance every trap of a chip span through one phase.

        ``v_stress`` / ``v_relax`` are scalars, per-owner vectors or
        ``(k, n_owners)`` per-chip voltage patterns (``v_relax`` is the
        off fraction's bias when ``duty < 1``; default 0 V), and
        ``temperatures`` and ``duty`` one value for the span or ``(k,)``
        per chip (kelvin; on-fraction).  The update is the exact solution
        of the occupancy ODE with duty-averaged rates:
        ``p' = p_inf + (p - p_inf) * exp(-(rc+re)*dt)``.
        """
        duty = _check_phase(duration, duty)
        if duration <= 0.0:  # zero-length phase is a no-op (negatives raise above)
            return
        span = self._span(chips)
        capture, emission, failed = self._rates(v_stress, temperatures, duty, v_relax, span)
        if not failed:
            _affine_step(
                span.occupancy, capture, emission, duration,
                span.scratch_total, span.scratch_pinf,
            )
            advance_clocks(self.elapsed, span.chips, duration)
        else:
            # A chip whose rate check exhausted its budget stops before its
            # update, as it would alone: step the others block by block.
            for offset, index in enumerate(range(span.lo, span.lo + span.k)):
                block = slice(span.bounds[offset], span.bounds[offset + 1])
                if index not in failed:
                    _affine_step(
                        span.occupancy[block], capture[block], emission[block], duration,
                        span.scratch_total[block], span.scratch_pinf[block],
                    )
                    self.elapsed[index] += duration
        if self._tolerance is not None:
            failed.update(
                self._check_occupancy(
                    span,
                    lambda: {"op": "evolve", "duration": float(duration), "duty": duty},
                    {
                        "stress_voltage": v_stress,
                        "relax_voltage": 0.0 if v_relax is None else v_relax,
                        "temperatures": temperatures,
                    },
                    skip=failed,
                )
            )
        if failed:
            raise FleetDropoutError(failed)

    def evolve_cycles(
        self, phases: Sequence[CyclePhase], n: int, chips: slice = slice(None)
    ) -> None:
        """``n`` repetitions of a fixed phase sequence, O(1) in ``n``.

        The exact closed form of repeated :meth:`evolve` calls (see
        :func:`_compose_cycles`), so long periodic schedules cost one
        cycle's rate lookups.  Phases carry voltages and temperatures in
        :meth:`evolve`'s shapes.
        """
        _check_cycles(phases, n)
        if n == 0:
            return
        span = self._span(chips)
        span.occupancy[:], period = _compose_cycles(
            span.occupancy,
            phases,
            n,
            lambda phase: self._checked_rates(
                phase.stress_voltage, phase.temperature, phase.duty,
                phase.relax_voltage, span,
            ),
        )
        advance_clocks(self.elapsed, span.chips, n * period)
        self._cycles_compressed.inc(n * span.k)
        if self._tolerance is not None:
            failed = self._check_occupancy(
                span,
                lambda: {"op": "evolve_cycles", "n": int(n), "period": float(period)},
                {},
            )
            if failed:
                raise FleetDropoutError(failed)

    # ------------------------------------------------------------------ #
    # observables
    # ------------------------------------------------------------------ #

    def _per_owner(self, span: _Span, weights: np.ndarray) -> np.ndarray:
        """Per-chip per-owner sums of per-trap ``weights``, ``(k, n_owners)``."""
        n = self.n_owners
        counts = np.bincount(span.gather, weights=weights, minlength=(span.lo + span.k) * n)
        return counts[span.lo * n :].reshape(span.k, n)

    def delta_vth(self, chips: slice = slice(None)) -> np.ndarray:
        """Per-chip per-owner expected threshold shift, ``(k, n_owners)``."""
        span = self._span(chips)
        weights = np.multiply(
            span.occupancy, self.impact[span.traps], out=span.scratch_weights
        )
        return self._per_owner(span, weights)

    def max_delta_vth(self, chips: slice = slice(None)) -> np.ndarray:
        """Per-chip per-owner ceiling on :meth:`delta_vth` (all traps occupied)."""
        span = self._span(chips)
        return self._per_owner(span, self.impact[span.traps])

    def sample_delta_vth(
        self, rng: np.random.Generator, chips: slice = slice(None)
    ) -> np.ndarray:
        """One stochastic per-owner shift per chip: each trap occupied or not."""
        span = self._span(chips)
        occupied = rng.random(span.occupancy.size) < span.occupancy
        return self._per_owner(span, occupied * self.impact[span.traps])

    def equilibrium_delta_vth(
        self, condition: BiasCondition, chips: slice = slice(None)
    ) -> np.ndarray:
        """Per-chip per-owner shift if the span equilibrated at ``condition``."""
        span = self._span(chips)
        traps = span.traps
        voltage = np.repeat(self._owner_block(condition.stress_voltage, span.k), span.repeats)
        capture, emission = _reference_rates(
            self.params, self._inv_tau_c0[traps], self._inv_tau_e0[traps],
            voltage, condition.temperature,
        )
        p_inf = capture / (capture + emission)
        return self._per_owner(span, p_inf * self.impact[traps])

    # ------------------------------------------------------------------ #
    # per-chip state
    # ------------------------------------------------------------------ #

    def occupancy_row(self, index: int) -> np.ndarray:
        """Copy of one chip's occupancy slice (checkpoint/export form)."""
        return self._span(slice(index, index + 1)).occupancy.copy()

    def set_occupancy_row(self, index: int, occupancy: np.ndarray, elapsed: float) -> None:
        """Restore one chip's occupancy slice (checkpoint/import form).

        Drops the rate memo: a state transition must not observe entries
        built for a previous trajectory.
        """
        row = self._span(slice(index, index + 1)).occupancy
        occupancy = np.asarray(occupancy, dtype=float)
        if occupancy.shape != row.shape:
            raise ConfigurationError("snapshot does not match this fleet population")
        row[:] = occupancy
        self.elapsed[index] = float(elapsed)
        self._memos[index].clear()

    def inject_upset(self, index: int, value: float, n_traps: int = 64) -> None:
        """Fault-injection hook: overwrite one chip's first ``n_traps`` occupancies.

        Bypasses the physics on purpose — campaigns use this (via
        ``FaultKind.TRAP_UPSET``) to model a corrupted state upset and
        exercise the guard's detect/clamp/quarantine path.  The poked
        values (NaN, >1, <0 ...) are caught by the ``bti.occupancy``
        contract on the next evolve.
        """
        self._span(slice(index, index + 1)).occupancy[: int(n_traps)] = value


class TrapPopulation:
    """Trap ensemble shared by a group of transistors ("owners").

    Each owner is one aging transistor; the population tracks which traps
    belong to which owner so that a phase can apply a *different* stress
    voltage per owner (the LUT model decides who is stressed) while the
    whole chip still evolves in one vectorised update.  It is the
    one-chip case of :class:`FleetTraps`, which holds its state and does
    its physics.
    """

    def __init__(
        self,
        params: TrapParameters,
        n_owners: int,
        rng: np.random.Generator | int | None = None,
        tracer=None,
        guard=None,
    ) -> None:
        if n_owners <= 0:
            raise ConfigurationError(f"n_owners must be positive, got {n_owners}")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self.params = params
        self.n_owners = n_owners
        draws = draw_population(params, n_owners, rng)
        #: The frozen draws (the fleet state shares owner and impact).
        self.owner, self.tau_c0, self.tau_e0, self.impact = (
            draws.owner, draws.tau_c0, draws.tau_e0, draws.impact
        )
        self.n_traps = draws.n_traps
        self._fleet = FleetTraps(params, n_owners, [draws], guard=guard, tracer=tracer)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def elapsed(self) -> float:
        """Simulated wall-clock seconds accumulated by ``evolve`` calls."""
        return float(self._fleet.elapsed[0])

    @property
    def occupancy(self) -> np.ndarray:
        """Per-trap occupancy probabilities (read-only view)."""
        view = self._fleet.occupancy.view()
        view.flags.writeable = False
        return view

    @property
    def rate_cache_entries(self) -> int:
        """Live entries in the rate memo (introspection)."""
        return self._fleet.rate_cache_entries

    # ------------------------------------------------------------------ #
    # physics
    # ------------------------------------------------------------------ #

    def _rates(self, stress_voltage: np.ndarray, temperature: float) -> tuple[np.ndarray, np.ndarray]:
        """Uncached per-trap rates at a per-trap bias (see :func:`_reference_rates`)."""
        fleet = self._fleet
        return _reference_rates(
            self.params, fleet._inv_tau_c0, fleet._inv_tau_e0, stress_voltage, temperature
        )

    def _canonical_bias(self, per_owner: np.ndarray | float) -> np.ndarray:
        """Normalise a bias argument to its canonical array form.

        Accepted shapes are a scalar / 0-d array (uniform bias), a
        length-1 vector (also a uniform bias — the shape a batched
        broadcast or an ``np.atleast_1d`` caller naturally produces) and
        a full ``(n_owners,)`` pattern.  0-d and ``(1,)`` collapse to the
        same canonical 0-d array so the scalar and array paths share one
        cache key and one expansion rule; anything else is a shape bug.
        """
        arr = np.asarray(per_owner, dtype=float)
        if arr.ndim == 0:
            return arr
        if arr.shape == (1,) and self.n_owners != 1:
            return arr.reshape(())
        if arr.shape != (self.n_owners,):
            raise ConfigurationError(
                f"per-owner vector must have shape ({self.n_owners},), got {arr.shape}"
            )
        return arr

    def _owner_voltages(self, canonical: np.ndarray) -> np.ndarray:
        """A canonical bias as one voltage per owner."""
        if canonical.ndim == 0:
            return np.full(self.n_owners, float(canonical))
        return canonical

    def _expand(self, per_owner: np.ndarray | float) -> np.ndarray:
        """Broadcast a per-owner vector (or scalar) to per-trap."""
        return self._owner_voltages(self._canonical_bias(per_owner))[self.owner]

    def _effective_rates(
        self,
        stress_voltage: np.ndarray | float,
        temperature: float,
        duty: float,
        relax_voltage: np.ndarray | float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Duty-averaged per-trap rates for one piecewise-constant phase."""
        fleet = self._fleet
        return fleet._checked_rates(
            self._canonical_bias(stress_voltage), temperature, duty,
            self._canonical_bias(relax_voltage), fleet._span(slice(None)),
        )

    def evolve(
        self,
        duration: float,
        stress_voltage: np.ndarray | float,
        temperature: float,
        duty: float = 1.0,
        relax_voltage: np.ndarray | float = 0.0,
    ) -> None:
        """Advance every trap through one piecewise-constant phase.

        ``stress_voltage`` may be a scalar or a per-owner vector; with a
        duty cycle below 1.0 the off fraction sits at ``relax_voltage``.
        See :meth:`FleetTraps.evolve`.
        """
        self._fleet.evolve(
            duration,
            self._canonical_bias(stress_voltage),
            temperature,
            duty,
            self._canonical_bias(relax_voltage),
        )

    def evolve_cycles(self, phases: Sequence[CyclePhase], n: int) -> None:
        """Advance through ``n`` repetitions of a fixed phase sequence, O(1) in ``n``.

        See :meth:`FleetTraps.evolve_cycles`.
        """
        self._fleet.evolve_cycles(phases, n)

    def evolve_phase(self, phase: BiasPhase, stress_mask: np.ndarray | None = None) -> None:
        """Advance through a :class:`BiasPhase`.

        ``stress_mask`` (per owner, boolean) selects which owners actually
        see the phase's stress voltage; unmasked owners sit at the phase's
        relax bias for the whole duration.  This is how the LUT model
        expresses "only M1 and M5 are under stress".
        """
        relax = phase.effective_relax_bias
        if stress_mask is None:
            v_stress: np.ndarray | float = phase.bias.stress_voltage
            v_relax: np.ndarray | float = relax.stress_voltage
        else:
            mask = np.asarray(stress_mask, dtype=bool)
            if mask.shape != (self.n_owners,):
                raise ConfigurationError(
                    f"stress_mask must have shape ({self.n_owners},), got {mask.shape}"
                )
            v_stress = np.where(mask, phase.bias.stress_voltage, relax.stress_voltage)
            v_relax = np.full(self.n_owners, relax.stress_voltage)
        self.evolve(
            phase.duration,
            v_stress,
            phase.bias.temperature,
            duty=phase.waveform.duty,
            relax_voltage=v_relax,
        )

    # ------------------------------------------------------------------ #
    # observables
    # ------------------------------------------------------------------ #

    def delta_vth(self) -> np.ndarray:
        """Expected per-owner threshold-voltage shift (volts, mean-field)."""
        return self._fleet.delta_vth()[0]

    def sample_delta_vth(self, rng: np.random.Generator | int | None = None) -> np.ndarray:
        """One stochastic per-owner shift: each trap is occupied or not.

        Use this for statistical-aging studies; the mean over many samples
        converges to :meth:`delta_vth`.
        """
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        return self._fleet.sample_delta_vth(rng)[0]

    def equilibrium_delta_vth(self, condition: BiasCondition) -> np.ndarray:
        """Per-owner shift if the population equilibrated at ``condition``."""
        return self._fleet.equilibrium_delta_vth(condition)[0]

    # ------------------------------------------------------------------ #
    # state management
    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        """Return every trap to the fresh (empty) state and zero the clock."""
        self._fleet.set_occupancy_row(0, np.zeros(self.n_traps), 0.0)

    def snapshot(self) -> _PopulationState:
        """Capture the mutable state for later :meth:`restore` (what-if runs)."""
        return _PopulationState(occupancy=self._fleet.occupancy_row(0), elapsed=self.elapsed)

    def restore(self, state: _PopulationState) -> None:
        """Restore a state captured by :meth:`snapshot`."""
        self._fleet.set_occupancy_row(0, state.occupancy, state.elapsed)

    def _invalidate_rate_cache(self) -> None:
        """Drop every memoised rate array."""
        self._fleet._memos[0].clear()
