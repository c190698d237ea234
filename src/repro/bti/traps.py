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

The population is vectorised across *all* transistors of a chip: traps are
stored in flat arrays with an ``owner`` index, so evolving a 75-LUT ring
oscillator over a 24 h phase is a handful of numpy operations.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.bti.conditions import BiasCondition, BiasPhase
from repro.errors import ConfigurationError
from repro.guard import get_guard, safe_exp, safe_exp_array
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

    ``stress_voltage`` and ``relax_voltage`` follow the same per-owner
    (or scalar) convention as :meth:`TrapPopulation.evolve`; the fleet
    engine also takes ``(k, n_owners)`` voltages and ``(k,)``
    temperatures.  The phase is piecewise constant, so its occupancy
    update is an exact affine map.
    """

    duration: float
    stress_voltage: np.ndarray | float
    temperature: np.ndarray | float
    duty: float = 1.0
    relax_voltage: np.ndarray | float = 0.0

    def __post_init__(self) -> None:
        _check_phase(self.duration, self.duty)


# ---------------------------------------------------------------------- #
# the trap-physics kernel, shared by TrapPopulation and the fleet engines
# ---------------------------------------------------------------------- #


def _draw_population(
    params: TrapParameters, n_owners: int, rng: np.random.Generator
) -> TrapDraws:
    """Draw one population's constants: counts, tau_c0, tau_e0, impacts."""
    counts = rng.poisson(params.mean_trap_count, size=n_owners)
    owner = np.repeat(np.arange(n_owners), counts)
    n_traps = int(counts.sum())
    tau_c0 = _log_uniform(rng, params.tau_capture_bounds, n_traps)
    tau_e0 = _log_uniform(rng, params.tau_emission_bounds, n_traps)
    impact = rng.exponential(params.impact_mean_volts, size=n_traps)
    return TrapDraws(owner=owner, tau_c0=tau_c0, tau_e0=tau_e0, impact=impact)


def _check_phase(duration: float, duty: float) -> None:
    """Reject a negative phase duration or a duty outside ``[0, 1]``."""
    if duration < 0.0:
        raise ConfigurationError(f"duration must be non-negative, got {duration}")
    if not 0.0 <= duty <= 1.0:
        raise ConfigurationError(f"duty must be within [0, 1], got {duty}")


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
    gather: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Temperature-free, duty-averaged per-trap rates.

    The voltage factor is computed at owner resolution and expanded by
    the ``gather`` index: ``exp(x)[owner]`` equals ``exp(x[owner])`` bit
    for bit at a fraction of the exp cost, since owners are ~100x fewer
    than traps.  The scalar Arrhenius factors are common to both legs of
    the duty average, so they distribute over the mix and are applied by
    the caller.
    """

    def bases(voltage: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        vfac_c, vfac_e = _voltage_factors(params, voltage)
        return inv_tau_c * vfac_c[gather], inv_tau_e * vfac_e[gather]

    base_c, base_e = bases(v_stress)
    if duty >= 1.0:  # callers validate duty <= 1.0, so this is pure DC
        return base_c, base_e
    relax_c, relax_e = bases(v_relax)
    suppression = params.ac_capture_suppression ** (1.0 - duty)
    comb_c = duty * suppression * base_c + (1.0 - duty) * relax_c
    comb_e = duty * base_e + (1.0 - duty) * relax_e
    return comb_c, comb_e


class RateMemo:
    """Temperature-free rates of the bias patterns a trap span reuses.

    Rates factor as (1/tau) * arrhenius(T) * exp(gamma * dV): the 1/tau
    arrays are immutable and the temperature factors are per-chip
    scalars, so one entry per (span, stress, relax, duty) pattern serves
    every temperature.  Instrument jitter makes most stress and
    negative-rail chunks a pattern that never comes back, so a pattern
    is admitted only on its second miss: the first miss records its key
    in a history, the second stores the entry.  Entries and history are
    each LRU-bounded by :data:`RATE_CACHE_SIZE`.  An entry is
    ``(comb_c, comb_e, extrema)`` from :func:`_rate_entry`.
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


def _rate_key(
    lo: int, v_stress: np.ndarray, duty: float, v_relax: np.ndarray | None
) -> tuple:
    """Memo key of a span's flat per-owner bias block (first chip ``lo``)."""
    return (lo, duty, v_stress.tobytes(), None if v_relax is None else v_relax.tobytes())


def _rate_entry(
    params: TrapParameters,
    v_stress: np.ndarray,
    duty: float,
    v_relax: np.ndarray | None,
    inv_tau_c: np.ndarray,
    inv_tau_e: np.ndarray,
    gather: np.ndarray,
    bounds: Sequence[int],
) -> tuple:
    """A :class:`RateMemo` entry: ``(comb_c, comb_e, extrema)``.

    ``extrema`` holds per-chip lists ``(min_c, max_c, min_e, max_e)`` of
    the temperature-free rates over the chip blocks ``bounds[i]:bounds[i
    + 1]``; a chip without traps gets 0.0.  :func:`_rates_into` turns them
    into the ``bti.rate`` verdict without touching the trap arrays.
    """
    comb_c, comb_e = _combined_rates(
        params, v_stress, duty, v_relax, inv_tau_c, inv_tau_e, gather
    )
    starts = np.asarray(bounds[:-1])
    filled = np.asarray(bounds[1:]) > starts
    extrema = []
    for comb in (comb_c, comb_e):
        comb.flags.writeable = False
        for reduce in (np.minimum, np.maximum):
            per_chip = np.zeros(starts.size)
            if filled.any():
                per_chip[filled] = reduce.reduceat(comb, starts[filled])
            extrema.append(per_chip.tolist())
    return comb_c, comb_e, tuple(extrema)


def _rates_into(
    entry: tuple,
    bounds: Sequence[int],
    factors: Sequence[tuple[float, float]],
    capture_out: np.ndarray,
    emission_out: np.ndarray,
    guard,
    inputs: Callable[[], dict],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trap rates of a memo entry at per-chip Arrhenius ``factors``.

    Chip ``i``'s block ``bounds[i]:bounds[i + 1]`` is multiplied by its
    factors into ``capture_out`` / ``emission_out`` (no allocation).  The
    ``bti.rate`` verdict comes from the entry's per-chip extrema: a
    correctly rounded product with a positive scalar is monotone and NaN
    propagates, so ``min*arr`` and ``max*arr`` are the extrema of the
    written block and the verdict is ``Guard.check_array``'s, in O(chips).
    Only a failing verdict runs the full ``check_array`` on the written
    arrays, which keeps its messages, bundles, clamping and counters.
    """
    comb_c, comb_e, extrema = entry
    for i, (arr_c, arr_e) in enumerate(factors):
        block = slice(bounds[i], bounds[i + 1])
        np.multiply(comb_c[block], arr_c, out=capture_out[block])
        np.multiply(comb_e[block], arr_e, out=emission_out[block])
    if not guard.checking:
        return capture_out, emission_out
    rate_cap = guard.config.rate_cap
    floor = 0.0 - guard.config.atol
    ceiling = rate_cap + guard.config.atol
    for (arr_c, arr_e), min_c, max_c, min_e, max_e in zip(factors, *extrema):
        top_c = max_c * arr_c
        top_e = max_e * arr_e
        if not (
            min_c * arr_c >= floor and top_c <= ceiling and top_c < math.inf
            and min_e * arr_e >= floor and top_e <= ceiling and top_e < math.inf
        ):
            # Each factor is exp-clamped, but their product can still
            # overflow to inf; repair/raise before the update uses it.
            capture_out = guard.check_array(
                "bti.rate", capture_out, 0.0, rate_cap, inputs=inputs
            )
            emission_out = guard.check_array(
                "bti.rate", emission_out, 0.0, rate_cap, inputs=inputs
            )
            break
    return capture_out, emission_out


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


class TrapPopulation:
    """Trap ensemble shared by a group of transistors ("owners").

    Each owner is one aging transistor; the population tracks which traps
    belong to which owner so that a phase can apply a *different* stress
    voltage per owner (the LUT model decides who is stressed) while the
    whole chip still evolves in one vectorised update.
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
        draws = _draw_population(params, n_owners, rng)
        self.owner = draws.owner
        self.tau_c0 = draws.tau_c0
        self.tau_e0 = draws.tau_e0
        self.impact = draws.impact
        n_traps = draws.n_traps
        self._state = _PopulationState(occupancy=np.zeros(n_traps))

        # The population is a one-chip span of the shared rate kernel:
        # memoised temperature-free rates, scaled per lookup by the scalar
        # Arrhenius factors into the update's scratch buffers.
        self._inv_tau_c0 = 1.0 / self.tau_c0
        self._inv_tau_e0 = 1.0 / self.tau_e0
        self._bounds = (0, n_traps)
        self._scratch_total = np.empty(n_traps)
        self._scratch_pinf = np.empty(n_traps)
        self._scratch_weights = np.empty(n_traps)
        self._guard = guard if guard is not None else get_guard()
        tracer = tracer if tracer is not None else get_tracer()
        self._memo = RateMemo(tracer)
        self._cycles_compressed = tracer.counter(
            "bti.cycles_compressed", "schedule cycles folded by evolve_cycles"
        )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def n_traps(self) -> int:
        """Total trap count across all owners."""
        return self.owner.size

    @property
    def elapsed(self) -> float:
        """Simulated wall-clock seconds accumulated by ``evolve`` calls."""
        return self._state.elapsed

    @property
    def occupancy(self) -> np.ndarray:
        """Per-trap occupancy probabilities (read-only view)."""
        view = self._state.occupancy.view()
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------ #
    # physics
    # ------------------------------------------------------------------ #

    def _rates(self, stress_voltage: np.ndarray, temperature: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-trap capture and emission rates (1/s) at a bias point.

        ``stress_voltage`` is broadcast per trap (already expanded from the
        per-owner vector by the caller).  This is the uncached reference
        path; hot loops go through :meth:`_effective_rates`.
        """
        arr_c, arr_e = _arrhenius(self.params, temperature)
        vfac_c, vfac_e = _voltage_factors(self.params, stress_voltage)
        capture = (1.0 / self.tau_c0) * arr_c * vfac_c
        emission = (1.0 / self.tau_e0) * arr_e * vfac_e
        return capture, emission

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

    def _effective_rates(
        self,
        stress_voltage: np.ndarray | float,
        temperature: float,
        duty: float,
        relax_voltage: np.ndarray | float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Duty-averaged per-trap rates for one piecewise-constant phase.

        Written into the scratch buffers :func:`_affine_step` consumes
        (capture into ``_scratch_pinf``, emission into ``_scratch_total``),
        so they are valid until the next rate lookup.
        """
        v_stress = self._owner_voltages(self._canonical_bias(stress_voltage))
        v_relax = None
        if duty < 1.0:  # callers validate duty <= 1.0, so else pure DC
            v_relax = self._owner_voltages(self._canonical_bias(relax_voltage))
        entry = self._memo.lookup(
            _rate_key(0, v_stress, duty, v_relax),
            lambda: _rate_entry(
                self.params, v_stress, duty, v_relax,
                self._inv_tau_c0, self._inv_tau_e0, self.owner, self._bounds,
            ),
        )
        return _rates_into(
            entry,
            self._bounds,
            (_arrhenius(self.params, temperature),),
            self._scratch_pinf,
            self._scratch_total,
            self._guard,
            lambda: {"temperature": float(temperature), "duty": float(duty)},
        )

    def _expand(self, per_owner: np.ndarray | float) -> np.ndarray:
        """Broadcast a per-owner vector (or scalar) to per-trap."""
        arr = self._canonical_bias(per_owner)
        if arr.ndim == 0:
            return np.full(self.n_traps, float(arr))
        return arr[self.owner]

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
        The update is the exact solution of the occupancy ODE with
        duty-averaged rates: ``p' = p_inf + (p - p_inf) * exp(-(rc+re)*dt)``.
        """
        _check_phase(duration, duty)
        if duration <= 0.0:  # zero-length phase is a no-op (negatives raise above)
            return
        capture, emission = self._effective_rates(
            stress_voltage, temperature, duty, relax_voltage
        )
        state = self._state
        _affine_step(
            state.occupancy, capture, emission, duration,
            self._scratch_total, self._scratch_pinf,
        )
        state.elapsed += duration
        guard = self._guard
        if guard.checking:
            guard.check_array(
                "bti.occupancy",
                state.occupancy,
                0.0,
                1.0,
                inputs=lambda: {
                    "op": "evolve",
                    "duration": float(duration),
                    "temperature": float(temperature),
                    "duty": float(duty),
                    "elapsed": float(state.elapsed),
                },
                arrays=lambda: self._bundle_arrays(stress_voltage, relax_voltage),
            )

    def evolve_cycles(self, phases: Sequence[CyclePhase], n: int) -> None:
        """Advance through ``n`` repetitions of a fixed phase sequence, O(1) in ``n``.

        The exact closed form of repeated :meth:`evolve` calls (see
        :func:`_compose_cycles`), so long periodic schedules cost one
        cycle's rate lookups.
        """
        _check_cycles(phases, n)
        if n == 0:
            return
        state = self._state
        state.occupancy, period = _compose_cycles(
            state.occupancy,
            phases,
            n,
            lambda phase: self._effective_rates(
                phase.stress_voltage, phase.temperature, phase.duty, phase.relax_voltage
            ),
        )
        state.elapsed += n * period
        self._cycles_compressed.inc(n)
        guard = self._guard
        if guard.checking:
            guard.check_array(
                "bti.occupancy",
                state.occupancy,
                0.0,
                1.0,
                inputs=lambda: {
                    "op": "evolve_cycles",
                    "n": int(n),
                    "period": float(period),
                    "elapsed": float(state.elapsed),
                },
                arrays=lambda: self._bundle_arrays(None, None),
            )

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
        weights = np.multiply(
            self._state.occupancy, self.impact, out=self._scratch_weights
        )
        return np.bincount(self.owner, weights=weights, minlength=self.n_owners)

    def max_delta_vth(self) -> np.ndarray:
        """Per-owner ceiling on :meth:`delta_vth` (every trap occupied)."""
        return np.bincount(self.owner, weights=self.impact, minlength=self.n_owners)

    def sample_delta_vth(self, rng: np.random.Generator | int | None = None) -> np.ndarray:
        """One stochastic per-owner shift: each trap is occupied or not.

        Use this for statistical-aging studies; the mean over many samples
        converges to :meth:`delta_vth`.
        """
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        occupied = rng.random(self.n_traps) < self._state.occupancy
        return np.bincount(
            self.owner, weights=occupied * self.impact, minlength=self.n_owners
        )

    def equilibrium_delta_vth(
        self, condition: BiasCondition
    ) -> np.ndarray:
        """Per-owner shift if the population equilibrated at ``condition``."""
        v = self._expand(condition.stress_voltage)
        capture, emission = self._rates(v, condition.temperature)
        p_inf = capture / (capture + emission)
        return np.bincount(self.owner, weights=p_inf * self.impact, minlength=self.n_owners)

    # ------------------------------------------------------------------ #
    # state management
    # ------------------------------------------------------------------ #

    def _bundle_arrays(self, stress_voltage, relax_voltage) -> dict:
        """Model arrays for a guard repro bundle (violation slow path)."""
        arrays = {
            "occupancy": self._state.occupancy,
            "tau_c0": self.tau_c0,
            "tau_e0": self.tau_e0,
            "impact": self.impact,
            "owner": self.owner,
        }
        if stress_voltage is not None:
            arrays["stress_voltage"] = np.asarray(stress_voltage, dtype=float)
        if relax_voltage is not None:
            arrays["relax_voltage"] = np.asarray(relax_voltage, dtype=float)
        return arrays

    def inject_upset(self, value: float, n_traps: int = 64) -> None:
        """Fault-injection hook: overwrite the first ``n_traps`` occupancies.

        Bypasses the physics on purpose — campaigns use this (via
        ``FaultKind.TRAP_UPSET``) to model a corrupted readout/state
        upset and exercise the guard's detect/clamp/quarantine path.  The
        poked values (NaN, >1, <0 ...) are caught by the ``bti.occupancy``
        contract on the next ``evolve``.
        """
        count = min(int(n_traps), self.n_traps)
        self._state.occupancy[:count] = value

    def reset(self) -> None:
        """Return every trap to the fresh (empty) state and zero the clock."""
        self._state = _PopulationState(occupancy=np.zeros(self.n_traps))
        self._invalidate_rate_cache()

    def snapshot(self) -> _PopulationState:
        """Capture the mutable state for later :meth:`restore` (what-if runs)."""
        return _PopulationState(
            occupancy=self._state.occupancy.copy(), elapsed=self._state.elapsed
        )

    def restore(self, state: _PopulationState) -> None:
        """Restore a state captured by :meth:`snapshot`."""
        if state.occupancy.shape != (self.n_traps,):
            raise ConfigurationError("snapshot does not match this population")
        self._state = _PopulationState(
            occupancy=state.occupancy.copy(), elapsed=state.elapsed
        )
        self._invalidate_rate_cache()

    def _invalidate_rate_cache(self) -> None:
        """Drop every memoised rate array (state transitions must not
        observe entries built for a previous trajectory)."""
        self._memo.clear()

    @property
    def rate_cache_entries(self) -> int:
        """Live entries in the rate memo (introspection)."""
        return len(self._memo)
