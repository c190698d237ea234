"""Guard modes, contract checks and the ambient guard.

A :class:`Guard` is cheap enough to consult on the model hot paths: in
``off`` mode every check is one attribute load and a branch; in the
checking modes an array contract costs two reductions (``min``/``max``
are NaN-poisoning, so a single pair of comparisons also catches NaN and
Inf) and a scalar contract costs two comparisons.  All the expensive
work — building messages, snapshotting arrays, writing bundles — lives
on the violation slow path.

Guards are not thread-safe (violation counts and budgets are per chip);
campaigns build one guard per chip, mirroring the one-tracer-per-worker
rule in :mod:`repro.obs`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.errors import (
    ChipDropoutError,
    ConfigurationError,
    PhysicsViolationError,
)
from repro.guard.bundle import write_bundle

#: Largest exponent fed to ``exp``: ``exp(709.8)`` overflows float64, so
#: clamping at 700 leaves headroom for one further multiplication before
#: a product can reach ``inf``.  Underflow on the negative side is
#: harmless (denormals, then exact 0.0).
EXP_MAX = 700.0


def safe_exp(exponent: float) -> float:
    """``exp`` with the argument clamped to :data:`EXP_MAX`.

    The guard-approved way to exponentiate an Arrhenius or field
    exponent: a huge ``Ea/kT`` saturates at a huge-but-finite rate
    instead of overflowing to ``inf`` and poisoning downstream state
    with NaN.
    """
    return math.exp(min(float(exponent), EXP_MAX))


def safe_exp_array(exponent: np.ndarray) -> np.ndarray:
    """Vectorised :func:`safe_exp` (returns a new array)."""
    return np.exp(np.minimum(exponent, EXP_MAX))


class GuardMode(enum.Enum):
    """What a tripped contract does."""

    #: Throw :class:`~repro.errors.PhysicsViolationError` with a bundle.
    RAISE = "raise"
    #: Clamp into the domain, count, annotate the span, honour the budget.
    CLAMP = "clamp"
    #: Reduce every check to a no-op (the perf path).
    OFF = "off"

    @classmethod
    def coerce(cls, value: "GuardMode | str") -> "GuardMode":
        """Accept a :class:`GuardMode` or its string name/value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            choices = ", ".join(mode.value for mode in cls)
            raise ConfigurationError(
                f"unknown guard mode {value!r} (choose from: {choices})"
            ) from None


@dataclass(frozen=True)
class GuardConfig:
    """Immutable guard policy, shared by every chip in a campaign."""

    #: What a violation does (``raise`` / ``clamp`` / ``off``).
    mode: GuardMode = GuardMode.RAISE
    #: ``clamp`` mode: violations tolerated per chip before the chip is
    #: handed to quarantine via :class:`~repro.errors.ChipDropoutError`
    #: (``None`` = unlimited).
    violation_budget: int | None = None
    #: ``raise`` mode: directory for repro bundles (``None`` = no dump).
    dump_dir: str | None = "guard-dumps"
    #: Absolute tolerance: float dust within ``atol`` of a bound is not a
    #: violation and is left untouched, so all three modes stay
    #: bit-identical on healthy runs.
    atol: float = 1e-9
    #: Ceiling for core/chamber temperatures (kelvin).
    max_temperature: float = 1000.0
    #: Ceiling for capture/emission rates (1/s); physically "instant".
    rate_cap: float = 1e300

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", GuardMode.coerce(self.mode))
        if self.violation_budget is not None and self.violation_budget < 0:
            raise ConfigurationError(
                f"violation_budget must be >= 0 or None, got "
                f"{self.violation_budget}"
            )
        if self.atol < 0.0:
            raise ConfigurationError(f"atol must be >= 0, got {self.atol}")


class Guard:
    """Per-chip contract checker (see the module docstring for modes)."""

    __slots__ = ("config", "checking", "owner", "violations", "_tracer",
                 "_counters")

    def __init__(
        self,
        config: GuardConfig | None = None,
        *,
        tracer=None,
        owner: str = "",
    ) -> None:
        from repro.obs import NULL_TRACER

        self.config = config if config is not None else GuardConfig()
        #: False only in ``off`` mode; hot paths branch on this once.
        self.checking = self.config.mode is not GuardMode.OFF
        self.owner = owner
        #: Total violations seen by this guard (all contracts).
        self.violations = 0
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._counters: dict = {}

    @property
    def mode(self) -> GuardMode:
        """The configured :class:`GuardMode`."""
        return self.config.mode

    # -- contract checks -------------------------------------------------

    def check_array(
        self,
        contract: str,
        values: np.ndarray,
        lo: float,
        hi,
        *,
        tol: float | None = None,
        inputs: Mapping | Callable[[], Mapping] | None = None,
        arrays: Mapping | Callable[[], Mapping] | None = None,
    ) -> np.ndarray:
        """Require every element of ``values`` in ``[lo, hi]`` and finite.

        ``hi`` may be a scalar or a per-element array (e.g. the per-owner
        maximum ΔVth).  In ``clamp`` mode the array is repaired *in
        place* (NaN to ``lo``, then clipped), so callers must pass a
        writeable array.  Returns the (possibly repaired) array.
        """
        if not self.checking or values.size == 0:
            return values
        if tol is None:
            tol = self.config.atol
        if isinstance(hi, np.ndarray):
            ok = bool(np.all(values >= lo - tol)) and bool(
                np.all(values <= hi + tol)
            )
        else:
            # min/max are NaN-poisoning reductions: a single NaN makes
            # both comparisons False, so this pair also catches NaN, and
            # the strict < inf catches +inf even under an infinite bound.
            vmax = values.max()
            ok = (values.min() >= lo - tol) and (vmax <= hi + tol) and (
                vmax < math.inf
            )
        if ok:
            return values
        return self._violated(
            contract,
            message=self._array_message(contract, values, lo, hi),
            fix=lambda: _clip_array(values, lo, hi),
            inputs=inputs,
            arrays=arrays,
            fallback_arrays={"values": values},
        )

    def check_scalar(
        self,
        contract: str,
        value: float,
        lo: float = -math.inf,
        hi: float = math.inf,
        *,
        tol: float | None = None,
        clamp_lo: float | None = None,
        clamp_hi: float | None = None,
        inputs: Mapping | Callable[[], Mapping] | None = None,
        arrays: Mapping | Callable[[], Mapping] | None = None,
    ) -> float:
        """Require ``lo <= value <= hi`` (within ``tol``) and finite.

        ``clamp_lo``/``clamp_hi`` override the repair targets in
        ``clamp`` mode (default: the bounds themselves).
        """
        if not self.checking:
            return value
        if tol is None:
            tol = self.config.atol
        if lo - tol <= value <= hi + tol and math.isfinite(value):
            return value
        return self._violated(
            contract,
            message=(
                f"{contract}: value {value!r} outside [{lo:g}, {hi:g}]"
                + (f" on {self.owner}" if self.owner else "")
            ),
            fix=lambda: _clip_scalar(
                value,
                lo if clamp_lo is None else clamp_lo,
                hi if clamp_hi is None else clamp_hi,
            ),
            inputs=inputs,
            arrays=arrays,
        )

    def positive_scalar(
        self,
        contract: str,
        value: float,
        *,
        clamp_to: float = 0.0,
        inputs: Mapping | Callable[[], Mapping] | None = None,
        arrays: Mapping | Callable[[], Mapping] | None = None,
    ) -> float:
        """Require ``value`` strictly positive and finite.

        In ``clamp`` mode the repaired value is ``clamp_to`` (default
        0.0 — e.g. a dead oscillator rather than a negative frequency),
        which downstream layers already treat as a measurement failure.
        """
        if not self.checking:
            return value
        if value > 0.0 and math.isfinite(value):
            return value
        return self._violated(
            contract,
            message=(
                f"{contract}: value {value!r} is not a positive finite number"
                + (f" on {self.owner}" if self.owner else "")
            ),
            fix=lambda: clamp_to,
            inputs=inputs,
            arrays=arrays,
        )

    # -- violation slow path ---------------------------------------------

    def _array_message(self, contract, values, lo, hi) -> str:
        hi_repr = "per-element bound" if isinstance(hi, np.ndarray) else f"{hi:g}"
        nonfinite = int(np.count_nonzero(~np.isfinite(values)))
        return (
            f"{contract}: {values.size} values span "
            f"[{float(values.min()):g}, {float(values.max()):g}] "
            f"with {nonfinite} non-finite, outside [{lo:g}, {hi_repr}]"
            + (f" on {self.owner}" if self.owner else "")
        )

    def _violated(
        self,
        contract: str,
        *,
        message: str,
        fix: Callable[[], object],
        inputs,
        arrays,
        fallback_arrays: Mapping | None = None,
    ):
        if self.config.mode is GuardMode.CLAMP:
            repaired = fix()
            self._note(contract, enforce_budget=True)
            return repaired
        bundle_path = self._dump(contract, message, inputs, arrays,
                                 fallback_arrays)
        self._note(contract, enforce_budget=False)
        raise PhysicsViolationError(
            message, contract=contract, bundle_path=bundle_path
        )

    def _note(self, contract: str, *, enforce_budget: bool) -> None:
        self.violations += 1
        counter = self._counters.get(contract)
        if counter is None:
            # Deliberate dynamic family (baselined RPR007): one counter per
            # contract name, bounded by the fixed contract set.
            counter = self._tracer.counter(
                f"guard.violations.{contract}",
                f"physics contract {contract} violations",
            )
            self._counters[contract] = counter
        counter.inc()
        span = getattr(self._tracer, "current", None)
        if span is not None:
            span.incr("guard_violations")
            span.set("guard_contract", contract)
        budget = self.config.violation_budget
        if enforce_budget and budget is not None and self.violations > budget:
            raise ChipDropoutError(
                f"{self.owner or 'chip'}: guard violation budget exhausted "
                f"({self.violations} violations > budget {budget})"
            )

    def _dump(self, contract, message, inputs, arrays, fallback_arrays):
        dump_dir = self.config.dump_dir
        if dump_dir is None:
            return None
        inputs = dict(inputs() if callable(inputs) else (inputs or {}))
        arrays = dict(arrays() if callable(arrays) else (arrays or {}))
        if not arrays and fallback_arrays:
            arrays = dict(fallback_arrays)
        path = write_bundle(
            dump_dir,
            contract=contract,
            owner=self.owner,
            message=message,
            inputs=inputs,
            arrays=arrays,
        )
        return str(path)


def _clip_array(values: np.ndarray, lo: float, hi) -> np.ndarray:
    """Repair ``values`` in place into ``[lo, hi]`` (NaN becomes ``lo``)."""
    hi_fill = float(np.max(hi)) if isinstance(hi, np.ndarray) else float(hi)
    if not math.isfinite(hi_fill):
        hi_fill = lo
    np.nan_to_num(values, copy=False, nan=lo, posinf=hi_fill, neginf=lo)
    np.clip(values, lo, hi, out=values)
    return values


def _clip_scalar(value: float, lo: float, hi: float) -> float:
    """Repair a scalar into ``[lo, hi]`` (NaN becomes the lower target)."""
    if math.isnan(value):
        return lo if math.isfinite(lo) else 0.0
    if value < lo:
        return lo
    if value > hi:
        return hi
    if not math.isfinite(value):  # +/-inf inside an infinite bound
        return lo if math.isfinite(lo) else 0.0
    return float(value)


# -- ambient guard (mirrors repro.obs.get_tracer/set_tracer/use_tracer) --

#: The default policy: fail fast on unphysical values, write no bundles.
_DEFAULT_GUARD = Guard(GuardConfig(mode=GuardMode.RAISE, dump_dir=None))

_active_guard: Guard = _DEFAULT_GUARD


def get_guard() -> Guard:
    """The currently active ambient guard (raising, bundle-less default)."""
    return _active_guard


def set_guard(guard: Guard | None) -> None:
    """Install ``guard`` as the process default (``None`` resets)."""
    global _active_guard
    _active_guard = guard if guard is not None else _DEFAULT_GUARD


def chip_guards(guard, n_chips: int) -> list[Guard]:
    """One guard per chip of an ``n_chips`` fleet.

    ``guard`` is ``None`` (every chip on the current ambient guard), one
    :class:`Guard` shared by every chip, or a sequence holding one guard
    per chip — the campaign form, which keeps violation counts and
    budgets chip-local.
    """
    if guard is None or isinstance(guard, Guard):
        return [guard if guard is not None else get_guard()] * n_chips
    guards = list(guard)
    if len(guards) != n_chips:
        raise ConfigurationError(f"{len(guards)} guards for {n_chips} chips")
    return guards


def verdict_tolerance(guards) -> float | None:
    """The tolerance of a span's vectorised verdict, ``None`` if no guard checks.

    The smallest ``atol`` of the checking guards: a span that passes at
    it passes every chip's own check.
    """
    return min((g.config.atol for g in guards if g.checking), default=None)


def consult_chips(guards, indices, check) -> dict:
    """Run ``check(index, guard)`` for every listed chip whose guard checks.

    The slow path behind a failed vectorised verdict, in chip order: a
    chip whose clamp budget runs out is collected (index ->
    :class:`~repro.errors.ChipDropoutError`) and the rest are still
    checked; a raise-mode violation propagates at once.
    """
    failed = {}
    for index in indices:
        guard = guards[index]
        if guard.checking:
            try:
                check(index, guard)
            except ChipDropoutError as error:
                failed[index] = error
    return failed


class use_guard:
    """Context manager installing a guard for the enclosed block::

        with use_guard(Guard(GuardConfig(mode="clamp"))) as guard:
            chip.apply_stress(...)
        print(guard.violations)
    """

    def __init__(self, guard: Guard) -> None:
        self.guard = guard
        self._previous: Guard | None = None

    def __enter__(self) -> Guard:
        self._previous = get_guard()
        set_guard(self.guard)
        return self.guard

    def __exit__(self, exc_type, exc, tb) -> None:
        set_guard(self._previous)
