"""Deterministic instrument-fault injection for the virtual lab bench.

Real benches are not perfect: thermal chambers drift past their control
band, supplies droop and their relays chatter, counters drop readouts or
get a bit stuck, and whole chips fall off the bench mid-campaign.  This
module models those failure modes as a *plan* — an explicit, seeded list
of :class:`FaultEvent` — rather than as live randomness, so a faulted
campaign is exactly as reproducible as a clean one: the same seed yields
the same faults at the same simulated times, and the campaign RNG streams
are never touched (a chip with no faults is bit-identical to a fault-free
run).

The taxonomy maps onto the existing error hierarchy:

* ``THERMAL_DRIFT`` / ``SUPPLY_DROOP`` silently perturb the delivered
  temperature/voltage over a window — degradation the chip physically
  experiences, visible only in the data;
* ``RELAY_CHATTER`` raises :class:`~repro.errors.InstrumentError` and
  ``DROPPED_READOUT`` raises :class:`~repro.errors.MeasurementError` at
  the next readout burst (one-shot, retryable);
* ``STUCK_BIT`` corrupts the next count; the bench's plausibility check
  or the counter's own range check
  (:class:`~repro.errors.CounterOverflowError`) surfaces it;
* ``CHIP_DROPOUT`` raises :class:`~repro.errors.ChipDropoutError` from
  its start time onward — permanent, never retried, quarantined by the
  campaign;
* ``TRAP_UPSET`` corrupts the chip's trap-occupancy state in place (a
  radiation-style state upset rather than a bench fault) — invisible to
  the instruments, caught only by the :mod:`repro.guard` physics
  contracts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import ChipDropoutError, ConfigurationError
from repro.obs import get_tracer
from repro.units import hours, minutes


class FaultKind(enum.Enum):
    """The bench failure modes the virtual lab can inject."""

    #: Chamber wanders beyond its +/- control band for a window.
    THERMAL_DRIFT = "thermal-drift"
    #: Supply rail sags below the setpoint for a window (stress rails only).
    SUPPLY_DROOP = "supply-droop"
    #: Output relay bounces during a readout burst (one-shot, detected).
    RELAY_CHATTER = "relay-chatter"
    #: Counter returns nothing for one readout burst (one-shot, detected).
    DROPPED_READOUT = "dropped-readout"
    #: A counter bit reads stuck-high for one burst (one-shot, corrupting).
    STUCK_BIT = "stuck-bit"
    #: The chip stops responding permanently from ``start`` onward.
    CHIP_DROPOUT = "chip-dropout"
    #: Trap occupancy state corrupted in place (one-shot, silent).
    TRAP_UPSET = "trap-upset"


#: Kinds that fire exactly once, at the first readout at/after ``start``.
ONE_SHOT_KINDS = frozenset(
    {FaultKind.RELAY_CHATTER, FaultKind.DROPPED_READOUT, FaultKind.STUCK_BIT}
)

#: Kinds that perturb delivered values over ``[start, start + duration)``.
WINDOW_KINDS = frozenset({FaultKind.THERMAL_DRIFT, FaultKind.SUPPLY_DROOP})

#: Kinds that corrupt device state (not instruments), once, at/after ``start``.
STATE_KINDS = frozenset({FaultKind.TRAP_UPSET})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled bench fault.

    ``start`` is simulated seconds on the victim chip's own clock
    (``FpgaChip.elapsed``).  ``duration`` only applies to window kinds;
    ``magnitude`` is degrees Celsius for drift, volts for droop, the
    stuck bit index for ``STUCK_BIT``, and the bogus occupancy value
    (possibly NaN) written into the trap state for ``TRAP_UPSET``.
    """

    kind: FaultKind
    chip_id: str
    start: float
    duration: float = 0.0
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.start < 0.0:
            raise ConfigurationError(f"fault start must be non-negative, got {self.start}")
        if self.duration < 0.0:
            raise ConfigurationError(
                f"fault duration must be non-negative, got {self.duration}"
            )
        if self.kind in WINDOW_KINDS and self.duration <= 0.0:
            raise ConfigurationError(f"{self.kind.value} faults need a positive duration")
        if self.kind is FaultKind.STUCK_BIT and not float(self.magnitude).is_integer():
            raise ConfigurationError("stuck-bit magnitude must be an integer bit index")

    @property
    def end(self) -> float:
        """End of the fault window (equals ``start`` for one-shot kinds)."""
        return self.start + self.duration


class FaultPlan:
    """An immutable, ordered set of fault events for a campaign.

    Build one explicitly from events, or draw one with :meth:`generate`
    — both are fully deterministic.  The plan is shared read-only by every
    chip; per-chip mutable state lives in :class:`FaultInjector`.
    """

    def __init__(self, events: tuple[FaultEvent, ...] | list[FaultEvent] = ()) -> None:
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.chip_id, e.start, e.kind.value))
        )

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultPlan) and self.events == other.events

    def for_chip(self, chip_id: str) -> tuple[FaultEvent, ...]:
        """Events targeting one chip, in start-time order."""
        return tuple(e for e in self.events if e.chip_id == chip_id)

    @classmethod
    def generate(
        cls,
        seed: int,
        chip_ids: list[str] | tuple[str, ...],
        horizon: float,
        rate_per_day: float = 1.0,
        dropout_probability: float = 0.0,
        upset_probability: float = 0.0,
    ) -> "FaultPlan":
        """Draw a random plan from its own RNG (never the campaign's).

        ``rate_per_day`` is the Poisson mean of instrument faults per chip
        per simulated day over ``horizon`` seconds;
        ``dropout_probability`` is the per-chip chance of one permanent
        dropout at a uniform time; ``upset_probability`` is the per-chip
        chance of one trap-state upset at a uniform time (half NaN, half
        an out-of-domain occupancy).  Same arguments, same plan — and the
        upset draws only happen when ``upset_probability`` is non-zero,
        so plans generated before the knob existed are unchanged.
        """
        if horizon <= 0.0:
            raise ConfigurationError(f"horizon must be positive, got {horizon}")
        if rate_per_day < 0.0:
            raise ConfigurationError("rate_per_day must be non-negative")
        if not 0.0 <= dropout_probability <= 1.0:
            raise ConfigurationError("dropout_probability must be within [0, 1]")
        if not 0.0 <= upset_probability <= 1.0:
            raise ConfigurationError("upset_probability must be within [0, 1]")
        rng = np.random.default_rng(seed)
        transient_kinds = (
            FaultKind.THERMAL_DRIFT,
            FaultKind.SUPPLY_DROOP,
            FaultKind.RELAY_CHATTER,
            FaultKind.DROPPED_READOUT,
            FaultKind.STUCK_BIT,
        )
        events: list[FaultEvent] = []
        for chip_id in chip_ids:
            n_events = int(rng.poisson(rate_per_day * horizon / hours(24.0)))
            for _ in range(n_events):
                kind = transient_kinds[int(rng.integers(len(transient_kinds)))]
                start = float(rng.uniform(0.0, horizon))
                duration, magnitude = 0.0, 0.0
                if kind is FaultKind.THERMAL_DRIFT:
                    duration = float(rng.uniform(minutes(30.0), hours(2.0)))
                    magnitude = float(rng.uniform(0.5, 3.0))
                elif kind is FaultKind.SUPPLY_DROOP:
                    duration = float(rng.uniform(minutes(1.0), minutes(30.0)))
                    magnitude = float(rng.uniform(0.02, 0.15))
                elif kind is FaultKind.STUCK_BIT:
                    magnitude = float(rng.integers(8, 15))
                events.append(
                    FaultEvent(
                        kind=kind,
                        chip_id=chip_id,
                        start=start,
                        duration=duration,
                        magnitude=magnitude,
                    )
                )
            if float(rng.random()) < dropout_probability:
                events.append(
                    FaultEvent(
                        kind=FaultKind.CHIP_DROPOUT,
                        chip_id=chip_id,
                        start=float(rng.uniform(0.0, horizon)),
                    )
                )
            # Gated so a zero probability consumes no RNG draws: plans
            # generated before this knob existed stay byte-identical.
            if upset_probability > 0.0 and float(rng.random()) < upset_probability:
                magnitude = (
                    float("nan")
                    if float(rng.random()) < 0.5
                    else float(rng.uniform(1.5, 4.0))
                )
                events.append(
                    FaultEvent(
                        kind=FaultKind.TRAP_UPSET,
                        chip_id=chip_id,
                        start=float(rng.uniform(0.0, horizon)),
                        magnitude=magnitude,
                    )
                )
        return cls(events)


class FaultInjector:
    """One chip's live view of a :class:`FaultPlan`.

    Tracks which one-shot events have fired (each fires at the first
    readout at/after its start, then is consumed, so a retry re-reads
    cleanly) and answers window queries against the chip's simulated
    clock.  ``start_time`` lets a resumed campaign mark everything the
    chip already lived through as spent.
    """

    def __init__(
        self, plan: FaultPlan, chip_id: str, start_time: float = 0.0, tracer=None
    ) -> None:
        self.chip_id = chip_id
        events = plan.for_chip(chip_id)
        self._windows = tuple(e for e in events if e.kind in WINDOW_KINDS)
        self._pending = [
            e for e in events if e.kind in ONE_SHOT_KINDS and e.start >= start_time
        ]
        self._pending_upsets = [
            e for e in events if e.kind in STATE_KINDS and e.start >= start_time
        ]
        dropouts = [e for e in events if e.kind is FaultKind.CHIP_DROPOUT]
        self._dropout_at = min((e.start for e in dropouts), default=None)
        self.fired: list[FaultEvent] = []
        self._seen_windows: set[FaultEvent] = set()
        tracer = tracer if tracer is not None else get_tracer()
        self._injected = tracer.counter(
            "lab.faults.injected", "bench faults that took effect during campaigns"
        )

    def _record(self, event: FaultEvent) -> None:
        self.fired.append(event)
        self._injected.inc()

    def check_dropout(self, now: float) -> None:
        """Raise :class:`ChipDropoutError` once the dropout time passes."""
        if self._dropout_at is not None and now >= self._dropout_at:
            raise ChipDropoutError(
                f"{self.chip_id} stopped responding at t={self._dropout_at:.1f} s "
                "(simulated bench dropout)"
            )

    def _active_windows(self, now: float, kind: FaultKind) -> list[FaultEvent]:
        active = [
            e for e in self._windows if e.kind is kind and e.start <= now < e.end
        ]
        for event in active:
            if event not in self._seen_windows:
                self._seen_windows.add(event)
                self._record(event)
        return active

    def temperature_offset(self, now: float) -> float:
        """Degrees of chamber drift currently delivered on top of the band."""
        return sum(e.magnitude for e in self._active_windows(now, FaultKind.THERMAL_DRIFT))

    def voltage_droop(self, now: float) -> float:
        """Volts of rail sag currently delivered (non-negative)."""
        return sum(e.magnitude for e in self._active_windows(now, FaultKind.SUPPLY_DROOP))

    def pop_readout_fault(self, now: float) -> FaultEvent | None:
        """Consume the earliest pending one-shot fault due at/before ``now``."""
        for index, event in enumerate(self._pending):
            if event.start <= now:
                self._record(event)
                del self._pending[index]
                return event
        return None

    def pop_upset(self, now: float) -> FaultEvent | None:
        """Consume the earliest pending trap-state upset due at/before ``now``."""
        for index, event in enumerate(self._pending_upsets):
            if event.start <= now:
                self._record(event)
                del self._pending_upsets[index]
                return event
        return None
