"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing configuration mistakes from runtime problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A model, instrument or schedule was configured with invalid values."""


class ScheduleError(ConfigurationError):
    """A stress/recovery schedule is malformed (overlaps, negative time...)."""


class InstrumentError(ReproError):
    """A virtual lab instrument was driven outside its operating envelope."""


class MeasurementError(ReproError):
    """A measurement could not be taken or produced an out-of-range value."""


class CounterOverflowError(MeasurementError):
    """The ring-oscillator readout counter exceeded its bit width."""


class ChipDropoutError(InstrumentError):
    """A chip stopped responding mid-campaign (socket, bitstream or die).

    Not retryable: once a device falls off the bench it stays off, and the
    campaign quarantines it instead of crashing.
    """


class FleetDropoutError(ChipDropoutError):
    """Chips of a fleet span dropped out of one batched operation.

    ``errors`` maps each dropped chip's fleet index to its error; the
    operation completed for the span's other chips first, and a read
    hands what it read for the span over in ``values``.
    """

    def __init__(self, errors: dict, values=None) -> None:
        self.errors = dict(errors)
        self.values = values
        super().__init__("; ".join(str(error) for error in self.errors.values()))

    def __reduce__(self):  # pickle the arguments, not the joined message
        return type(self), (self.errors, self.values), self.__dict__


class RetryExhaustedError(MeasurementError):
    """A retried measurement kept failing past the policy's attempt budget."""


class CheckpointError(ReproError):
    """A campaign checkpoint directory is missing, corrupt or incompatible."""


class SweepError(ReproError):
    """A dependability sweep directory is missing, corrupt or incompatible.

    Raised for infrastructure problems of the sweep itself (bad manifest,
    spec mismatch on resume).  A *cell* that fails or times out is never
    an exception — it is recorded in the sweep manifest and the sweep
    degrades gracefully onto the surviving cells.
    """


class FittingError(ReproError):
    """Model parameter extraction failed to converge or was ill-posed."""


class SimulationError(ReproError):
    """A simulation reached an inconsistent internal state."""


class PhysicsViolationError(SimulationError):
    """A runtime physical contract was broken (see :mod:`repro.guard`).

    Raised in ``raise`` guard mode when a model quantity leaves its
    physical domain — trap occupancy outside [0, 1], a NaN delay, a
    negative oscillation frequency.  ``contract`` names the violated
    contract (e.g. ``"bti.occupancy"``) and ``bundle_path`` points at
    the crash-dump repro bundle written for replay, if one was written.
    """

    def __init__(
        self,
        message: str,
        *,
        contract: str = "",
        bundle_path: str | None = None,
    ) -> None:
        super().__init__(message)
        self.contract = contract
        self.bundle_path = bundle_path
