"""Ring-oscillator test structure and measurement (paper Fig. 3).

The CUT is a 75-stage LUT inverter ring with an enable gate: enabled, it
free-runs (AC stress of its own stages); frozen, its nodes hold a static
alternating pattern (DC stress).  A :class:`ReadoutCounter` converts the
oscillation into a count, from which frequency and CUT delay follow via
paper Eqs. (14)-(15).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import MeasurementError
from repro.fpga.counter import ReadoutCounter
from repro.guard import get_guard
from repro.obs import get_tracer


class StressMode(enum.Enum):
    """How the ring oscillator is biased during a stress phase."""

    #: Enable held active — the ring oscillates and every node toggles.
    AC = "ac"
    #: Enable frozen — every node holds a static value (constant stress).
    DC = "dc"


@dataclass(frozen=True)
class RoMeasurement:
    """One readout of the ring oscillator.

    ``count`` is the raw counter value; ``frequency`` and ``delay`` are the
    quantities implied by Eqs. (14)-(15); ``timestamp`` is the chip's
    simulated elapsed time at the readout.
    """

    count: int
    frequency: float
    delay: float
    timestamp: float


def checked_frequency(guard, frequency: float, chip_id: str, elapsed: float) -> float:
    """A CUT's noise-free ``frequency`` under the ``fpga.frequency`` contract.

    Contract: strictly positive and finite (Eqs. 14-15 divide by it).  In
    ``clamp`` mode a violating frequency degrades to 0.0 — a dead
    oscillator — instead of reaching the counter as NaN or a negative
    value.  ``chip_id`` and ``elapsed`` name the chip in a violation
    record.
    """
    if guard.checking and not (frequency > 0.0 and math.isfinite(frequency)):
        return guard.positive_scalar(
            "fpga.frequency",
            frequency,
            clamp_to=0.0,
            inputs=lambda: {"chip": chip_id, "elapsed": elapsed},
        )
    return frequency


def read_burst(
    counter: ReadoutCounter, frequency: float, n_reads: int, rng: np.random.Generator, chip_id: str
) -> float:
    """Mean count of one burst of ``n_reads`` noisy readouts at ``frequency``.

    The chip does not age between reads of one burst, so all readout
    noise is drawn in one vectorised call: stream- and bit-identical to
    ``np.mean(counter.read_many(frequency, n_reads, rng))``, without
    building the count array when every count stays inside the counter
    range.  A dead oscillator (``frequency`` at or below 0 Hz, as
    :func:`checked_frequency` clamps a violating one in ``clamp`` mode)
    has no count to read, and noise can clamp a near-zero-``fosc`` count
    to 0; either raises :class:`MeasurementError` naming ``chip_id``
    rather than dividing by zero in Eqs. 14-15.  A non-finite frequency,
    which only an unguarded run lets through, is refused by the counter
    as a :class:`~repro.errors.ConfigurationError`.
    """
    if frequency <= 0.0:
        raise MeasurementError(
            f"chip {chip_id}: oscillator frequency {frequency} Hz — RO stopped, "
            "no count to read"
        )
    noise = counter.noise_counts
    if noise > 0 and math.isfinite(frequency):
        ideal = counter.ideal_count(frequency)
        draws = rng.integers(-noise, noise + 1, size=n_reads)
        if 0 <= ideal - noise and ideal + noise <= counter.max_count:
            mean_count = (ideal * n_reads + int(draws.sum())) / float(n_reads)
        else:
            counts = ideal + draws
            np.maximum(counts, 0, out=counts)
            counter._check_overflow(int(counts.max()))
            mean_count = int(counts.sum()) / float(n_reads)
    else:
        mean_count = float(np.mean(counter.read_many(frequency, n_reads, rng=rng)))
    if mean_count <= 0:
        raise MeasurementError(
            f"chip {chip_id}: readout count {mean_count} implies no "
            "oscillation — RO stopped or fosc below counter resolution"
        )
    return mean_count


class RingOscillator:
    """Measurement façade over a chip's inverter-chain CUT.

    Parameters
    ----------
    chip:
        Any object exposing ``oscillation_frequency()`` and ``elapsed`` —
        in practice :class:`repro.fpga.chip.FpgaChip`.
    counter:
        Readout counter; defaults to the paper's 16-bit / 500 Hz design.
    tracer:
        Telemetry sink; defaults to the process tracer (a no-op unless
        one was installed), and only counters are touched here.
    """

    def __init__(self, chip, counter: ReadoutCounter | None = None, tracer=None) -> None:
        self.chip = chip
        self.counter = counter or ReadoutCounter()
        # Share the chip's guard when it has one so violation counts and
        # budgets stay per chip; standalone CUTs fall back to the ambient.
        self._guard = getattr(chip, "guard", None) or get_guard()
        tracer = tracer if tracer is not None else get_tracer()
        self._evaluations = tracer.counter(
            "ro.evaluations", "counter readouts taken from ring oscillators"
        )

    def frequency(self) -> float:
        """Noise-free oscillation frequency of the CUT (see :func:`checked_frequency`)."""
        return checked_frequency(
            self._guard,
            self.chip.oscillation_frequency(),
            str(getattr(self.chip, "chip_id", "")),
            float(self.chip.elapsed),
        )

    def measure(self, rng: np.random.Generator | int | None = None) -> RoMeasurement:
        """Take one counter readout (quantised, with repeatability noise)."""
        return self.measure_averaged(1, rng=rng)

    def measure_averaged(
        self, n_reads: int, rng: np.random.Generator | int | None = None
    ) -> RoMeasurement:
        """Average ``n_reads`` readouts taken from a stable time range.

        The paper reads the counter "from a certain time range that has
        stable values"; averaging several quantised readouts is the
        virtual equivalent.
        """
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self._evaluations.inc(n_reads)
        mean_count = read_burst(self.counter, self.frequency(), n_reads, rng, self.chip.chip_id)
        return RoMeasurement(
            count=int(round(mean_count)),
            frequency=self.counter.frequency(mean_count),
            delay=self.counter.delay(mean_count),
            timestamp=self.chip.elapsed,
        )
