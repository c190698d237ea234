"""16-bit readout counter for the ring oscillator (paper Fig. 3, Eq. 14).

The counter counts oscillator edges over one half-period of the reference
clock ``fref``; the paper's relation ``fosc = 2 * Cout * fref`` inverts the
readout.  The physical counter quantises and carries a small repeatability
error — the paper quotes counter variation "within +/-5" counts at
``fref = 500 Hz`` — which we reproduce so measured curves carry realistic
noise.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError, CounterOverflowError, MeasurementError


class ReadoutCounter:
    """Counts oscillator cycles against a reference clock.

    Parameters
    ----------
    fref:
        Reference clock frequency in Hz (paper uses 500 Hz).
    bits:
        Counter width; the paper's design uses 16 bits.
    noise_counts:
        Half-width of the uniform readout repeatability error in LSBs.
    """

    def __init__(self, fref: float = 500.0, bits: int = 16, noise_counts: int = 5) -> None:
        if fref <= 0.0:
            raise ConfigurationError(f"fref must be positive, got {fref}")
        if bits <= 0:
            raise ConfigurationError(f"bits must be positive, got {bits}")
        if noise_counts < 0:
            raise ConfigurationError(f"noise_counts must be non-negative, got {noise_counts}")
        self.fref = fref
        self.bits = bits
        self.noise_counts = noise_counts

    @property
    def max_count(self) -> int:
        """Largest representable count."""
        return (1 << self.bits) - 1

    def _check_overflow(self, highest: int) -> None:
        """Refuse any count past the register width.

        The single overflow gate shared by the scalar, burst and fleet
        readout paths: a hardware counter would silently wrap ``count mod
        2**bits`` and alias a fast oscillator to a bogus low frequency,
        so every virtual path must raise the same typed
        :class:`~repro.errors.CounterOverflowError`
        (a :class:`~repro.errors.MeasurementError`) instead.
        """
        if highest > self.max_count:
            raise CounterOverflowError(
                f"count {highest} exceeds the {self.bits}-bit counter range; "
                f"raise fref above {self.fref} Hz"
            )

    def ideal_count(self, fosc: float) -> int:
        """Noise-free count for an oscillator frequency (paper Eq. 14 inverted)."""
        if not (fosc > 0.0 and math.isfinite(fosc)):
            raise ConfigurationError(f"fosc must be positive and finite, got {fosc}")
        return int(round(fosc / (2.0 * self.fref)))

    def read(self, fosc: float, rng: np.random.Generator | int | None = None) -> int:
        """One noisy counter readout for oscillator frequency ``fosc``.

        Raises :class:`CounterOverflowError` if the count would exceed the
        counter width — on hardware that readout would silently wrap, so
        the virtual instrument refuses instead.
        """
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        count = self.ideal_count(fosc)
        if self.noise_counts > 0:
            count += int(rng.integers(-self.noise_counts, self.noise_counts + 1))
        if count < 0:
            count = 0
        self._check_overflow(count)
        return count

    def read_many(
        self, fosc: float, n_reads: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        """``n_reads`` noisy readouts at a fixed frequency, one RNG call.

        Draws the whole noise vector at once; the generator stream (and
        therefore every count) is identical to ``n_reads`` sequential
        :meth:`read` calls with the same generator.
        """
        if n_reads <= 0:
            raise ConfigurationError(f"n_reads must be positive, got {n_reads}")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        counts = np.full(n_reads, self.ideal_count(fosc), dtype=np.int64)
        if self.noise_counts > 0:
            counts += rng.integers(
                -self.noise_counts, self.noise_counts + 1, size=n_reads
            )
        np.maximum(counts, 0, out=counts)
        self._check_overflow(int(counts.max()))
        return counts

    def frequency(self, count: int) -> float:
        """Oscillator frequency implied by a count (paper Eq. 14)."""
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count}")
        return 2.0 * count * self.fref

    def delay(self, count: int) -> float:
        """CUT delay implied by a count (paper Eq. 15): ``1/(4*Cout*fref)``.

        A zero count is a measurement outcome, not a configuration mistake
        — readout noise can clamp a near-zero-``fosc`` count to 0 — so it
        raises :class:`~repro.errors.MeasurementError`, which the retry
        layer treats as a re-readable fault.
        """
        if count <= 0:
            raise MeasurementError(
                f"count {count} implies no oscillation — the RO is stopped "
                "or fosc is below the counter resolution"
            )
        return 1.0 / (4.0 * count * self.fref)
