"""16-bit readout counter (paper Eqs. 14-15)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, CounterOverflowError, MeasurementError
from repro.fpga.counter import ReadoutCounter


class TestReadoutCounter:
    def test_equation_14_roundtrip(self):
        counter = ReadoutCounter(fref=500.0, noise_counts=0)
        fosc = 3.2e6
        count = counter.read(fosc, rng=0)
        assert counter.frequency(count) == pytest.approx(fosc, rel=1e-3)

    def test_equation_15_delay(self):
        counter = ReadoutCounter(fref=500.0)
        count = 3200
        # Td = 1/(4 * Cout * fref)
        assert counter.delay(count) == pytest.approx(1.0 / (4.0 * 3200 * 500.0))

    def test_noise_bounded_by_spec(self):
        counter = ReadoutCounter(noise_counts=5)
        ideal = counter.ideal_count(3.2e6)
        rng = np.random.default_rng(1)
        reads = [counter.read(3.2e6, rng=rng) for _ in range(200)]
        assert max(abs(r - ideal) for r in reads) <= 5

    def test_noise_free_mode(self):
        counter = ReadoutCounter(noise_counts=0)
        reads = {counter.read(3.2e6, rng=i) for i in range(10)}
        assert len(reads) == 1

    def test_overflow_detected(self):
        counter = ReadoutCounter(fref=500.0, bits=16)
        with pytest.raises(CounterOverflowError):
            counter.read(100e6, rng=0)  # needs 100000 counts > 65535

    def test_max_count(self):
        assert ReadoutCounter(bits=16).max_count == 65535

    def test_paper_operating_point_fits_in_16_bits(self):
        # A fresh 75-stage CUT at ~155 ns (3.2 MHz) must be measurable.
        counter = ReadoutCounter()
        count = counter.read(3.2e6, rng=0)
        assert 0 < count < counter.max_count

    @pytest.mark.parametrize("kwargs", [dict(fref=0.0), dict(bits=0), dict(noise_counts=-1)])
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ConfigurationError):
            ReadoutCounter(**kwargs)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ConfigurationError):
            ReadoutCounter().ideal_count(0.0)

    @pytest.mark.parametrize("fosc", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_nonfinite_frequency(self, fosc):
        # int(round(...)) would raise a bare ValueError / OverflowError.
        counter = ReadoutCounter()
        with pytest.raises(ConfigurationError):
            counter.ideal_count(fosc)
        with pytest.raises(ConfigurationError):
            counter.read(fosc, rng=0)
        with pytest.raises(ConfigurationError):
            counter.read_many(fosc, 3, rng=0)

    def test_delay_rejects_zero_count_as_measurement_error(self):
        # A zero count is a noise-driven measurement outcome, not a
        # configuration mistake — it must surface as MeasurementError so
        # the retry layer can re-read instead of crashing the campaign.
        with pytest.raises(MeasurementError):
            ReadoutCounter().delay(0)


class TestReadMany:
    def test_matches_scalar_reads_on_the_same_stream(self):
        counter = ReadoutCounter(noise_counts=5)
        fosc = 3.2e6
        batch = counter.read_many(fosc, 40, rng=np.random.default_rng(9))
        rng = np.random.default_rng(9)
        scalar = [counter.read(fosc, rng=rng) for _ in range(40)]
        np.testing.assert_array_equal(batch, scalar)

    def test_noise_free_batch_is_constant(self):
        counter = ReadoutCounter(noise_counts=0)
        batch = counter.read_many(3.2e6, 10, rng=np.random.default_rng(0))
        assert np.all(batch == counter.ideal_count(3.2e6))

    def test_batch_overflow_detected(self):
        counter = ReadoutCounter(fref=500.0, bits=16)
        with pytest.raises(CounterOverflowError):
            counter.read_many(100e6, 4, rng=np.random.default_rng(0))

    def test_counts_never_negative(self):
        counter = ReadoutCounter(fref=500.0, noise_counts=50)
        batch = counter.read_many(2000.0, 200, rng=np.random.default_rng(3))
        assert np.all(batch >= 0)
