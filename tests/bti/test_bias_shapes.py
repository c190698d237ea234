"""Bias-argument shape handling of the trap ensemble (regression).

``TrapPopulation`` historically accepted a python float or a full
``(n_owners,)`` vector, but the two shapes numpy naturally produces for
a uniform bias — a 0-d array (``np.float64`` arithmetic results) and a
length-1 vector (``np.atleast_1d`` / batched-broadcast callers) — fell
through to the wrong cache key or a shape error.  All four spellings of
"every owner at V" must now share one canonical form, one cache entry
and one trajectory.
"""

import numpy as np
import pytest

from repro.bti.traps import TrapParameters, TrapPopulation, _rate_key
from repro.errors import ConfigurationError
from repro.obs import Tracer
from repro.units import celsius, hours


def make_population(seed=7, n_owners=4, tracer=None) -> TrapPopulation:
    return TrapPopulation(
        TrapParameters(mean_trap_count=40.0), n_owners=n_owners, rng=seed,
        tracer=tracer,
    )


HOT = celsius(110.0)
V = 1.2


def uniform_spellings(n_owners: int, value: float = V):
    """Every accepted way to say "all owners at ``value`` volts"."""
    return (
        value,
        np.float64(value),
        np.array(value),                      # 0-d
        np.array([value]),                    # (1,)
        np.full(n_owners, value),             # full vector
    )


class TestCanonicalBias:
    def test_zero_d_and_length_one_collapse_to_scalar_form(self):
        pop = make_population()
        for spelling in (np.array(V), np.array([V]), V):
            canonical = pop._canonical_bias(spelling)
            assert canonical.ndim == 0
            assert float(canonical) == V

    def test_full_vector_is_preserved(self):
        pop = make_population(n_owners=4)
        vector = np.array([1.2, 0.0, 1.2, -0.3])
        canonical = pop._canonical_bias(vector)
        assert canonical.shape == (4,)
        np.testing.assert_array_equal(canonical, vector)

    def test_length_one_vector_on_single_owner_population(self):
        # With n_owners == 1 the shape (1,) IS the full vector; it must
        # still evolve identically to the scalar spelling.
        a = make_population(n_owners=1)
        b = make_population(n_owners=1)
        a.evolve(hours(1.0), V, HOT)
        b.evolve(hours(1.0), np.array([V]), HOT)
        np.testing.assert_array_equal(a.occupancy, b.occupancy)

    def test_wrong_shapes_rejected(self):
        pop = make_population(n_owners=4)
        for bad in (np.array([V, V]), np.zeros((4, 1)), np.zeros(5)):
            with pytest.raises(ConfigurationError):
                pop._canonical_bias(bad)

    def test_uniform_spellings_share_one_cache_key(self):
        pop = make_population()
        keys = {
            _rate_key(pop._owner_voltages(pop._canonical_bias(s)), 1.0, None)
            for s in uniform_spellings(pop.n_owners)
        }
        # The memo keys the expanded per-owner block, so every spelling,
        # the full vector included, shares one key.
        assert len(keys) == 1


class TestShapeEquivalentTrajectories:
    def test_all_uniform_spellings_evolve_bit_identically(self):
        reference = make_population(seed=11)
        reference.evolve(hours(2.0), V, HOT)
        reference.evolve(hours(1.0), -0.3, HOT, duty=0.5, relax_voltage=0.0)
        for spelling in uniform_spellings(reference.n_owners):
            pop = make_population(seed=11)
            pop.evolve(hours(2.0), spelling, HOT)
            relax = np.asarray(spelling, dtype=float) * 0.0
            pop.evolve(hours(1.0), -0.3, HOT, duty=0.5, relax_voltage=relax)
            np.testing.assert_array_equal(pop.occupancy, reference.occupancy)
            assert pop.elapsed == reference.elapsed

    def test_zero_d_bias_hits_the_scalar_cache_entry(self):
        tracer = Tracer()
        pop = make_population(seed=5, tracer=tracer)
        pop.evolve(hours(1.0), V, HOT)
        pop.evolve(hours(1.0), V, HOT)  # the second miss admits the pattern
        misses_after_scalar = tracer.metrics.value("bti.rate_cache.misses")
        pop.evolve(hours(1.0), np.array(V), HOT)
        pop.evolve(hours(1.0), np.array([V]), HOT)
        assert tracer.metrics.value("bti.rate_cache.misses") == misses_after_scalar
        assert tracer.metrics.value("bti.rate_cache.hits") >= 2.0
