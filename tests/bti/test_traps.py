"""Trap ensemble: construction, exact evolution, invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bti.conditions import BiasCondition, BiasPhase, Waveform
from repro.bti.traps import TrapParameters, TrapPopulation
from repro.errors import ConfigurationError
from repro.units import celsius, hours


def small_params(**overrides) -> TrapParameters:
    defaults = dict(mean_trap_count=20.0)
    defaults.update(overrides)
    return TrapParameters(**defaults)


def make_population(n_owners=3, seed=7, **param_overrides) -> TrapPopulation:
    return TrapPopulation(small_params(**param_overrides), n_owners=n_owners, rng=seed)


STRESS = BiasCondition.at_celsius(1.2, 110.0)


class TestConstruction:
    def test_owner_assignment_covers_all_owners_statistically(self):
        pop = TrapPopulation(small_params(mean_trap_count=50.0), n_owners=20, rng=0)
        assert set(np.unique(pop.owner)) == set(range(20))

    def test_deterministic_under_seed(self):
        a = make_population(seed=42)
        b = make_population(seed=42)
        np.testing.assert_array_equal(a.tau_c0, b.tau_c0)
        np.testing.assert_array_equal(a.impact, b.impact)

    def test_different_seeds_differ(self):
        a = make_population(seed=1)
        b = make_population(seed=2)
        assert a.n_traps != b.n_traps or not np.array_equal(a.tau_c0, b.tau_c0)

    def test_tau_within_bounds(self):
        pop = make_population()
        lo, hi = pop.params.tau_capture_bounds
        assert np.all(pop.tau_c0 >= lo) and np.all(pop.tau_c0 <= hi)
        lo, hi = pop.params.tau_emission_bounds
        assert np.all(pop.tau_e0 >= lo) and np.all(pop.tau_e0 <= hi)

    def test_fresh_population_has_zero_shift(self):
        pop = make_population()
        assert np.all(pop.delta_vth() == 0.0)

    def test_rejects_nonpositive_owner_count(self):
        with pytest.raises(ConfigurationError):
            TrapPopulation(small_params(), n_owners=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mean_trap_count=0.0),
            dict(tau_capture_bounds=(0.0, 1.0)),
            dict(tau_emission_bounds=(10.0, 1.0)),
            dict(impact_mean_volts=-1e-3),
            dict(ac_capture_suppression=0.0),
            dict(ac_capture_suppression=1.5),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            small_params(**kwargs)


class TestEvolution:
    def test_stress_increases_shift(self):
        pop = make_population()
        pop.evolve(hours(24.0), 1.2, celsius(110.0))
        assert np.all(pop.delta_vth() >= 0.0)
        assert pop.delta_vth().sum() > 0.0

    def test_zero_duration_is_identity(self):
        pop = make_population()
        pop.evolve(hours(1.0), 1.2, celsius(110.0))
        before = pop.delta_vth().copy()
        pop.evolve(0.0, 1.2, celsius(110.0))
        np.testing.assert_array_equal(pop.delta_vth(), before)

    def test_composition_exactness(self):
        # The closed-form update composes exactly: one 24 h phase equals
        # 24 one-hour phases under identical conditions.
        one = make_population(seed=11)
        many = make_population(seed=11)
        one.evolve(hours(24.0), 1.2, celsius(110.0))
        for _ in range(24):
            many.evolve(hours(1.0), 1.2, celsius(110.0))
        np.testing.assert_allclose(one.delta_vth(), many.delta_vth(), rtol=1e-10)

    def test_hotter_stress_ages_more(self):
        cold = make_population(seed=5)
        hot = make_population(seed=5)
        cold.evolve(hours(24.0), 1.2, celsius(100.0))
        hot.evolve(hours(24.0), 1.2, celsius(110.0))
        assert hot.delta_vth().sum() > cold.delta_vth().sum()

    def test_recovery_reduces_shift(self):
        pop = make_population()
        pop.evolve(hours(24.0), 1.2, celsius(110.0))
        peak = pop.delta_vth().sum()
        pop.evolve(hours(6.0), -0.3, celsius(110.0))
        assert pop.delta_vth().sum() < peak

    def test_negative_voltage_recovers_faster_than_zero(self):
        passive = make_population(seed=3)
        active = make_population(seed=3)
        for pop in (passive, active):
            pop.evolve(hours(24.0), 1.2, celsius(110.0))
        passive.evolve(hours(6.0), 0.0, celsius(20.0))
        active.evolve(hours(6.0), -0.3, celsius(20.0))
        assert active.delta_vth().sum() < passive.delta_vth().sum()

    def test_hot_recovery_faster_than_cold(self):
        cold = make_population(seed=3)
        hot = make_population(seed=3)
        for pop in (cold, hot):
            pop.evolve(hours(24.0), 1.2, celsius(110.0))
        cold.evolve(hours(6.0), 0.0, celsius(20.0))
        hot.evolve(hours(6.0), 0.0, celsius(110.0))
        assert hot.delta_vth().sum() < cold.delta_vth().sum()

    def test_per_owner_voltages(self):
        pop = make_population(n_owners=2, seed=9)
        voltages = np.array([1.2, 0.0])
        pop.evolve(hours(24.0), voltages, celsius(110.0))
        shifts = pop.delta_vth()
        assert shifts[0] > 10.0 * max(shifts[1], 1e-12)

    def test_duty_cycled_ages_less_than_dc(self):
        dc = make_population(seed=13)
        ac = make_population(seed=13)
        dc.evolve(hours(24.0), 1.2, celsius(110.0))
        ac.evolve(hours(24.0), 1.2, celsius(110.0), duty=0.5, relax_voltage=0.0)
        assert ac.delta_vth().sum() < dc.delta_vth().sum()

    def test_wrong_voltage_vector_shape_rejected(self):
        pop = make_population(n_owners=3)
        with pytest.raises(ConfigurationError):
            pop.evolve(1.0, np.array([1.2, 1.2]), celsius(20.0))

    def test_negative_duration_rejected(self):
        pop = make_population()
        with pytest.raises(ConfigurationError):
            pop.evolve(-1.0, 1.2, celsius(20.0))

    def test_elapsed_accumulates(self):
        pop = make_population()
        pop.evolve(100.0, 1.2, celsius(20.0))
        pop.evolve(50.0, 0.0, celsius(20.0))
        assert pop.elapsed == pytest.approx(150.0)


class TestPhaseApi:
    def test_evolve_phase_with_stress_mask(self):
        pop = make_population(n_owners=4, seed=21)
        phase = BiasPhase(duration=hours(24.0), bias=STRESS)
        mask = np.array([True, False, True, False])
        pop.evolve_phase(phase, stress_mask=mask)
        shifts = pop.delta_vth()
        assert shifts[0] > shifts[1] and shifts[2] > shifts[3]

    def test_evolve_phase_without_mask_stresses_everyone(self):
        pop = make_population(n_owners=2, seed=21)
        pop.evolve_phase(BiasPhase(duration=hours(24.0), bias=STRESS))
        assert np.all(pop.delta_vth() > 0.0)

    def test_mask_shape_checked(self):
        pop = make_population(n_owners=4)
        phase = BiasPhase(duration=1.0, bias=STRESS)
        with pytest.raises(ConfigurationError):
            pop.evolve_phase(phase, stress_mask=np.array([True, False]))

    def test_waveform_duty_applied(self):
        dc = make_population(seed=31)
        ac = make_population(seed=31)
        dc.evolve_phase(BiasPhase(duration=hours(24.0), bias=STRESS))
        ac.evolve_phase(
            BiasPhase(duration=hours(24.0), bias=STRESS, waveform=Waveform(duty=0.5))
        )
        assert ac.delta_vth().sum() < dc.delta_vth().sum()


class TestObservables:
    def test_sample_delta_vth_mean_converges(self):
        pop = make_population(n_owners=1, seed=17, mean_trap_count=200.0)
        pop.evolve(hours(24.0), 1.2, celsius(110.0))
        expected = pop.delta_vth()[0]
        rng = np.random.default_rng(0)
        samples = [pop.sample_delta_vth(rng)[0] for _ in range(300)]
        assert np.mean(samples) == pytest.approx(expected, rel=0.1)

    def test_equilibrium_shift_bounds_long_stress(self):
        pop = make_population(seed=19)
        equilibrium = pop.equilibrium_delta_vth(STRESS)
        pop.evolve(hours(1000.0), STRESS.stress_voltage, STRESS.temperature)
        assert np.all(pop.delta_vth() <= equilibrium + 1e-12)

    def test_occupancy_view_readonly(self):
        pop = make_population()
        with pytest.raises(ValueError):
            pop.occupancy[0] = 0.5


class TestStateManagement:
    def test_reset_restores_fresh(self):
        pop = make_population()
        pop.evolve(hours(24.0), 1.2, celsius(110.0))
        pop.reset()
        assert np.all(pop.delta_vth() == 0.0)
        assert pop.elapsed == 0.0

    def test_snapshot_restore_roundtrip(self):
        pop = make_population()
        pop.evolve(hours(24.0), 1.2, celsius(110.0))
        state = pop.snapshot()
        mid = pop.delta_vth().copy()
        pop.evolve(hours(6.0), -0.3, celsius(110.0))
        pop.restore(state)
        np.testing.assert_array_equal(pop.delta_vth(), mid)

    def test_snapshot_is_isolated_from_future_evolution(self):
        pop = make_population()
        state = pop.snapshot()
        pop.evolve(hours(24.0), 1.2, celsius(110.0))
        assert np.all(state.occupancy == 0.0)

    def test_restore_rejects_foreign_snapshot(self):
        a = make_population(n_owners=3, seed=1)
        b = make_population(n_owners=6, seed=1)
        assert a.n_traps != b.n_traps
        with pytest.raises(ConfigurationError):
            a.restore(b.snapshot())


class TestOccupancyInvariants:
    """Property-based invariants of the exact occupancy update."""

    @given(
        duration=st.floats(min_value=1.0, max_value=1e7),
        voltage=st.floats(min_value=-0.6, max_value=1.32),
        temp_c=st.floats(min_value=-40.0, max_value=125.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_occupancy_stays_in_unit_interval(self, duration, voltage, temp_c):
        pop = make_population(seed=99)
        pop.evolve(duration, voltage, celsius(temp_c))
        assert np.all(pop.occupancy >= 0.0)
        assert np.all(pop.occupancy <= 1.0)

    @given(
        d1=st.floats(min_value=1.0, max_value=1e5),
        d2=st.floats(min_value=1.0, max_value=1e5),
    )
    @settings(max_examples=25, deadline=None)
    def test_split_phase_equals_joined_phase(self, d1, d2):
        joined = make_population(seed=55)
        split = make_population(seed=55)
        joined.evolve(d1 + d2, 1.2, celsius(110.0))
        split.evolve(d1, 1.2, celsius(110.0))
        split.evolve(d2, 1.2, celsius(110.0))
        np.testing.assert_allclose(joined.occupancy, split.occupancy, rtol=1e-9, atol=1e-12)

    @given(duration=st.floats(min_value=10.0, max_value=1e6))
    @settings(max_examples=25, deadline=None)
    def test_stress_monotonic_in_time(self, duration):
        shorter = make_population(seed=77)
        longer = make_population(seed=77)
        shorter.evolve(duration, 1.2, celsius(110.0))
        longer.evolve(duration * 2.0, 1.2, celsius(110.0))
        assert longer.delta_vth().sum() >= shorter.delta_vth().sum() - 1e-15
