"""Multi-core system simulation (integration)."""

import numpy as np
import pytest

from repro.bti.traps import FleetTraps, TrapPopulation
from repro.errors import ConfigurationError
from repro.multicore.core_model import CoreParameters
from repro.multicore.metrics import compare_final_margin, compute_metrics
from repro.multicore.scheduler import (
    BaselineScheduler,
    ScheduleDecision,
    CircadianScheduler,
    HeaterAwareScheduler,
    RoundRobinScheduler,
)
from repro.multicore.system import MulticoreSystem
from repro.multicore.workload import ConstantWorkload
from repro.units import hours


def fast_params() -> CoreParameters:
    from repro.bti.traps import TrapParameters

    return CoreParameters(
        nbti_traps=TrapParameters(mean_trap_count=120.0),
        pbti_traps=TrapParameters(mean_trap_count=100.0, impact_mean_volts=2.56e-3),
    )


def run_system(scheduler, n_epochs=48, seed=7, params=None):
    system = MulticoreSystem(core_params=params or fast_params(), seed=seed)
    history = system.run(
        scheduler, ConstantWorkload(6), n_epochs=n_epochs, epoch_duration=hours(1.0)
    )
    return history


class TestSystemRun:
    def test_history_shapes(self):
        history = run_system(RoundRobinScheduler(), n_epochs=10)
        assert history.delay_shifts.shape == (11, 8)
        assert history.temperatures.shape == (10, 8)
        assert history.active_mask.shape == (10, 8)

    def test_demand_respected(self):
        history = run_system(RoundRobinScheduler(), n_epochs=10)
        np.testing.assert_array_equal(history.active_mask.sum(axis=1), 6)

    def test_aging_accumulates(self):
        history = run_system(BaselineScheduler(), n_epochs=24)
        assert np.all(history.delay_shifts[-1] >= history.delay_shifts[0])
        assert history.worst_core_shift()[-1] > 0.0

    def test_baseline_concentrates_wear(self):
        history = run_system(BaselineScheduler(), n_epochs=24)
        final = history.final_shifts()
        # Always-active cores 0-5 age; permanently sleeping cores 6-7 barely.
        assert final[:6].min() > 5.0 * final[6:].max()

    def test_round_robin_levels_wear(self):
        baseline = run_system(BaselineScheduler(), n_epochs=48)
        levelled = run_system(RoundRobinScheduler(), n_epochs=48)
        assert (
            compute_metrics(levelled).aging_spread
            < compute_metrics(baseline).aging_spread
        )

    def test_scheduler_ladder_improves_worst_core(self):
        # Uses the default (large) trap populations: with tiny test
        # populations the worst-core statistic is dominated by draw noise.
        metrics = {}
        for name, scheduler in (
            ("baseline", BaselineScheduler()),
            ("round-robin", RoundRobinScheduler()),
            ("circadian", CircadianScheduler()),
            ("heater-aware", HeaterAwareScheduler()),
        ):
            metrics[name] = compute_metrics(
                run_system(scheduler, n_epochs=96, params=CoreParameters())
            )
        worst = {name: m.worst_shift for name, m in metrics.items()}
        # Active healing beats passive rotation beats nothing; at this
        # horizon round-robin vs baseline worst-core is draw-noise bound,
        # so the robust assertions are the active-recovery rungs.
        assert worst["heater-aware"] < worst["circadian"] < worst["round-robin"]
        assert worst["heater-aware"] < worst["baseline"]
        assert metrics["circadian"].mean_shift < metrics["baseline"].mean_shift

    def test_equal_work_across_schedulers(self):
        a = compute_metrics(run_system(BaselineScheduler(), n_epochs=24))
        b = compute_metrics(run_system(HeaterAwareScheduler(), n_epochs=24))
        assert a.work_epochs == b.work_epochs

    def test_sleeping_cores_heated_above_ambient(self):
        history = run_system(HeaterAwareScheduler(), n_epochs=12)
        metrics = compute_metrics(history)
        assert metrics.mean_sleep_temperature_c > 45.0  # ambient is 35 degC

    def test_utilisation_accounting(self):
        history = run_system(RoundRobinScheduler(), n_epochs=8)
        np.testing.assert_allclose(history.utilisation(), 0.75, atol=1e-12)

    def test_times_axis(self):
        history = run_system(RoundRobinScheduler(), n_epochs=4)
        np.testing.assert_allclose(history.times, np.arange(5) * hours(1.0))

    def test_parameter_validation(self):
        system = MulticoreSystem(core_params=fast_params(), seed=1)
        with pytest.raises(ConfigurationError):
            system.run(RoundRobinScheduler(), ConstantWorkload(6), n_epochs=0)
        with pytest.raises(ConfigurationError):
            system.run(
                RoundRobinScheduler(), ConstantWorkload(6), n_epochs=1, epoch_duration=0.0
            )


class TestCoreSpans:
    """Every epoch ages all cores in one trap update per polarity."""

    def count_calls(self, monkeypatch, name):
        calls = []
        original = getattr(FleetTraps, name)

        def counted(fleet, *args, **kwargs):
            calls.append(fleet.n_chips)
            return original(fleet, *args, **kwargs)

        monkeypatch.setattr(FleetTraps, name, counted)
        return calls

    def test_run_makes_one_evolve_per_polarity_per_epoch(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "evolve")
        run_system(CircadianScheduler(), n_epochs=5)
        assert calls == [8] * (2 * 5)

    def test_fast_forward_makes_one_cycles_call_per_polarity(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "evolve_cycles")
        MulticoreSystem(core_params=fast_params(), seed=1).fast_forward(
            CircadianScheduler(), demand=6, n_rotations=3
        )
        assert calls == [8, 8]

    def test_no_trap_population_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a TrapPopulation was built")

        monkeypatch.setattr(TrapPopulation, "__init__", refuse)
        run_system(RoundRobinScheduler(), n_epochs=2)


class NamesMissingCores:
    aging_independent = True

    def decide(self, epoch, demand, aging, grid):
        return ScheduleDecision(active=(0, 8, -1), sleep_voltage=0.0)


class TestScheduleDecisionChecks:
    def test_run_refuses_a_core_that_does_not_exist(self):
        system = MulticoreSystem(core_params=fast_params(), seed=1)
        with pytest.raises(ConfigurationError, match="core 8"):
            system.run(NamesMissingCores(), ConstantWorkload(3), n_epochs=1)

    def test_fast_forward_refuses_a_core_that_does_not_exist(self):
        system = MulticoreSystem(core_params=fast_params(), seed=1)
        with pytest.raises(ConfigurationError, match="core 8"):
            system.fast_forward(NamesMissingCores(), demand=3, n_rotations=2)


class TestMetrics:
    def test_compare_final_margin(self):
        baseline = compute_metrics(run_system(BaselineScheduler(), n_epochs=48))
        healed = compute_metrics(run_system(HeaterAwareScheduler(), n_epochs=48))
        gain = compare_final_margin(baseline, healed)
        assert 0.0 < gain < 1.0

    def test_energy_positive(self):
        metrics = compute_metrics(run_system(RoundRobinScheduler(), n_epochs=4))
        assert metrics.energy_joules > 0.0


class TestFastForward:
    def test_matches_epoch_by_epoch_run(self):
        ff = MulticoreSystem(core_params=fast_params(), seed=11)
        stepped = MulticoreSystem(core_params=fast_params(), seed=11)
        scheduler = CircadianScheduler()
        n_rotations = 6
        final = ff.fast_forward(scheduler, demand=6, n_rotations=n_rotations)
        history = stepped.run(
            scheduler,
            ConstantWorkload(6),
            n_epochs=n_rotations * stepped.n_cores,
            epoch_duration=hours(1.0),
        )
        np.testing.assert_allclose(final, history.final_shifts(), rtol=1e-9)
        assert ff.total_energy() == pytest.approx(stepped.total_energy(), rel=1e-12)

    def test_refuses_aging_dependent_scheduler(self):
        system = MulticoreSystem(core_params=fast_params(), seed=1)
        with pytest.raises(ConfigurationError):
            system.fast_forward(HeaterAwareScheduler(), demand=6, n_rotations=4)

    def test_rejects_bad_inputs(self):
        system = MulticoreSystem(core_params=fast_params(), seed=1)
        with pytest.raises(ConfigurationError):
            system.fast_forward(CircadianScheduler(), demand=6, n_rotations=0)
        with pytest.raises(ConfigurationError):
            system.fast_forward(
                CircadianScheduler(), demand=6, n_rotations=2, epoch_duration=0.0
            )

    def test_wrapped_schedulers_inherit_independence(self):
        from repro.multicore.scheduler import InstrumentedScheduler
        from repro.multicore.tdp import TdpConstrainedScheduler, TdpConstraint

        assert InstrumentedScheduler(CircadianScheduler()).aging_independent
        assert not InstrumentedScheduler(HeaterAwareScheduler()).aging_independent
        constraint = TdpConstraint(budget_watts=65.0)
        assert TdpConstrainedScheduler(
            RoundRobinScheduler(), constraint
        ).aging_independent
