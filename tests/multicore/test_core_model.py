"""Per-core aging model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, FleetDropoutError
from repro.guard import Guard, GuardConfig
from repro.multicore.core_model import CoreAgingModel, CoreBank, CoreParameters, CoreSegment
from repro.units import celsius, hours


def make_core(seed=1) -> CoreAgingModel:
    return CoreAgingModel("core-t", rng=seed)


class TestCoreAgingModel:
    def test_fresh_core_unshifted(self):
        core = make_core()
        assert core.delta_path_delay() == 0.0
        assert core.relative_slowdown() == 0.0

    def test_running_ages(self):
        core = make_core()
        core.run_active(hours(24.0), celsius(80.0))
        assert core.delta_path_delay() > 0.0
        assert core.active_seconds == hours(24.0)

    def test_hotter_core_ages_faster(self):
        cool = make_core(seed=2)
        hot = make_core(seed=2)
        cool.run_active(hours(24.0), celsius(60.0))
        hot.run_active(hours(24.0), celsius(90.0))
        assert hot.delta_path_delay() > cool.delta_path_delay()

    def test_negative_sleep_heals_faster_than_passive(self):
        passive = make_core(seed=3)
        active = make_core(seed=3)
        for core in (passive, active):
            core.run_active(hours(48.0), celsius(90.0))
        passive.sleep(hours(12.0), celsius(60.0), voltage=0.0)
        active.sleep(hours(12.0), celsius(60.0), voltage=-0.3)
        assert active.delta_path_delay() < passive.delta_path_delay()

    def test_hot_sleep_heals_faster(self):
        cold = make_core(seed=3)
        hot = make_core(seed=3)
        for core in (cold, hot):
            core.run_active(hours(48.0), celsius(90.0))
        cold.sleep(hours(12.0), celsius(40.0), voltage=0.0)
        hot.sleep(hours(12.0), celsius(70.0), voltage=0.0)
        assert hot.delta_path_delay() < cold.delta_path_delay()

    def test_energy_accounting(self):
        core = make_core()
        core.run_active(3600.0, celsius(80.0))
        assert core.energy_joules == pytest.approx(core.params.active_power * 3600.0)
        core.sleep(3600.0, celsius(60.0), voltage=0.0)
        assert core.energy_joules == pytest.approx(
            core.params.active_power * 3600.0 + core.params.sleep_power * 3600.0
        )

    def test_negative_rail_costs_energy(self):
        passive = make_core(seed=4)
        active = make_core(seed=4)
        passive.sleep(3600.0, celsius(60.0), voltage=0.0)
        active.sleep(3600.0, celsius(60.0), voltage=-0.3)
        assert active.energy_joules > passive.energy_joules

    def test_sleep_rejects_positive_voltage(self):
        with pytest.raises(ConfigurationError):
            make_core().sleep(1.0, celsius(60.0), voltage=0.5)

    def test_snapshot_restore(self):
        core = make_core()
        core.run_active(hours(10.0), celsius(80.0))
        state = core.snapshot()
        mid = core.delta_path_delay()
        core.run_active(hours(10.0), celsius(80.0))
        core.restore(state)
        assert core.delta_path_delay() == pytest.approx(mid)
        assert core.active_seconds == pytest.approx(hours(10.0))

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            CoreParameters(fresh_path_delay=0.0)
        with pytest.raises(ConfigurationError):
            CoreParameters(delay_sensitivity=0.0)
        with pytest.raises(ConfigurationError):
            CoreParameters(active_power=0.0)


class TestRunCycles:
    def segments(self):
        from repro.multicore.core_model import CoreSegment

        return (
            CoreSegment(hours(1.0), celsius(85.0), active=True),
            CoreSegment(hours(0.25), celsius(110.0), active=False, sleep_voltage=-0.3),
        )

    def test_matches_explicit_loop(self):
        closed = make_core(seed=5)
        naive = make_core(seed=5)
        n = 500
        closed.run_cycles(self.segments(), n)
        for _ in range(n):
            naive.run_active(hours(1.0), celsius(85.0))
            naive.sleep(hours(0.25), celsius(110.0), voltage=-0.3)
        assert closed.delta_path_delay() == pytest.approx(
            naive.delta_path_delay(), rel=1e-9
        )
        assert closed.energy_joules == pytest.approx(naive.energy_joules, rel=1e-12)
        assert closed.active_seconds == naive.active_seconds
        assert closed.sleep_seconds == naive.sleep_seconds

    def test_zero_cycles_is_noop(self):
        core = make_core()
        core.run_cycles(self.segments(), 0)
        assert core.energy_joules == 0.0 and core.delta_path_delay() == 0.0

    def test_rejects_bad_inputs(self):
        from repro.multicore.core_model import CoreSegment

        core = make_core()
        with pytest.raises(ConfigurationError):
            core.run_cycles(self.segments(), -1)
        with pytest.raises(ConfigurationError):
            core.run_cycles((), 3)
        with pytest.raises(ConfigurationError):
            CoreSegment(hours(1.0), celsius(85.0), active=False, sleep_voltage=0.3)


class TestCoreBank:
    def test_dropout_names_the_core_after_the_others_step(self):
        guard = Guard(GuardConfig(mode="clamp", violation_budget=0, dump_dir=None))
        bank = CoreBank(CoreParameters(), np.random.default_rng(4).spawn(3), guard=guard)
        pmos = bank._traps[0]
        pmos.inject_upset(1, float("nan"))
        with pytest.raises(FleetDropoutError) as dropped:
            bank.step(CoreSegment(hours(1.0), celsius(80.0), active=np.array([True, True, False])))
        assert set(dropped.value.errors) == {1}
        assert bank.delta_path_delay()[[0, 2]].min() > 0.0
        assert bank.energy_joules.tolist() == [36000.0, 36000.0, 1440.0]
