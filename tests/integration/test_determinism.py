"""Determinism: everything is exactly reproducible under a seed."""

import numpy as np

from repro.fpga.chip import FpgaChip
from repro.fpga.fleet import FleetChip
from repro.lab.fleet import FleetBench
from repro.lab.schedule import standard_case
from repro.multicore.scheduler import HeaterAwareScheduler
from repro.multicore.system import MulticoreSystem
from repro.multicore.workload import ConstantWorkload
from repro.units import celsius, hours

from tests.conftest import fast_technology
from tests.multicore.test_system import fast_params


class TestCampaignDeterminism:
    def _run(self, seed: int):
        master = np.random.default_rng(seed)
        chip_stream, bench_stream = master.spawn(2)
        fleet = FleetChip(["chip-1"], [int(chip_stream.integers(2**31))])
        bench = FleetBench(fleet, [bench_stream])
        logs = {0: []}
        for name in ("AS110DC24", "AR110N6"):
            case = standard_case(name, chip_no=1)
            bench.run_case([0], [case.name], case.phases, logs)
        return [(r.timestamp, r.count) for r in logs[0]]

    def test_same_seed_identical_logs(self):
        assert self._run(5) == self._run(5)

    def test_different_seed_different_logs(self):
        assert self._run(5) != self._run(6)


class TestChipDeterminism:
    def test_stress_recovery_roundtrip_bitwise(self):
        def trace(seed: int) -> list[float]:
            chip = FpgaChip("d", n_stages=5, tech=fast_technology(), seed=seed)
            values = []
            chip.apply_stress(hours(12.0), temperature=celsius(110.0))
            values.append(chip.delta_path_delay())
            chip.apply_recovery(hours(3.0), temperature=celsius(110.0), supply_voltage=-0.3)
            values.append(chip.delta_path_delay())
            return values

        assert trace(11) == trace(11)


class TestMulticoreDeterminism:
    def test_system_run_reproducible(self):
        def final(seed: int) -> np.ndarray:
            system = MulticoreSystem(core_params=fast_params(), seed=seed)
            history = system.run(
                HeaterAwareScheduler(), ConstantWorkload(6), n_epochs=12,
                epoch_duration=hours(1.0),
            )
            return history.final_shifts()

        np.testing.assert_array_equal(final(3), final(3))


class TestExperimentDeterminism:
    def test_fig1_is_pure(self):
        from repro.experiments import fig1

        a = fig1.run()
        b = fig1.run()
        np.testing.assert_array_equal(a.trace.values, b.trace.values)
