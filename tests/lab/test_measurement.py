"""Virtual testbench: phase execution and sampling discipline."""

import pytest

from repro.lab.datalog import DataLog
from repro.lab.measurement import VirtualTestbench
from repro.lab.schedule import PhaseKind, TestPhase, parse_case_name
from repro.units import hours, minutes


@pytest.fixture
def bench(small_chip) -> VirtualTestbench:
    return VirtualTestbench(small_chip, rng=0)


class TestVirtualTestbench:
    def test_run_stress_phase_samples(self, bench):
        log = DataLog()
        phase = TestPhase(
            "AS110DC2", PhaseKind.STRESS, hours(2.0), 110.0, 1.2,
            sampling_interval=minutes(20.0),
        )
        bench.run_phase(phase, "AS110DC2", log)
        # Initial sample + one per 20-minute interval = 1 + 6.
        assert len(log) == 7
        assert log.first().phase_elapsed == 0.0
        assert log.last().phase_elapsed == pytest.approx(hours(2.0))

    def test_stress_phase_degrades_frequency(self, bench):
        log = DataLog()
        bench.run_phase(parse_case_name("AS110DC24"), "AS110DC24", log)
        __, freqs = log.series("frequency")
        assert freqs[-1] < freqs[0]

    def test_recovery_phase_restores_frequency(self, bench):
        log = DataLog()
        bench.run_phase(parse_case_name("AS110DC24"), "AS110DC24", log)
        recovery_log = DataLog()
        bench.run_phase(parse_case_name("AR110N6"), "AR110N6", recovery_log)
        __, freqs = recovery_log.series("frequency")
        assert freqs[-1] > freqs[0]

    def test_zero_volt_recovery_power_gates(self, bench):
        log = DataLog()
        bench.run_phase(parse_case_name("AS110DC24"), "AS110DC24", log)
        bench.run_phase(parse_case_name("R20Z6"), "R20Z6", log)
        assert not bench.supply.output_enabled

    def test_sampling_burst_advances_chip_clock(self, bench):
        log = DataLog()
        phase = TestPhase(
            "AS110DC1", PhaseKind.STRESS, hours(1.0), 110.0, 1.2,
            sampling_interval=minutes(20.0),
        )
        bench.run_phase(phase, "AS110DC1", log)
        # 4 samples x 3 s overhead on top of the hour.
        assert bench.chip.elapsed == pytest.approx(hours(1.0) + 4 * 3.0)

    def test_measurement_artifact_reduces_measured_dc_degradation(self, chip_factory):
        # The readout bursts let fast traps emit — measured degradation
        # under sparse sampling is *lower* than a no-measurement run, the
        # classic BTI measurement-recovery artifact our lab reproduces.
        quiet = chip_factory(seed=15)
        from repro.units import celsius
        from repro.fpga.ring_oscillator import StressMode

        quiet.apply_stress(hours(24.0), temperature=celsius(110.0), mode=StressMode.DC)
        pristine = quiet.delta_path_delay()

        sampled_chip = chip_factory(seed=15)
        bench = VirtualTestbench(sampled_chip, rng=1)
        log = DataLog()
        bench.run_phase(parse_case_name("AS110DC24"), "AS110DC24", log)
        measured = sampled_chip.delta_path_delay()
        assert measured < pristine

    def test_record_metadata(self, bench):
        log = DataLog()
        bench.run_phase(parse_case_name("AS110DC24"), "my-case", log)
        r = log.first()
        assert r.case == "my-case"
        assert r.phase == "AS110DC24"
        assert r.temperature_c == 110.0
        assert r.chip_id == bench.chip.chip_id

    def test_phase_duration_with_float_residue_takes_no_extra_sample(self, bench):
        # Ten 0.1 s chunks sum to 0.9999999999999999 in binary float; the
        # loop must not schedule a spurious near-zero 11th chunk and log a
        # duplicate sample at the end of the phase.
        log = DataLog()
        phase = TestPhase(
            "AS110DC0", PhaseKind.STRESS, 1.0, 110.0, 1.2,
            sampling_interval=0.1,
        )
        bench.run_phase(phase, "AS110DC0", log)
        assert len(log) == 11  # initial + ten intervals, not 12
        elapsed = [record.phase_elapsed for record in log]
        assert len(set(elapsed)) == len(elapsed)  # no duplicate sample times
        assert log.last().phase_elapsed == 1.0  # snapped, not 0.9999999...

    def test_open_relay_records_zero_supply_voltage(self, bench):
        # The setpoint register still holds 1.2 V, but a rail behind an
        # open relay delivers nothing — the record must say 0 V.
        bench.supply.set_voltage(1.2)
        bench.supply.disable_output()
        record = bench.take_sample("CASE", "PHASE", 0.0)
        assert record.supply_voltage == 0.0
        bench.supply.enable_output()
        record = bench.take_sample("CASE", "PHASE", 0.0)
        assert record.supply_voltage == 1.2
