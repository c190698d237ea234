"""Guard integration across the campaign engine and the model stack."""

import numpy as np
import pytest

from repro.errors import PhysicsViolationError
from repro.guard import Guard, GuardConfig, GuardMode, use_guard
from repro.lab.campaign import run_table1_campaign
from repro.lab.faults import FaultEvent, FaultKind, FaultPlan
from repro.units import celsius, hours

SEED = 11
N_CHIPS = 2


def _records(result):
    return list(result.log)


class TestBitIdentityAcrossModes:
    """A healthy campaign must not notice the guards at all."""

    def test_all_guard_modes_match_the_unguarded_run(self):
        reference = run_table1_campaign(seed=SEED, n_chips=N_CHIPS)
        for mode in ("raise", "clamp", "off"):
            guarded = run_table1_campaign(
                seed=SEED,
                n_chips=N_CHIPS,
                guard=GuardConfig(mode=mode, dump_dir=None),
            )
            assert _records(guarded) == _records(reference), mode
            assert guarded.fresh_delays == reference.fresh_delays

    def test_checkpointed_matches_plain_guarded(self, tmp_path):
        for mode in ("raise", "clamp", "off"):
            config = GuardConfig(mode=mode, dump_dir=None)
            plain = run_table1_campaign(seed=SEED, n_chips=N_CHIPS, guard=config)
            checkpointed = run_table1_campaign(
                seed=SEED,
                n_chips=N_CHIPS,
                guard=config,
                checkpoint=str(tmp_path / mode),
            )
            assert _records(checkpointed) == _records(plain), mode


class TestFaultedCampaign:
    UPSET = FaultPlan(
        [
            FaultEvent(
                kind=FaultKind.TRAP_UPSET,
                chip_id="chip-1",
                start=hours(1.0),
                magnitude=float("nan"),
            )
        ]
    )

    def test_clamp_mode_completes_despite_upset(self):
        result = run_table1_campaign(
            seed=SEED,
            n_chips=N_CHIPS,
            faults=self.UPSET,
            guard=GuardConfig(mode="clamp", dump_dir=None),
        )
        assert result.complete
        assert not result.quarantined

    def test_raise_mode_fails_fast(self, tmp_path):
        with pytest.raises(PhysicsViolationError) as excinfo:
            run_table1_campaign(
                seed=SEED,
                n_chips=N_CHIPS,
                faults=self.UPSET,
                guard=GuardConfig(mode="raise", dump_dir=str(tmp_path)),
            )
        assert excinfo.value.contract == "bti.occupancy"
        assert excinfo.value.bundle_path is not None

    def test_unstruck_chip_identical_to_clean_run(self):
        clean = run_table1_campaign(seed=SEED, n_chips=N_CHIPS)
        faulted = run_table1_campaign(
            seed=SEED,
            n_chips=N_CHIPS,
            faults=self.UPSET,
            guard=GuardConfig(mode="clamp", dump_dir=None),
        )
        chip2_clean = [r for r in clean.log if r.chip_id == "chip-2"]
        chip2_faulted = [r for r in faulted.log if r.chip_id == "chip-2"]
        assert chip2_faulted == chip2_clean


class TestModelStackHooks:
    """Each guarded entry point trips on corrupted state."""

    def test_chip_evolve_trips_on_injected_nan(self):
        from repro.device.variation import ProcessVariation
        from repro.fpga.chip import FpgaChip

        chip = FpgaChip(
            "hook-test",
            n_stages=25,
            variation=ProcessVariation(),
            seed=0,
            guard=Guard(GuardConfig(mode="raise", dump_dir=None)),
        )
        chip.inject_trap_upset(float("nan"))
        with pytest.raises(PhysicsViolationError):
            chip.apply_stress(
                hours(1.0), temperature=celsius(110.0), supply_voltage=1.2
            )

    def test_chip_clamp_mode_repairs_injected_upset(self):
        from repro.device.variation import ProcessVariation
        from repro.fpga.chip import FpgaChip

        guard = Guard(GuardConfig(mode="clamp", dump_dir=None))
        chip = FpgaChip(
            "hook-clamp",
            n_stages=25,
            variation=ProcessVariation(),
            seed=0,
            guard=guard,
        )
        chip.inject_trap_upset(2.5)
        chip.apply_stress(hours(1.0), temperature=celsius(110.0), supply_voltage=1.2)
        assert guard.violations >= 1
        assert chip.oscillation_frequency() > 0.0

    def test_delay_model_clamps_dvth_in_clamp_mode(self):
        from repro.device.delay import AlphaPowerDelayModel

        model = AlphaPowerDelayModel(vdd=1.1, vth0=0.45)
        with use_guard(Guard(GuardConfig(mode="clamp", dump_dir=None))):
            shift = model.delay_shift(1e-9, np.array([-0.05, 0.05]))
            assert np.all(np.isfinite(shift))
            assert shift[0] == 0.0  # negative dVth clamped to the fresh corner

    def test_delay_model_raises_on_negative_dvth_in_raise_mode(self):
        from repro.device.delay import AlphaPowerDelayModel

        model = AlphaPowerDelayModel(vdd=1.1, vth0=0.45)
        with use_guard(Guard(GuardConfig(mode="raise", dump_dir=None))):
            with pytest.raises(PhysicsViolationError):
                model.delay_shift(1e-9, np.array([-0.05]))

    def test_thermal_grid_guard_bounds_temperatures(self):
        from repro.multicore.thermal import ThermalGrid

        grid = ThermalGrid(guard=Guard(GuardConfig(mode="raise", dump_dir=None)))
        with pytest.raises(PhysicsViolationError):
            # Megawatt per core: steady state far beyond the 1000 K cap.
            grid.steady_state(np.full(grid.n_cores, 1e6))

    def test_guard_mode_enum_coercion(self):
        assert GuardMode.coerce("clamp") is GuardMode.CLAMP
        assert GuardMode.coerce(GuardMode.OFF) is GuardMode.OFF
