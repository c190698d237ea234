"""Fleet faultload contract: TRAP_UPSET support, typed rejections, guard.

Satellite of the dependability sweep: ``run_fleet_campaign`` documents
exactly which resilience options the batched path supports and raises a
typed :class:`~repro.errors.ConfigurationError` *naming the option* for
everything else — never silently ignoring a knob.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, PhysicsViolationError
from repro.guard import GuardConfig
from repro.lab.campaign import run_table1_campaign, table1_horizon
from repro.lab.faults import FaultEvent, FaultKind, FaultPlan
from repro.lab.fleet import FLEET_SUPPORTED_FAULT_KINDS, run_fleet_campaign
from repro.lab.resilience import RetryPolicy
from repro.obs import Tracer
from repro.units import hours


def upset_plan(n_chips=2, seed=11, probability=1.0):
    """A plan containing only trap upsets (the supported faultload)."""
    chip_ids = [f"chip-{i + 1}" for i in range(n_chips)]
    plan = FaultPlan.generate(
        seed,
        chip_ids,
        table1_horizon(n_chips),
        rate_per_day=0.0,
        upset_probability=probability,
    )
    assert {event.kind for event in plan.events} <= {FaultKind.TRAP_UPSET}
    return plan


class TestTypedRejections:
    def test_retry_rejected_by_name(self):
        with pytest.raises(ConfigurationError, match="retry="):
            run_fleet_campaign(seed=0, n_chips=2, retry=RetryPolicy())

    def test_checkpoint_rejected_by_name(self, tmp_path):
        with pytest.raises(ConfigurationError, match="checkpoint="):
            run_fleet_campaign(seed=0, n_chips=2, checkpoint=str(tmp_path))

    def test_resume_rejected_by_name(self):
        with pytest.raises(ConfigurationError, match="resume=True"):
            run_fleet_campaign(seed=0, n_chips=2, resume=True)

    def test_unsupported_fault_kinds_named(self):
        plan = FaultPlan.generate(
            seed=1,
            chip_ids=["chip-1", "chip-2"],
            horizon=table1_horizon(2),
            rate_per_day=2.0,
            dropout_probability=1.0,
        )
        with pytest.raises(ConfigurationError) as excinfo:
            run_fleet_campaign(seed=0, n_chips=2, faults=plan)
        message = str(excinfo.value)
        assert "chip-dropout" in message
        assert "trap-upset" in message  # the supported set is spelled out

    def test_guard_budget_rejected(self):
        config = GuardConfig(mode="clamp", violation_budget=2, dump_dir=None)
        with pytest.raises(ConfigurationError, match="violation_budget"):
            run_fleet_campaign(seed=0, n_chips=2, guard=config)

    def test_faults_with_shards_rejected(self):
        with pytest.raises(ConfigurationError, match="shards"):
            run_fleet_campaign(seed=0, n_chips=4, shards=2, faults=upset_plan(4))

    def test_guard_with_shards_rejected(self):
        config = GuardConfig(mode="clamp", dump_dir=None)
        with pytest.raises(ConfigurationError, match="shards"):
            run_fleet_campaign(seed=0, n_chips=4, shards=2, guard=config)

    def test_supported_set_is_trap_upset_only(self):
        assert FLEET_SUPPORTED_FAULT_KINDS == frozenset({FaultKind.TRAP_UPSET})


class TestUpsetInjection:
    def test_upsets_perturb_the_run(self):
        baseline = run_fleet_campaign(seed=3, n_chips=2, fidelity="exact")
        upset = run_fleet_campaign(
            seed=3,
            n_chips=2,
            fidelity="exact",
            faults=upset_plan(probability=1.0),
            guard=GuardConfig(mode="clamp", dump_dir=None),
        )
        assert list(upset.log) != list(baseline.log)
        assert upset.total_measurements == baseline.total_measurements

    def test_upset_injection_counted(self):
        tracer = Tracer()
        run_fleet_campaign(
            seed=3,
            n_chips=2,
            fidelity="exact",
            faults=upset_plan(probability=1.0),
            guard=GuardConfig(mode="clamp", dump_dir=None),
            tracer=tracer,
        )
        assert tracer.metrics.value("lab.faults.injected") >= 1.0

    def test_nan_upset_without_guard_raises(self):
        plan = FaultPlan(
            [
                FaultEvent(
                    chip_id="chip-1",
                    kind=FaultKind.TRAP_UPSET,
                    start=1000.0,
                    duration=0.0,
                    magnitude=float("nan"),
                )
            ]
        )
        with pytest.raises(PhysicsViolationError):
            run_fleet_campaign(seed=3, n_chips=1, fidelity="exact", faults=plan)

    def test_unguarded_nan_upset_fails_alike_on_every_engine(self):
        # Guard off: the NaN reaches the delay model, whose device.dvth
        # check runs under the ambient (raising) guard on both exact
        # engines; the binned readout's counter refuses the NaN frequency.
        plan = FaultPlan(
            [
                FaultEvent(
                    chip_id="chip-1",
                    kind=FaultKind.TRAP_UPSET,
                    start=hours(3.0),
                    magnitude=float("nan"),
                )
            ]
        )
        kwargs = dict(
            seed=0, n_chips=2, faults=plan, guard=GuardConfig(mode="off", dump_dir=None)
        )
        with pytest.raises(PhysicsViolationError) as scalar:
            run_table1_campaign(**kwargs)
        with pytest.raises(PhysicsViolationError) as exact:
            run_fleet_campaign(fidelity="exact", **kwargs)
        assert scalar.value.contract == exact.value.contract == "device.dvth"
        assert str(scalar.value) == str(exact.value)
        with pytest.raises(ConfigurationError, match="finite"):
            run_fleet_campaign(fidelity="binned", **kwargs)

    def test_upsets_deterministic_per_seed(self):
        kwargs = dict(
            seed=3,
            n_chips=2,
            fidelity="exact",
            faults=upset_plan(probability=1.0),
            guard=GuardConfig(mode="clamp", dump_dir=None),
        )
        first = run_fleet_campaign(**kwargs)
        second = run_fleet_campaign(**kwargs)
        assert list(first.log) == list(second.log)

    def test_binned_fidelity_accepts_upsets(self):
        result = run_fleet_campaign(
            seed=3,
            n_chips=2,
            fidelity="binned",
            faults=upset_plan(probability=1.0),
            guard=GuardConfig(mode="clamp", dump_dir=None),
        )
        assert result.total_measurements > 0

    def test_matches_scalar_bench_semantics(self):
        """Same upset plan through the scalar campaign also completes."""
        plan = upset_plan(probability=1.0)
        scalar = run_table1_campaign(
            seed=3,
            n_chips=2,
            faults=plan,
            guard=GuardConfig(mode="clamp", dump_dir=None),
        )
        assert not np.isnan([r.frequency for r in scalar.log]).any()


class TestGuardThreading:
    def test_clean_run_under_guard_is_bit_identical(self):
        plain = run_fleet_campaign(seed=1, n_chips=2, fidelity="exact")
        guarded = run_fleet_campaign(
            seed=1,
            n_chips=2,
            fidelity="exact",
            guard=GuardConfig(mode="clamp", dump_dir=None),
        )
        assert list(guarded.log) == list(plain.log)

    def test_clamp_counts_violations(self):
        tracer = Tracer()
        run_fleet_campaign(
            seed=3,
            n_chips=2,
            fidelity="exact",
            faults=upset_plan(probability=1.0),
            guard=GuardConfig(mode="clamp", dump_dir=None),
            tracer=tracer,
        )
        metrics = tracer.metrics.snapshot()
        violations = sum(
            value
            for name, value in metrics.items()
            if name.startswith("guard.violations.")
        )
        assert violations >= 1.0
