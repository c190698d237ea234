"""SMOKE — Table 1 campaign with injected physics faults under the guards.

Exercises the :mod:`repro.guard` contracts end to end, the way a real
upset exercises them: a deterministic :class:`FaultPlan` writes NaN and
out-of-domain occupancies straight into a chip's trap state mid-campaign,
then —

* **clamp** mode repairs the state in place, counts the violations, and
  the campaign completes with a full log;
* **clamp with a zero budget** quarantines the struck chip and completes
  on the survivors;
* **raise** mode fails fast with a typed
  :class:`~repro.errors.PhysicsViolationError` whose repro bundle holds
  the corrupted trap state — replaying the bundled occupancy against a
  fresh guard reproduces the exact contract violation.

Run directly (CI does)::

    PYTHONPATH=src python -m pytest benchmarks/smoke_guard_campaign.py -q
"""

import numpy as np
import pytest

from repro.errors import PhysicsViolationError
from repro.guard import Guard, GuardConfig, read_bundle
from repro.lab.campaign import run_table1_campaign
from repro.lab.faults import FaultEvent, FaultKind, FaultPlan
from repro.obs import Tracer
from repro.units import hours

SEED = 7
N_CHIPS = 2

#: Strikes chip-1 one simulated hour in — mid-baseline, well before the
#: schedule ends, so every mode sees the corruption during a case.
UPSET_PLAN = FaultPlan(
    [
        FaultEvent(
            kind=FaultKind.TRAP_UPSET,
            chip_id="chip-1",
            start=hours(1.0),
            magnitude=float("nan"),
        ),
        FaultEvent(
            kind=FaultKind.TRAP_UPSET,
            chip_id="chip-1",
            start=hours(3.0),
            magnitude=2.5,
        ),
    ]
)


def test_clamp_mode_completes_with_violations_counted():
    tracer = Tracer()
    result = run_table1_campaign(
        seed=SEED,
        n_chips=N_CHIPS,
        tracer=tracer,
        faults=UPSET_PLAN,
        guard=GuardConfig(mode="clamp", dump_dir=None),
    )
    assert result.complete
    assert not result.quarantined
    violations = tracer.metrics.value("guard.violations.bti.occupancy")
    assert violations > 0.0
    # The repaired state stayed physical: the clean chip and the struck
    # chip both finished their full schedules.
    assert set(result.final_delays) == {"chip-1", "chip-2"}
    print(f"clamp: campaign complete, {violations:g} occupancy violations repaired")


def test_clamp_budget_quarantines_struck_chip():
    result = run_table1_campaign(
        seed=SEED,
        n_chips=N_CHIPS,
        faults=UPSET_PLAN,
        guard=GuardConfig(mode="clamp", violation_budget=0, dump_dir=None),
    )
    assert not result.complete
    assert set(result.quarantined) == {"chip-1"}
    assert "budget" in result.quarantined["chip-1"].reason
    # The untouched chip's records all landed.
    assert any(record.chip_id == "chip-2" for record in result.log)
    print(f"clamp budget=0: {result.quarantined['chip-1'].reason}")


def test_raise_mode_fails_fast_with_replayable_bundle(tmp_path):
    dumps = tmp_path / "guard-dumps"
    with pytest.raises(PhysicsViolationError) as excinfo:
        run_table1_campaign(
            seed=SEED,
            n_chips=N_CHIPS,
            faults=UPSET_PLAN,
            guard=GuardConfig(mode="raise", dump_dir=str(dumps)),
        )
    error = excinfo.value
    assert error.contract == "bti.occupancy"
    assert error.bundle_path is not None
    bundle = read_bundle(error.bundle_path)
    occupancy = bundle.arrays["occupancy"]
    # Replay: the bundled state violates the exact contract it was
    # dumped for, under a fresh guard with the same configuration.
    replay = Guard(GuardConfig(mode="raise", dump_dir=None))
    with pytest.raises(PhysicsViolationError) as replayed:
        replay.check_array("bti.occupancy", np.array(occupancy), 0.0, 1.0)
    assert replayed.value.contract == error.contract
    print(f"raise: failed fast at {bundle.contract}, bundle replayed from {bundle.path}")
