"""Guard violation budgets × faultload dropouts: quarantine exactly once.

Satellite of the dependability sweep.  A chip can leave the bench for two
independent reasons — exhausting its guard violation budget or a
``CHIP_DROPOUT`` fault — and a chip hit by *both* must still be
quarantined exactly once, with deterministic counters, whether or not
the campaign checkpoints.
"""

from repro.guard import GuardConfig
from repro.lab.campaign import run_table1_campaign
from repro.lab.faults import FaultEvent, FaultKind, FaultPlan, hours
from repro.obs import Tracer

SEED = 4
N_CHIPS = 3

#: Metric families that must be bit-identical across runs of one seed.
DETERMINISTIC_PREFIXES = ("campaign.quarantines", "guard.violations.", "lab.faults.")


def upsets(chip_id, *starts, magnitude=2.5):
    return [
        FaultEvent(
            kind=FaultKind.TRAP_UPSET,
            chip_id=chip_id,
            start=start,
            magnitude=magnitude,
        )
        for start in starts
    ]


def dropout(chip_id, start):
    return FaultEvent(kind=FaultKind.CHIP_DROPOUT, chip_id=chip_id, start=start)


def interplay_plan(dropout_first=False):
    """chip-1: upsets *and* a dropout; chip-2: upsets only; chip-3 clean."""
    dropout_at = hours(0.5) if dropout_first else hours(30.0)
    return FaultPlan(
        [
            *upsets("chip-1", hours(1.0), hours(2.0)),
            dropout("chip-1", dropout_at),
            *upsets("chip-2", hours(1.0), hours(2.0)),
        ]
    )


def run(plan, tracer=None, checkpoint=None):
    return run_table1_campaign(
        seed=SEED,
        n_chips=N_CHIPS,
        checkpoint=checkpoint,
        faults=plan,
        guard=GuardConfig(mode="clamp", violation_budget=1, dump_dir=None),
        tracer=tracer,
    )


def counter_snapshot(tracer):
    return {
        name: value
        for name, value in tracer.metrics.snapshot().items()
        if name.startswith(DETERMINISTIC_PREFIXES)
    }


class TestQuarantineExactlyOnce:
    def test_budget_exhaustion_quarantines_upset_chips(self):
        tracer = Tracer()
        result = run(interplay_plan(), tracer=tracer)
        assert set(result.quarantined) == {"chip-1", "chip-2"}
        assert not result.complete
        assert tracer.metrics.value("campaign.quarantines") == 2.0

    def test_budget_and_dropout_counted_once(self):
        """chip-1 has both exit paths; the quarantine counter sees one."""
        tracer = Tracer()
        result = run(interplay_plan(), tracer=tracer)
        assert tracer.metrics.value("campaign.quarantines") == float(
            len(result.quarantined)
        )

    def test_dropout_before_budget_also_counted_once(self):
        tracer = Tracer()
        result = run(interplay_plan(dropout_first=True), tracer=tracer)
        assert "chip-1" in result.quarantined
        assert tracer.metrics.value("campaign.quarantines") == float(
            len(result.quarantined)
        )

    def test_survivor_chip_untouched(self):
        """The clean chip's records match a fault-free campaign's exactly."""
        degraded = run(interplay_plan())
        reference = run_table1_campaign(seed=SEED, n_chips=N_CHIPS)
        assert list(degraded.log.filter(chip_id="chip-3")) == list(
            reference.log.filter(chip_id="chip-3")
        )


class TestDeterministicCounters:
    def test_repeat_runs_agree(self):
        first, second = Tracer(), Tracer()
        run(interplay_plan(), tracer=first)
        run(interplay_plan(), tracer=second)
        snapshot = counter_snapshot(first)
        assert snapshot == counter_snapshot(second)
        assert snapshot["campaign.quarantines"] == 2.0
        assert any(name.startswith("guard.violations.") for name in snapshot)

    def test_checkpointed_run_matches_plain(self, tmp_path):
        plain_tracer, checkpointed_tracer = Tracer(), Tracer()
        plain = run(interplay_plan(), tracer=plain_tracer)
        checkpointed = run(
            interplay_plan(), tracer=checkpointed_tracer, checkpoint=str(tmp_path / "ck")
        )
        assert list(plain.log) == list(checkpointed.log)
        assert {
            chip: report.case for chip, report in plain.quarantined.items()
        } == {chip: report.case for chip, report in checkpointed.quarantined.items()}
        assert counter_snapshot(plain_tracer) == counter_snapshot(checkpointed_tracer)
