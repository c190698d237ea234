"""Fault injection, retry/quarantine and checkpoint/resume.

The resilience acceptance bar mirrors the parallel engine's: determinism
everywhere.  Same seed ⇒ same fault plan; a fault on one chip leaves every
other chip bit-identical to a fault-free run; a resumed campaign produces
the same DataLog as an uninterrupted one.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.errors import (
    CheckpointError,
    ChipDropoutError,
    ConfigurationError,
    MeasurementError,
    RetryExhaustedError,
)
from repro.guard import GuardConfig
from repro.lab.campaign import run_table1_campaign, table1_horizon
from repro.lab.datalog import DataLog
from repro.lab.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.lab.fleet import SAMPLING_OVERHEAD, FleetBench
from repro.lab.measurement import VirtualTestbench
from repro.lab.resilience import (
    CheckpointStore,
    ChipProgress,
    IsolatedJobs,
    RetryPolicy,
    run_isolated,
    usable_cpus,
)
from repro.lab.schedule import PhaseKind, TestPhase
from repro.units import hours, minutes

CHIPS = ["chip-1", "chip-2", "chip-3"]


def short_stress_phase() -> TestPhase:
    return TestPhase(
        "AS110DC1", PhaseKind.STRESS, hours(1.0), 110.0, 1.2,
        sampling_interval=minutes(20.0),
    )


class TestFaultPlan:
    def test_same_seed_same_plan(self):
        horizon = table1_horizon(3)
        kwargs = dict(rate_per_day=2.0, dropout_probability=0.5)
        assert FaultPlan.generate(7, CHIPS, horizon, **kwargs) == FaultPlan.generate(
            7, CHIPS, horizon, **kwargs
        )

    def test_different_seeds_differ(self):
        horizon = table1_horizon(3)
        plans = [FaultPlan.generate(s, CHIPS, horizon, rate_per_day=3.0) for s in (1, 2)]
        assert plans[0] != plans[1]

    def test_for_chip_filters_and_orders(self):
        plan = FaultPlan([
            FaultEvent(FaultKind.DROPPED_READOUT, "chip-2", start=50.0),
            FaultEvent(FaultKind.DROPPED_READOUT, "chip-1", start=10.0),
            FaultEvent(FaultKind.DROPPED_READOUT, "chip-2", start=5.0),
        ])
        assert [e.start for e in plan.for_chip("chip-2")] == [5.0, 50.0]
        assert plan.for_chip("chip-9") == ()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind=FaultKind.DROPPED_READOUT, chip_id="c", start=-1.0),
            dict(kind=FaultKind.THERMAL_DRIFT, chip_id="c", start=0.0),  # no duration
            dict(kind=FaultKind.STUCK_BIT, chip_id="c", start=0.0, magnitude=3.5),
        ],
    )
    def test_invalid_events_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultEvent(**kwargs)


class TestFaultInjector:
    def test_one_shot_fires_once(self):
        plan = FaultPlan([FaultEvent(FaultKind.DROPPED_READOUT, "c", start=10.0)])
        injector = FaultInjector(plan, "c")
        assert injector.pop_readout_fault(5.0) is None
        event = injector.pop_readout_fault(12.0)
        assert event is not None and event.kind is FaultKind.DROPPED_READOUT
        assert injector.pop_readout_fault(12.0) is None  # consumed
        assert injector.fired == [event]

    def test_window_offsets_bounded(self):
        plan = FaultPlan([
            FaultEvent(FaultKind.THERMAL_DRIFT, "c", start=10.0, duration=5.0,
                       magnitude=2.0),
        ])
        injector = FaultInjector(plan, "c")
        assert injector.temperature_offset(9.0) == 0.0
        assert injector.temperature_offset(12.0) == 2.0
        assert injector.temperature_offset(15.0) == 0.0  # end-exclusive

    def test_dropout_raises_permanently(self):
        plan = FaultPlan([FaultEvent(FaultKind.CHIP_DROPOUT, "c", start=100.0)])
        injector = FaultInjector(plan, "c")
        injector.check_dropout(99.0)
        with pytest.raises(ChipDropoutError):
            injector.check_dropout(100.0)
        with pytest.raises(ChipDropoutError):
            injector.check_dropout(1e9)

    def test_start_time_skips_spent_one_shots(self):
        plan = FaultPlan([FaultEvent(FaultKind.DROPPED_READOUT, "c", start=10.0)])
        injector = FaultInjector(plan, "c", start_time=50.0)
        assert injector.pop_readout_fault(60.0) is None


class TestRetryPolicy:
    def test_deterministic_backoff(self):
        policy = RetryPolicy(max_attempts=4, backoff_seconds=5.0, backoff_multiplier=2.0)
        assert [policy.backoff(k) for k in (1, 2, 3)] == [5.0, 10.0, 20.0]

    @pytest.mark.parametrize(
        "kwargs",
        [dict(max_attempts=0), dict(backoff_seconds=-1.0), dict(backoff_multiplier=0.5)],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)


def faulted_bench(chip, plan, retry=None):
    """A one-chip bench whose delivered values and readouts consult ``plan``."""
    return FleetBench(
        chip._fleet,
        [np.random.default_rng(9)],
        injectors=[FaultInjector(plan, chip.chip_id)],
        retry=retry if retry is not None else RetryPolicy(),
    )


def run_phase(bench, phase) -> list:
    """Run ``phase`` on the bench's one chip; a dropout is raised."""
    records = {0: []}
    bench.run_phase(phase, [0], ["CASE"], records)
    if 0 in bench.dropped:
        raise bench.dropped[0]
    return records[0]


class TestResilientTestbench:
    """A bench with a fault injector and a retry policy (the resilient bench)."""

    def test_no_faults_bit_identical_to_plain_bench(self, chip_factory):
        phase = short_stress_phase()
        plain_log = DataLog()
        plain = VirtualTestbench(chip_factory(seed=1), rng=9)
        plain.run_phase(phase, "CASE", plain_log)
        bench = faulted_bench(chip_factory(seed=1), FaultPlan())
        assert list(plain_log) == run_phase(bench, phase)

    def test_dropped_readout_retried_and_phase_completes(self, chip_factory):
        chip = chip_factory(seed=2)
        plan = FaultPlan([
            FaultEvent(FaultKind.DROPPED_READOUT, chip.chip_id, start=minutes(30.0)),
        ])
        bench = faulted_bench(chip, plan, RetryPolicy(max_attempts=3, backoff_seconds=4.0))
        log = run_phase(bench, short_stress_phase())
        assert len(log) == 4  # initial + 3 intervals, no sample lost
        assert bench.injectors[0].fired[0].kind is FaultKind.DROPPED_READOUT
        # 4 logged samples + 1 failed burst = 5 readout overheads, plus the
        # 4 s backoff the chip aged through while the operator re-armed.
        expected = hours(1.0) + 5 * SAMPLING_OVERHEAD + 4.0
        assert chip.elapsed == pytest.approx(expected)

    def test_retries_exhausted_raises(self, chip_factory):
        chip = chip_factory(seed=3)
        plan = FaultPlan([
            FaultEvent(FaultKind.DROPPED_READOUT, chip.chip_id, start=0.0),
            FaultEvent(FaultKind.DROPPED_READOUT, chip.chip_id, start=0.0),
        ])
        bench = faulted_bench(chip, plan, RetryPolicy(max_attempts=2, backoff_seconds=1.0))
        with pytest.raises(RetryExhaustedError):
            run_phase(bench, short_stress_phase())

    def test_stuck_bit_fires_and_no_sample_is_lost(self, chip_factory):
        chip = chip_factory(seed=4)
        plan = FaultPlan([
            FaultEvent(FaultKind.STUCK_BIT, chip.chip_id, start=minutes(30.0),
                       magnitude=13),
        ])
        bench = faulted_bench(chip, plan)
        log = run_phase(bench, short_stress_phase())
        fired = bench.injectors[0].fired
        assert fired and fired[0].kind is FaultKind.STUCK_BIT
        assert len(log) == 4  # corruption detected (or harmless), never fatal

    def test_thermal_drift_perturbs_delivered_temperature(self, chip_factory):
        chip = chip_factory(seed=5)
        plan = FaultPlan([
            FaultEvent(FaultKind.THERMAL_DRIFT, chip.chip_id, start=0.0,
                       duration=hours(2.0), magnitude=3.0),
        ])
        bench = faulted_bench(chip, plan)
        bench.chamber.set_temperature_celsius(110.0)
        # Beyond the chamber's +/-0.3 degC control band around the setpoint.
        assert bench._delivered_temperature(0) - bench.chamber.setpoint > 0.3


class TestCampaignQuarantine:
    def test_dropout_quarantines_and_survivors_bit_identical(self):
        plan = FaultPlan([
            FaultEvent(FaultKind.CHIP_DROPOUT, "chip-2", start=hours(10.0)),
        ])
        clean = run_table1_campaign(seed=31, n_chips=2)
        faulted = run_table1_campaign(seed=31, n_chips=2, faults=plan)
        assert not faulted.complete
        report = faulted.quarantined["chip-2"]
        assert report.case == "AS110DC24"
        assert "stopped responding" in report.reason
        # The campaign completed and kept chip-2's records up to the fault.
        assert 0 < len(faulted.log.filter(chip_id="chip-2")) < len(
            clean.log.filter(chip_id="chip-2")
        )
        # The surviving chip is bit-identical to the fault-free run.
        assert list(faulted.log.filter(chip_id="chip-1")) == list(
            clean.log.filter(chip_id="chip-1")
        )
        assert faulted.fresh_delays == clean.fresh_delays

    def test_faulted_checkpointed_run_matches_faulted_plain(self, tmp_path):
        plan = FaultPlan([
            FaultEvent(FaultKind.DROPPED_READOUT, "chip-1", start=hours(3.0)),
            FaultEvent(FaultKind.CHIP_DROPOUT, "chip-2", start=hours(20.0)),
        ])
        plain = run_table1_campaign(seed=32, n_chips=2, faults=plan)
        checkpointed = run_table1_campaign(
            seed=32, n_chips=2, faults=plan, checkpoint=str(tmp_path / "ck")
        )
        assert list(plain.log) == list(checkpointed.log)
        assert plain.quarantined == checkpointed.quarantined
        assert set(plain.quarantined) == {"chip-2"}


class TestCheckpointResume:
    def test_checkpointed_run_bit_identical_to_plain(self, tmp_path):
        plain = run_table1_campaign(seed=41, n_chips=2)
        checkpointed = run_table1_campaign(
            seed=41, n_chips=2, checkpoint=str(tmp_path / "ck")
        )
        assert list(plain.log) == list(checkpointed.log)

    def test_resume_after_losing_a_whole_chip_matches_uninterrupted(self, tmp_path):
        """Delete chip-2's progress file (as if the campaign died before
        its first checkpoint): resume replays it from scratch while chip-1
        is restored from its shards — the merged log must match."""
        directory = tmp_path / "ck"
        uninterrupted = run_table1_campaign(seed=42, n_chips=2, checkpoint=str(directory))
        (directory / "chip-2.json").unlink()
        resumed = run_table1_campaign(
            seed=42, n_chips=2, checkpoint=str(directory), resume=True
        )
        assert list(resumed.log) == list(uninterrupted.log)
        assert resumed.fresh_delays == uninterrupted.fresh_delays
        assert resumed.final_delays == uninterrupted.final_delays

    @staticmethod
    def killed_then_resumed(power_loss, chip_id: str, steps: int, **kwargs):
        """Run a checkpointed campaign that dies right after ``chip_id``
        checkpoints its ``steps``-th step, then resume it."""
        power_loss(chip_id, steps)
        with pytest.raises(RuntimeError, match="power loss"):
            run_table1_campaign(**kwargs)
        power_loss()
        return run_table1_campaign(resume=True, **kwargs)

    def test_kill_mid_schedule_then_resume_round_trips_rng_and_datalog(
        self, tmp_path, power_loss
    ):
        """SIGKILL model: die right after chip-2's first case checkpoint,
        mid-way through its schedule.  The resumed tail must replay from
        the restored trap + RNG state so the final DataLog is
        bit-identical to an uninterrupted run."""
        uninterrupted = run_table1_campaign(seed=43, n_chips=2)
        resumed = self.killed_then_resumed(
            power_loss, "chip-2", 2, seed=43, n_chips=2, checkpoint=str(tmp_path / "ck")
        )
        assert list(resumed.log) == list(uninterrupted.log)
        assert resumed.final_delays == uninterrupted.final_delays
        # Records taken before the kill count too.
        assert resumed.total_measurements == uninterrupted.total_measurements

    def test_resumed_stuck_bit_still_checked_against_last_good_count(
        self, tmp_path, power_loss
    ):
        """A stuck bit right after the resume point is judged against the
        count read before the kill, so it is retried as in one run."""
        plan = FaultPlan([
            FaultEvent(FaultKind.STUCK_BIT, "chip-1", start=7222.0, magnitude=12),
        ])
        kwargs = dict(seed=43, n_chips=2, faults=plan)
        uninterrupted = run_table1_campaign(**kwargs)
        assert uninterrupted.complete
        # Die after both baseline checkpoints, just before the fault.
        resumed = self.killed_then_resumed(
            power_loss, "chip-2", 1, checkpoint=str(tmp_path / "ck"), **kwargs
        )
        assert list(resumed.log) == list(uninterrupted.log)

    def test_resumed_guard_budget_keeps_violations_counted_before_the_kill(
        self, tmp_path, power_loss
    ):
        plan = FaultPlan([
            FaultEvent(FaultKind.TRAP_UPSET, "chip-1", start=hours(1.0), magnitude=2.0),
            FaultEvent(FaultKind.TRAP_UPSET, "chip-1", start=hours(10.0), magnitude=2.0),
        ])
        kwargs = dict(seed=3, n_chips=1, faults=plan,
                      guard=GuardConfig(mode="clamp", violation_budget=3, dump_dir=None))
        uninterrupted = run_table1_campaign(**kwargs)
        # Each upset costs two violations: only the second one exhausts
        # the budget.
        assert uninterrupted.quarantined["chip-1"].case == "AS110AC24"
        # Die after the baseline, whose upset already used part of it.
        resumed = self.killed_then_resumed(
            power_loss, "chip-1", 1, checkpoint=str(tmp_path / "ck"), **kwargs
        )
        assert list(resumed.log) == list(uninterrupted.log)
        assert resumed.quarantined == uninterrupted.quarantined

    def test_reusing_checkpoint_dir_without_resume_refused(self, tmp_path):
        directory = str(tmp_path / "ck")
        run_table1_campaign(seed=44, n_chips=1, checkpoint=directory)
        with pytest.raises(CheckpointError):
            run_table1_campaign(seed=44, n_chips=1, checkpoint=directory)

    def test_resume_with_different_seed_refused(self, tmp_path):
        directory = str(tmp_path / "ck")
        run_table1_campaign(seed=45, n_chips=1, checkpoint=directory)
        with pytest.raises(CheckpointError):
            run_table1_campaign(seed=46, n_chips=1, checkpoint=directory, resume=True)

    def test_resume_without_checkpoint_dir_refused(self):
        with pytest.raises(ConfigurationError):
            run_table1_campaign(seed=0, n_chips=1, resume=True)

    def test_corrupt_rng_state_raises_checkpoint_error(self, tmp_path, chip_factory):
        directory = tmp_path / "ck"
        store = CheckpointStore(directory)
        store.init_manifest(seed=0, n_chips=1, include_baseline=True, fidelity="exact",
                            bins_per_decade=3.0, collect="records")
        chip = chip_factory(seed=1)
        store.save_chip(chip, np.random.default_rng(0), DataLog(), DataLog(),
                        ChipProgress(["BASELINE-x"]))
        # The bench RNG state lives in the chip's progress file.
        (directory / f"{chip.chip_id}.json").write_text("{not json")
        with pytest.raises(CheckpointError):
            store.load_chip(chip_factory(seed=1), np.random.default_rng(0))

    def test_quarantine_is_checkpointed_and_not_replayed(self, tmp_path):
        directory = str(tmp_path / "ck")
        plan = FaultPlan([
            FaultEvent(FaultKind.CHIP_DROPOUT, "chip-2", start=hours(5.0)),
        ])
        first = run_table1_campaign(seed=47, n_chips=2, faults=plan, checkpoint=directory)
        assert "chip-2" in first.quarantined
        resumed = run_table1_campaign(
            seed=47, n_chips=2, faults=plan, checkpoint=directory, resume=True
        )
        assert resumed.quarantined["chip-2"].case == first.quarantined["chip-2"].case


class TestHorizon:
    def test_horizon_is_chip5_schedule(self):
        # Chip 5: 2 h baseline + 24 + 6 + 48 + 12 h of cases.
        assert table1_horizon(5) == pytest.approx(hours(92.0))
        assert table1_horizon(5, include_baseline=False) == pytest.approx(hours(90.0))

    def test_horizon_shrinks_with_fewer_chips(self):
        assert table1_horizon(1) == pytest.approx(hours(26.0))


def _sleep_an_hour(tracer):
    time.sleep(hours(1.0))


def _job_named(key):
    """The job of a test key: report the worker's PID, SIGKILL it, or hang."""
    return {
        "pid": lambda tracer: os.getpid(),
        "kill": lambda tracer: os.kill(os.getpid(), signal.SIGKILL),
        "hang": _sleep_an_hour,
    }[key]


class TestIsolatedJobs:
    def test_timeout_counts_from_each_childs_start(self):
        started = time.monotonic()
        with IsolatedJobs(limit=2, timeout_s=1.0) as jobs:
            jobs.start("a", _sleep_an_hour)
            jobs.start("b", _sleep_an_hour)
            outcomes = sorted((done.key, done.kind) for done in (jobs.wait(), jobs.wait()))
        assert outcomes == [("a", "timeout"), ("b", "timeout")]
        assert time.monotonic() - started < 1.5

    def test_outcomes_in_job_order(self):
        def fails(tracer):
            raise MeasurementError("no count")

        outcomes = run_isolated([lambda tracer: 1, fails, lambda tracer: 3])
        assert [kind for kind, _ in outcomes] == ["ok", "error", "ok"]
        assert outcomes[0][1] == 1 and outcomes[2][1] == 3
        assert isinstance(outcomes[1][1], MeasurementError)

    def test_limit_bounds_children_in_flight(self):
        with IsolatedJobs(limit=2) as jobs:
            jobs.start("a", _sleep_an_hour)
            jobs.start("b", lambda tracer: "b")
            assert jobs.free == 0
            with pytest.raises(ConfigurationError, match="in flight"):
                jobs.start("c", lambda tracer: "c")
            done = jobs.wait()
            assert (done.key, done.kind, done.value) == ("b", "ok", "b")
            assert done.started <= done.finished
            assert jobs.free == 1
        # Leaving the block killed the sleeping child.

    def test_inline_jobs_run_as_they_start(self):
        ran = []
        with IsolatedJobs(limit=1, fork=False) as jobs:
            jobs.start("a", lambda tracer: ran.append("a") or "a")
            assert ran == ["a"] and jobs.busy == 1
            assert jobs.wait().value == "a"

    @pytest.mark.parametrize("fork", [True, False])
    def test_a_job_holds_one_cpu(self, fork):
        outside = usable_cpus()
        with IsolatedJobs(limit=1, fork=fork) as jobs:
            jobs.start("cpus", lambda tracer: usable_cpus())
            assert jobs.wait().value == 1
        assert usable_cpus() == outside

    def test_workers_run_jobs_back_to_back(self):
        outcomes = []
        with IsolatedJobs(lambda key: _job_named("pid"), limit=2) as jobs:
            for key in range(6):
                if not jobs.free:
                    outcomes.append(jobs.wait())
                jobs.start(key)
            while jobs.busy:
                outcomes.append(jobs.wait())
        assert sorted(done.key for done in outcomes) == list(range(6))
        assert {done.kind for done in outcomes} == {"ok"}
        pids = {done.value for done in outcomes}
        assert len(pids) <= 2 and os.getpid() not in pids
        for pid in pids:  # idle workers were stopped and reaped
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_a_killed_worker_costs_only_its_job(self):
        outcomes = []
        with IsolatedJobs(_job_named, limit=1) as jobs:
            for key in ("pid", "kill", "pid", "pid"):
                jobs.start(key)
                outcomes.append(jobs.wait())
        assert [done.kind for done in outcomes] == ["ok", "died", "ok", "ok"]
        assert outcomes[1].value == -signal.SIGKILL
        first, replacement, reused = (outcomes[i].value for i in (0, 2, 3))
        assert replacement != first and reused == replacement

    def test_a_hung_job_times_out_without_its_neighbour(self):
        with IsolatedJobs(_job_named, limit=2, timeout_s=1.0) as jobs:
            jobs.start("hang")
            jobs.start("pid")
            neighbour = jobs.wait()
            jobs.start("pid")
            again = jobs.wait()
            hung = jobs.wait()
            jobs.start("pid")
            after = jobs.wait()
        assert [done.kind for done in (neighbour, again, hung, after)] == [
            "ok", "ok", "timeout", "ok"
        ]
        assert neighbour.value == again.value == after.value
        assert hung.finished - hung.started >= 1.0

    def test_a_campaign_inside_a_job_runs_in_one_process(self):
        ((kind, shards),) = run_isolated(
            [lambda tracer: run_table1_campaign(seed=0, n_chips=2, tracer=tracer).shards]
        )
        assert (kind, shards) == ("ok", 1)
