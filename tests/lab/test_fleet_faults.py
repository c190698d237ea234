"""Fleet faultload contract: every resilience option, typed rejections, guard.

``run_fleet_campaign`` is the one campaign engine, so every resilience
option of :func:`~repro.lab.campaign.run_table1_campaign` — instrument
faults, dropout, retries, guard budgets, sharding, checkpoints — gives
the same answer through it, at either fidelity and any shard count.  A
malformed option (resume without a checkpoint, a NaN grid density)
raises a typed :class:`~repro.errors.ConfigurationError` *naming the
option* before any work.  Shards are forked child processes that report
back or fail typed, and never outlive their campaign.
"""

import os
import shutil
import signal
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.errors import (
    CheckpointError,
    ConfigurationError,
    PhysicsViolationError,
    SimulationError,
)
from repro.guard import GuardConfig
from repro.lab.campaign import run_table1_campaign, table1_horizon
from repro.lab.datalog import DataLog
from repro.lab.faults import FaultEvent, FaultKind, FaultPlan
from repro.lab import fleet
from repro.lab.fleet import run_fleet_campaign
from repro.lab.resilience import CheckpointStore, ChipProgress, RetryPolicy
from repro.obs import Tracer
from repro.units import hours


def upset_plan(n_chips=2, seed=11, probability=1.0):
    """A plan containing only trap upsets."""
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


def every_kind_plan(n_chips=2, upset_probability=1.0):
    """Instrument faults, a dropout and (by default) an upset on every chip."""
    return FaultPlan.generate(
        seed=1,
        chip_ids=[f"chip-{i + 1}" for i in range(n_chips)],
        horizon=table1_horizon(n_chips),
        rate_per_day=2.0,
        dropout_probability=1.0,
        upset_probability=upset_probability,
    )


def outcome(result) -> tuple:
    """What a campaign produced, in comparable form."""
    return (
        list(result.log),
        {chip: report.reason for chip, report in result.quarantined.items()},
        result.state_hashes,
    )


def resumed_outcome(result) -> tuple:
    """What a resumed campaign must reproduce of the uninterrupted one."""
    return (
        list(result.log),
        result.final_delays,
        result.summaries,
        result.total_measurements,
        set(result.quarantined),
    )


class TestTypedRejections:
    def test_resume_rejected_by_name(self):
        with pytest.raises(ConfigurationError, match="resume"):
            run_fleet_campaign(seed=0, n_chips=2, resume=True)

    def test_nan_grid_density_rejected_by_name(self):
        with pytest.raises(ConfigurationError, match="bins_per_decade"):
            run_fleet_campaign(
                seed=0, n_chips=2, fidelity="binned", bins_per_decade=float("nan")
            )


class TestCheckpointParity:
    def test_binned_lot_killed_and_resumed_matches_plain(self, tmp_path, power_loss):
        kwargs = dict(seed=0, n_chips=6, fidelity="binned")
        plain = run_fleet_campaign(**kwargs)
        directory = str(tmp_path / "ck")
        power_loss("chip-2", 2)
        with pytest.raises(RuntimeError, match="power loss"):
            run_fleet_campaign(checkpoint=directory, batch_size=4, **kwargs)
        power_loss()
        resumed = run_fleet_campaign(checkpoint=directory, resume=True, batch_size=3, **kwargs)
        assert resumed_outcome(resumed) == resumed_outcome(plain)

    def test_worker_killed_then_resumed_on_1_and_3_shards(self, tmp_path, power_loss):
        chip_ids = [f"chip-{i + 1}" for i in range(4)]
        plan = FaultPlan.generate(
            4, chip_ids, table1_horizon(4), rate_per_day=2.0, dropout_probability=0.5
        )
        kwargs = dict(seed=0, n_chips=4, fidelity="exact", faults=plan)
        plain = run_fleet_campaign(shards=1, **kwargs)
        # chip-3 drops out in its second case, after the simulated loss.
        assert plain.quarantined["chip-3"].case == "AR20N6"
        killed = tmp_path / "killed"
        power_loss("chip-3", 2)
        with pytest.raises(RuntimeError, match="power loss"):
            run_fleet_campaign(checkpoint=str(killed), shards=2, **kwargs)
        power_loss()
        for shards, batch_size in ((1, None), (3, 1)):
            directory = tmp_path / f"resume-{shards}"
            shutil.copytree(killed, directory)
            resumed = run_fleet_campaign(
                checkpoint=str(directory), resume=True, shards=shards,
                batch_size=batch_size, **kwargs
            )
            assert resumed_outcome(resumed) == resumed_outcome(plain), shards

    def test_fidelity_mismatch_on_resume_refused(self, tmp_path):
        directory = str(tmp_path / "ck")
        run_fleet_campaign(seed=0, n_chips=1, fidelity="binned", checkpoint=directory)
        with pytest.raises(CheckpointError, match="fidelity"):
            run_fleet_campaign(
                seed=0, n_chips=1, fidelity="exact", checkpoint=directory, resume=True
            )

    def test_save_from_outside_the_owning_process_tree_refused(self, tmp_path, chip_factory):
        # Opened in a worker, the store comes back to this process: the
        # opener's parent, neither the opener nor one of its children.
        with ProcessPoolExecutor(max_workers=1) as pool:
            store = pool.submit(CheckpointStore, tmp_path / "ck").result()
        with pytest.raises(CheckpointError, match="neither opened"):
            store.save_chip(chip_factory(seed=1), np.random.default_rng(0), DataLog(),
                            DataLog(), ChipProgress(["BASELINE-x"]))
        assert list((tmp_path / "ck").iterdir()) == []


def _children(pid: int) -> list[int]:
    """Pids of the live processes whose parent is ``pid`` (read from /proc)."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, ppid = stat.read_text().rsplit(")", 1)[1].split()[:2]
        except OSError:
            continue
        if int(ppid) == pid and state not in "ZX":
            found.append(int(stat.parent.name))
    return found


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live (not exited, not zombie) process."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in "ZX"


def _break_second_shard(monkeypatch, fault) -> None:
    """Make the shard that starts past chip-1 call ``fault`` first; shards
    are forked, so they inherit the patch."""
    run_range = fleet._run_fleet_range

    def second_shard_breaks(options, chip_lo, *args, **kwargs):
        if chip_lo > 0:
            fault()
        return run_range(options, chip_lo, *args, **kwargs)

    monkeypatch.setattr(fleet, "_run_fleet_range", second_shard_breaks)


class TestShardProcesses:
    def test_shard_dying_without_reporting_raises_typed_error(self, monkeypatch):
        _break_second_shard(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(SimulationError, match=r"chip-3\.\.chip-4 .*exit code -9"):
            run_fleet_campaign(seed=0, n_chips=4, shards=2, fidelity="binned")

    def test_shard_error_is_raised_with_the_shards_traceback(self, monkeypatch):
        def bad_range():
            raise ValueError("bad range")

        _break_second_shard(monkeypatch, bad_range)
        with pytest.raises(ValueError, match="bad range") as caught:
            run_fleet_campaign(seed=0, n_chips=4, shards=2, fidelity="binned")
        assert "in bad_range" in "".join(getattr(caught.value, "__notes__", []))

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
    def test_parent_sigkill_takes_its_shards_down(self, tmp_path):
        checkpoint = tmp_path / "ck"
        # Each shard stalls after its first save, so both are mid-lot
        # when the parent is killed.
        script = textwrap.dedent(
            f"""
            import time
            from repro.lab.fleet import run_fleet_campaign
            from repro.lab.resilience import CheckpointStore

            save = CheckpointStore.save_chip

            def save_then_stall(self, *args):
                save(self, *args)
                time.sleep(60.0)

            CheckpointStore.save_chip = save_then_stall
            run_fleet_campaign(seed=7, n_chips=10, shards=2, checkpoint={str(checkpoint)!r})
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(fleet.__file__).resolve().parents[2])
        process = subprocess.Popen(
            [sys.executable, "-c", script], env=env, start_new_session=True
        )
        try:
            deadline = time.monotonic() + 120.0
            while len(list(checkpoint.glob("chip-*.json"))) < 2:
                assert process.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
            workers = _children(process.pid)
            assert len(workers) == 2
            process.kill()
            process.wait(timeout=30.0)
            deadline = time.monotonic() + 5.0
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, workers)), "shard outlived its killed campaign"
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait(timeout=30.0)


class TestEngineParity:
    """Every option the per-chip campaign took gives its answer on the fleet."""

    def test_retry_matches_table1(self):
        # No upsets: the ambient guard raises on one.
        kwargs = dict(seed=0, n_chips=2, faults=every_kind_plan(upset_probability=0.0),
                      sanitize=True, retry=RetryPolicy(max_attempts=2, backoff_seconds=1.0))
        assert outcome(run_fleet_campaign(fidelity="exact", **kwargs)) == outcome(
            run_table1_campaign(**kwargs)
        )

    def test_every_fault_kind_matches_table1(self):
        plan = every_kind_plan()
        assert {event.kind for event in plan.events} >= {
            FaultKind.CHIP_DROPOUT, FaultKind.TRAP_UPSET
        }
        kwargs = dict(seed=0, n_chips=2, faults=plan, sanitize=True,
                      guard=GuardConfig(mode="clamp", dump_dir=None))
        fleet = run_fleet_campaign(fidelity="exact", **kwargs)
        assert fleet.quarantined  # the dropout took a chip off the bench
        assert outcome(fleet) == outcome(run_table1_campaign(**kwargs))

    def test_guard_budget_matches_table1(self):
        kwargs = dict(seed=3, n_chips=2, faults=upset_plan(), sanitize=True,
                      guard=GuardConfig(mode="clamp", violation_budget=1, dump_dir=None))
        fleet = run_fleet_campaign(fidelity="exact", **kwargs)
        assert any("budget exhausted" in r.reason for r in fleet.quarantined.values())
        assert outcome(fleet) == outcome(run_table1_campaign(**kwargs))

    def test_faults_with_shards_match_one_shard(self):
        kwargs = dict(seed=0, n_chips=4, faults=every_kind_plan(4), fidelity="exact",
                      guard=GuardConfig(mode="clamp", dump_dir=None))
        tracers = Tracer(), Tracer()
        one = run_fleet_campaign(shards=1, tracer=tracers[0], **kwargs)
        two = run_fleet_campaign(shards=2, tracer=tracers[1], **kwargs)
        assert outcome(two) == outcome(one)
        for name in ("lab.faults.injected", "lab.sample_retries", "campaign.quarantines"):
            assert tracers[1].metrics.value(name) == tracers[0].metrics.value(name)

    def test_guard_with_shards_matches_one_shard(self):
        kwargs = dict(seed=3, n_chips=4, faults=upset_plan(4), fidelity="exact",
                      guard=GuardConfig(mode="clamp", violation_budget=1, dump_dir=None))
        tracers = Tracer(), Tracer()
        one = run_fleet_campaign(shards=1, tracer=tracers[0], **kwargs)
        two = run_fleet_campaign(shards=2, tracer=tracers[1], **kwargs)
        assert outcome(two) == outcome(one)
        assert tracers[1].metrics.value("guard.violations.bti.occupancy") == (
            tracers[0].metrics.value("guard.violations.bti.occupancy")
        ) > 0


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
