"""SMOKE — kill a checkpointed campaign mid-run, resume, compare logs.

Guards the checkpoint/resume contract end to end, the way a real outage
exercises it.  Two legs:

* a one-process campaign subprocess writing checkpoints is SIGKILLed
  once its first cases have landed, then resumed in-process;
* a two-shard fleet lot's *parent* alone is SIGKILLed: its shard
  children must exit within 5 s and stop writing (the directory stays
  unchanged for 2 s), and a one-shard resume must reproduce the
  uninterrupted lot.

Generation snapshots mean a kill at *any* instant leaves a consistent
checkpoint.  If a subprocess finishes before the kill window opens
(fast machine), its leg degrades to resuming a complete checkpoint,
which must still reproduce the reference from its shards.

Run directly (CI does)::

    PYTHONPATH=src python -m pytest benchmarks/smoke_resume_campaign.py -q
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.lab.campaign import run_table1_campaign
from repro.lab.fleet import run_fleet_campaign

ROOT = Path(__file__).resolve().parent.parent

SEED = 7
N_CHIPS = 2
LOT_CHIPS = 10

#: Checkpointed cases after which the campaign is killed (chips run in
#: order, so chip-1's baseline + first case land first).
KILL_AFTER_CASES = 2

#: How long an orphaned shard worker is given to finish a save already
#: under way when its parent died; after that the directory must freeze.
SETTLE_S = 0.25


def _completed_cases(checkpoint: Path) -> int:
    total = 0
    for path in checkpoint.glob("chip-*.json"):
        try:
            total += len(json.loads(path.read_text())["completed"])
        except (OSError, json.JSONDecodeError, KeyError):
            pass  # caught mid-replace — count it at the next poll
    return total


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


def _snapshot(checkpoint: Path) -> dict:
    """Every file in the directory with its size and modification time."""
    return {
        path.name: (stat.st_size, stat.st_mtime_ns)
        for path in checkpoint.iterdir()
        for stat in [path.stat()]
    }


def _run_and_kill(args: list[str], checkpoint: Path) -> bool:
    """Run ``repro campaign <args> --checkpoint DIR``; SIGKILL its main
    process once :data:`KILL_AFTER_CASES` cases are checkpointed.

    Returns whether the kill happened.  After a kill, asserts that the
    main process's children exit within 5 s and that no process left
    behind writes to the directory.  Every process of the run's group is
    killed on the way out.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "--seed", str(SEED), *args,
         "--checkpoint", str(checkpoint), "--quiet"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 300.0
        while time.monotonic() < deadline:
            if process.poll() is not None:
                return False  # finished before the kill window — see module docstring
            if _completed_cases(checkpoint) >= KILL_AFTER_CASES:
                workers = _children(process.pid)
                process.send_signal(signal.SIGKILL)
                process.wait(timeout=30.0)
                gone_by = time.monotonic() + 5.0
                while any(map(_running, workers)) and time.monotonic() < gone_by:
                    time.sleep(0.05)
                assert not any(map(_running, workers)), "shard outlived its killed parent"
                time.sleep(SETTLE_S)
                before = _snapshot(checkpoint)
                time.sleep(2.0)
                assert _snapshot(checkpoint) == before, "checkpoint written after the kill"
                return True
            time.sleep(0.05)
        raise AssertionError("campaign made no checkpoint progress in 300 s")
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait(timeout=30.0)


def test_kill_mid_campaign_then_resume(tmp_path):
    checkpoint = tmp_path / "checkpoint"
    killed = _run_and_kill(["--chips", str(N_CHIPS)], checkpoint)
    cases_at_resume = _completed_cases(checkpoint)
    resumed = run_table1_campaign(
        seed=SEED, n_chips=N_CHIPS, checkpoint=str(checkpoint), resume=True
    )
    reference = run_table1_campaign(seed=SEED, n_chips=N_CHIPS)
    assert resumed.complete
    assert list(resumed.log) == list(reference.log)
    assert resumed.fresh_delays == reference.fresh_delays
    print(
        f"{'killed' if killed else 'completed'} with {cases_at_resume} "
        f"checkpointed cases; resumed log matches the uninterrupted run "
        f"({len(resumed.log)} records)"
    )


def test_kill_sharded_lot_parent_then_resume_on_one_shard(tmp_path):
    checkpoint = tmp_path / "checkpoint"
    killed = _run_and_kill(["--fleet", str(LOT_CHIPS), "--shard", "2"], checkpoint)
    cases_at_resume = _completed_cases(checkpoint)
    resumed = run_fleet_campaign(
        seed=SEED, n_chips=LOT_CHIPS, shards=1, checkpoint=str(checkpoint), resume=True
    )
    reference = run_fleet_campaign(seed=SEED, n_chips=LOT_CHIPS)
    assert list(resumed.log) == list(reference.log)
    assert resumed.final_delays == reference.final_delays
    assert resumed.summaries == reference.summaries
    assert resumed.total_measurements == reference.total_measurements
    print(
        f"{'parent killed' if killed else 'completed'} with {cases_at_resume} "
        f"checkpointed cases; one-shard resume matches the uninterrupted lot "
        f"({resumed.total_measurements} measurements)"
    )
