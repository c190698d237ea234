"""SMOKE — kill a checkpointed campaign mid-run, resume, compare logs.

Guards the checkpoint/resume contract end to end, the way a real outage
exercises it: a campaign subprocess writing checkpoints is SIGKILLed
once its first cases have landed, then resumed in-process.  The resumed
``DataLog`` must be bit-identical to an uninterrupted run — generation
snapshots mean a kill at *any* instant leaves a consistent checkpoint.

If the subprocess finishes before the kill window opens (fast machine),
the test degrades to resuming a complete checkpoint, which must still
reproduce the reference log from its shards.

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

ROOT = Path(__file__).resolve().parent.parent

SEED = 7
N_CHIPS = 2

#: Checkpointed cases after which the campaign is killed (chips run in
#: order, so chip-1's baseline + first case land first).
KILL_AFTER_CASES = 2


def _completed_cases(manifest_path: Path) -> int:
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError):
        # Not written yet, or caught mid-replace — treat as no progress.
        return 0
    return sum(len(cases) for cases in manifest.get("completed", {}).values())


def test_kill_mid_campaign_then_resume(tmp_path):
    checkpoint = tmp_path / "checkpoint"
    manifest = checkpoint / "manifest.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "campaign",
            "--seed", str(SEED), "--chips", str(N_CHIPS),
            "--checkpoint", str(checkpoint), "--quiet",
        ],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    killed = False
    try:
        deadline = time.monotonic() + 300.0
        while time.monotonic() < deadline:
            if process.poll() is not None:
                break  # finished before the kill window — see module docstring
            if _completed_cases(manifest) >= KILL_AFTER_CASES:
                process.send_signal(signal.SIGKILL)
                process.wait(timeout=30.0)
                killed = True
                break
            time.sleep(0.05)
        else:
            raise AssertionError("campaign made no checkpoint progress in 300 s")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30.0)

    cases_at_resume = _completed_cases(manifest)
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
