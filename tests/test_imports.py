"""What importing the package, and running a forked sweep cell, loads.

Each check runs in a fresh interpreter: this test session has already
imported far more than a user's process would.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]


def fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter on this checkout; return stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return completed.stdout


def test_package_import_does_not_load_scipy():
    out = fresh_python(
        """
        import json, sys
        import repro, repro.core, repro.dependability
        import repro.lab.campaign, repro.lab.fleet, repro.report
        print(json.dumps(sorted(
            m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
        )))
        """
    )
    assert json.loads(out) == []


def test_forked_sweep_cell_imports_nothing(tmp_path):
    # The child reports what its attempt imported on top of what it
    # inherited from the runner's process.
    out = fresh_python(
        f"""
        import json, sys
        from repro.dependability import SweepRunner, SweepSpec, demo_spec, runner

        execute_cell = runner._execute_cell

        def recording(*args):
            before = set(sys.modules)
            stats = execute_cell(*args)
            return {{**stats, "imported": sorted(set(sys.modules) - before)}}

        runner._execute_cell = recording
        spec = SweepSpec.from_dict({{
            **demo_spec().to_dict(),
            "fault_rates": [24.0],
            "guard_modes": ["clamp"],
            "alphas": [4.0],
        }})
        result = SweepRunner(spec, {str(tmp_path)!r}, isolation="process").run()
        (outcome,) = result.outcomes
        print(json.dumps([outcome.status, outcome.error, outcome.stats.get("imported")]))
        """
    )
    status, error, imported = json.loads(out)
    assert (status, error) == ("ok", "")
    assert imported == []
