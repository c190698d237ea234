"""SMOKE — dependability sweep: degrade gracefully, resume bit-identically.

Drives the full ``repro.dependability`` stack the way CI exercises it:

* a 2 faultload x 2 guard-mode grid (8 cells with the two alpha settings)
  runs under **process isolation** with one *injected* crash in a cell
  that would otherwise pass;
* the sweep must **complete on the survivors** — the crashed cell and the
  guard-off upset cells are recorded as degraded, never raised;
* with two or more usable CPUs, cells run side by side: at least two
  ``sweep_cell`` spans overlap in time (and none do on one CPU);
* one surviving cell's record is then deleted and the sweep **resumed**:
  only that cell re-runs, and its deterministic stats digest must be
  bit-identical to the first pass.

Run directly (CI does)::

    PYTHONPATH=src python -m pytest benchmarks/smoke_sweep.py -q
"""

import time

from repro.dependability import (
    LifetimeSettings,
    SweepRunner,
    SweepSpec,
    analyze_sweep,
)
from repro.lab.resilience import usable_cpus
from repro.obs import Tracer
from repro.report import build_dependability_report

SEED = 7

#: The cell the crash is injected into: cell-0000 is the zero-faultload
#: clamp cell, which completes cleanly when not sabotaged.
CRASHED_CELL = "cell-0000"


def smoke_spec() -> SweepSpec:
    """The CI smoke grid: 2 fault rates x 2 guard modes (x 2 alphas)."""
    return SweepSpec(
        name="smoke-sweep",
        engine="table1",
        n_chips=2,
        fault_rates=(0.0, 24.0),
        upset_probs=(0.25,),
        guard_modes=("clamp", "off"),
        alphas=(1.0, 4.0),
        seeds=(SEED,),
        lifetime=LifetimeSettings(budget_fraction=0.005, horizon_hours=24.0),
    )


def test_smoke_sweep(tmp_path):
    spec = smoke_spec()
    directory = tmp_path / "sweep"

    start = time.perf_counter()
    tracer = Tracer()
    runner = SweepRunner(
        spec,
        directory,
        isolation="process",
        timeout_s=300.0,
        cell_retries=1,
        inject={CRASHED_CELL: "crash"},
        tracer=tracer,
    )
    result = runner.run()
    wall_s = time.perf_counter() - start

    # One cell per usable CPU in flight: spans overlap exactly when two
    # or more CPUs are usable.
    cells = sorted(tracer.spans("sweep_cell"), key=lambda span: span.start)
    assert len(cells) == spec.n_cells
    overlaps = sum(
        later.start < earlier.start + earlier.duration
        for earlier, later in zip(cells, cells[1:])
    )
    assert (overlaps > 0) == (usable_cpus() >= 2), (overlaps, usable_cpus())

    # Graceful degradation: the sweep completed with every cell recorded.
    assert len(result.outcomes) == spec.n_cells == 8
    by_id = {outcome.cell_id: outcome for outcome in result.outcomes}
    crashed = by_id[CRASHED_CELL]
    assert not crashed.ok and "worker died" in crashed.error
    survivors = [outcome for outcome in result.outcomes if outcome.ok]
    assert survivors, "sweep must complete on the surviving cells"
    # The guard-off cells under upsets fail by design (NaN upsets abort
    # an unguarded campaign); every clamp cell except the sabotaged one
    # must survive.
    for cell, outcome in zip(result.cells, result.outcomes):
        if cell.guard_mode == "clamp" and cell.cell_id != CRASHED_CELL:
            assert outcome.ok, f"{cell.cell_id} degraded: {outcome.error}"

    # Resume: delete one surviving cell's record, re-run only that cell,
    # and require a bit-identical stats digest.
    victim = survivors[0]
    (directory / "cells" / f"{victim.cell_id}.json").unlink()
    resumed = SweepRunner.resume(
        directory,
        isolation="process",
        timeout_s=300.0,
        cell_retries=1,
        inject={CRASHED_CELL: "crash"},
    )
    resumed_by_id = {outcome.cell_id: outcome for outcome in resumed.outcomes}
    assert resumed_by_id[victim.cell_id].digest == victim.digest
    for outcome in survivors:
        assert resumed_by_id[outcome.cell_id].digest == outcome.digest

    # The report must render CIs and the Pareto frontier from this grid.
    analysis = analyze_sweep(resumed)
    report = build_dependability_report(analysis)
    frontier = [p for p in report.data["pareto"] if p["on_frontier"]]
    assert frontier, "smoke sweep must yield a non-empty Pareto frontier"
    assert report.data["confidence"]["cell_failure_rate_wilson95"]
    report.write(tmp_path / "sweep-report.html")

    print(
        f"smoke sweep: {len(survivors)}/{len(result.outcomes)} cells completed "
        f"({len(result.outcomes) - len(survivors)} degraded, incl. injected "
        f"crash) in {wall_s:.2f} s, {runner.cells_at_once(spec.n_cells)} at a time; "
        f"resume of {victim.cell_id} bit-identical; "
        f"{len(frontier)} frontier point(s)"
    )
