"""DAVOS-style dependability evaluation on top of the lab stack.

PR4/PR5/PR8 built the *mechanisms* — seeded fault injection, retry,
quarantine, guard violation budgets, checkpointing, the batched fleet
engine.  This package builds the *system* on top of them, the way a
fault-injection campaign manager (DAVOS) sits on top of a simulator:

* :mod:`repro.dependability.spec` — a declarative sweep specification
  (fault rates x dropout/upset probabilities x guard modes x recovery
  knobs alpha/Vdda/Ta x seeds) expanded into a deterministic grid of
  campaign cells, statically validated through the RPR1xx pipeline;
* :mod:`repro.dependability.store` — crash-safe sweep manifests and
  per-cell result files (atomic writes, orphan-tmp tolerant), so a
  SIGKILLed sweep resumes cell-exactly;
* :mod:`repro.dependability.runner` — a resilient batch runner with
  per-attempt process isolation in one forked worker per usable CPU,
  wall-clock timeouts and bounded retries;
  a failed or timed-out cell is *recorded*, never raised, and the sweep
  completes on the survivors;
* :mod:`repro.dependability.cell` — one cell's campaign and lifetime
  projection, with every module a cell's forked worker needs;
* :mod:`repro.dependability.analyzer` — per-cell failure / quarantine /
  retry / guard-violation / lifetime statistics with bootstrap and
  Wilson confidence intervals, plus cross-cell sensitivity tables;
* :mod:`repro.dependability.pareto` — lifetime-vs-throughput frontiers
  over the recovery-knob axes.

The HTML/JSON rendering lives in :mod:`repro.report.dependability`; the
CLI surface is ``repro sweep run|resume|report`` and the registered
``DEPEND`` experiment.
"""

from repro.dependability.analyzer import SweepAnalysis, analyze_sweep
from repro.dependability.pareto import ParetoPoint, pareto_frontier
from repro.dependability.runner import CellOutcome, SweepResult, SweepRunner
from repro.dependability.spec import (
    LifetimeSettings,
    SweepCell,
    SweepSpec,
    demo_spec,
    validate_sweep_spec,
)
from repro.dependability.store import SweepStore

__all__ = [
    "CellOutcome",
    "LifetimeSettings",
    "ParetoPoint",
    "SweepAnalysis",
    "SweepCell",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "SweepStore",
    "analyze_sweep",
    "demo_spec",
    "pareto_frontier",
    "validate_sweep_spec",
]
