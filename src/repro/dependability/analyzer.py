"""Statistical analysis of a finished (possibly degraded) sweep.

Per-cell rows carry the raw dependability observables (quarantine,
retries, guard violations, degradation, lifetime); rates over small
counts get Wilson score intervals (2 quarantined of 5 chips must not
produce a [0.4, 0.4] "interval"), and cross-chip means get bootstrap
intervals.  Sensitivity tables marginalise each swept axis so the
operator can read off which knob actually moves a metric before
trusting the Pareto frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.stats import bootstrap_ci, wilson_ci
from repro.analysis.tables import Table
from repro.dependability.runner import CellOutcome, SweepResult
from repro.dependability.spec import SweepCell, SweepSpec
from repro.dependability.store import SweepStore
from repro.errors import ConfigurationError

#: Axes a sensitivity table marginalises over: every swept spec field but the seed.
SENSITIVITY_AXES = tuple(axis for axis in SweepSpec._AXES if axis != ("seeds", "seed"))


@dataclass(frozen=True)
class CellRow:
    """One cell's configuration joined with its outcome statistics."""

    cell: SweepCell
    outcome: CellOutcome

    @property
    def ok(self) -> bool:
        """True when the cell's campaign completed."""
        return self.outcome.ok

    @property
    def quarantine_rate(self) -> float | None:
        """Quarantined fraction of the cell's lot (None when degraded)."""
        if not self.ok:
            return None
        return self.outcome.stats.get("quarantined_count", 0) / self.cell.n_chips

    @property
    def lifetime_hours(self) -> float | None:
        """Projected active lifetime, None when degraded or censored."""
        if not self.ok:
            return None
        return self.outcome.stats.get("lifetime_active_hours")

    @property
    def throughput(self) -> float | None:
        """Active fraction delivered by the cell's recovery knobs."""
        if not self.ok:
            return None
        return self.outcome.stats.get("throughput_active_fraction")

    @property
    def mean_degradation(self) -> float | None:
        """Mean final delay shift across the cell's surviving chips."""
        if not self.ok:
            return None
        degradation = self.outcome.stats.get("degradation", {})
        if not degradation:
            return None
        return sum(degradation.values()) / len(degradation)


@dataclass(frozen=True)
class SweepAnalysis:
    """Everything the report and CLI need from a finished sweep."""

    spec: SweepSpec
    rows: tuple[CellRow, ...]
    #: Wilson interval on the cell failure rate (degraded of total).
    cell_failure_ci: tuple[float, float]
    #: Wilson interval on the pooled chip quarantine rate.
    quarantine_ci: tuple[float, float]
    #: Bootstrap interval on the mean finite lifetime (None if < 2 points).
    lifetime_ci: tuple[float, float] | None
    #: axis field -> value -> metric name -> marginal mean (or None).
    sensitivity: dict = field(default_factory=dict)

    @property
    def ok_rows(self) -> tuple[CellRow, ...]:
        """Rows whose campaign completed."""
        return tuple(row for row in self.rows if row.ok)

    @property
    def degraded_rows(self) -> tuple[CellRow, ...]:
        """Rows recorded as failed or timed out."""
        return tuple(row for row in self.rows if not row.ok)

    @property
    def n_cells(self) -> int:
        """Total cells in the grid."""
        return len(self.rows)

    def table(self) -> Table:
        """Per-cell summary table for the CLI."""
        table = Table(
            f"Dependability sweep '{self.spec.name}' "
            f"({len(self.ok_rows)}/{self.n_cells} cells ok)",
            [
                "cell", "status", "fault/day", "dropout", "upset", "guard",
                "alpha", "quar", "retries", "violations", "life (h)",
            ],
        )
        for row in self.rows:
            cell, outcome = row.cell, row.outcome
            stats = outcome.stats
            lifetime = row.lifetime_hours
            if not row.ok:
                life_text = "-"
            elif lifetime is None:
                life_text = f">{cell.lifetime.horizon_hours:g}"
            else:
                life_text = f"{lifetime:.2f}"
            table.add_row(
                cell.cell_id,
                outcome.status,
                f"{cell.fault_rate:g}",
                f"{cell.dropout_prob:g}",
                f"{cell.upset_prob:g}",
                cell.guard_mode,
                f"{cell.alpha:g}",
                str(stats.get("quarantined_count", "-")) if row.ok else "-",
                f"{stats.get('sample_retries', 0):g}" if row.ok else "-",
                f"{stats.get('guard_violations_total', 0):g}" if row.ok else "-",
                life_text,
            )
        return table


def _marginal_means(rows, axis_cell_field: str) -> dict:
    """metric means of the ok rows, grouped by one axis's values."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(getattr(row.cell, axis_cell_field), []).append(row)
    marginals: dict = {}
    for value, members in sorted(groups.items(), key=lambda item: str(item[0])):
        ok = [row for row in members if row.ok]
        quarantine = [row.quarantine_rate for row in ok if row.quarantine_rate is not None]
        lifetimes = [row.lifetime_hours for row in ok if row.lifetime_hours is not None]
        degradations = [
            row.mean_degradation for row in ok if row.mean_degradation is not None
        ]
        violations = [row.outcome.stats.get("guard_violations_total", 0.0) for row in ok]
        marginals[value] = {
            "cells": len(members),
            "ok_cells": len(ok),
            "quarantine_rate": sum(quarantine) / len(quarantine) if quarantine else None,
            "lifetime_hours": sum(lifetimes) / len(lifetimes) if lifetimes else None,
            "degradation": sum(degradations) / len(degradations) if degradations else None,
            "guard_violations": sum(violations) / len(violations) if violations else None,
        }
    return marginals


def analyze_sweep(result: SweepResult | str | Path) -> SweepAnalysis:
    """Compute dependability statistics from a result or a sweep directory.

    Accepts the in-memory :class:`SweepResult` of a run, or a directory
    path — in which case the persisted manifest and cell files are
    reloaded (cells never executed are treated as degraded with a
    ``never ran`` error, so analysing an interrupted sweep still works).
    """
    if not isinstance(result, SweepResult):
        directory = Path(result)
        store = SweepStore(directory)
        spec = store.load_spec()
        cells = spec.expand()
        persisted = store.load_cells()
        outcomes = tuple(
            CellOutcome.from_dict(persisted[cell.cell_id])
            if cell.cell_id in persisted
            else CellOutcome(
                cell_id=cell.cell_id,
                status="failed",
                attempts=0,
                error="never ran (sweep interrupted before this cell)",
            )
            for cell in cells
        )
        result = SweepResult(
            spec=spec, directory=str(directory), cells=cells, outcomes=outcomes
        )

    if len(result.cells) != len(result.outcomes):
        raise ConfigurationError(
            f"sweep result is inconsistent: {len(result.cells)} cells but "
            f"{len(result.outcomes)} outcomes"
        )
    rows = tuple(
        CellRow(cell=cell, outcome=outcome)
        for cell, outcome in zip(result.cells, result.outcomes)
    )

    ok_rows = [row for row in rows if row.ok]
    cell_failure_ci = wilson_ci(len(rows) - len(ok_rows), len(rows))
    total_chips = sum(row.cell.n_chips for row in ok_rows)
    total_quarantined = sum(
        row.outcome.stats.get("quarantined_count", 0) for row in ok_rows
    )
    quarantine_ci = (
        wilson_ci(total_quarantined, total_chips) if total_chips else (0.0, 1.0)
    )
    lifetimes = [row.lifetime_hours for row in ok_rows if row.lifetime_hours is not None]
    lifetime_ci = bootstrap_ci(lifetimes) if len(lifetimes) >= 2 else None

    sensitivity = {
        axis_field: _marginal_means(rows, cell_field)
        for axis_field, cell_field in SENSITIVITY_AXES
        if len(getattr(result.spec, axis_field)) > 1
    }
    return SweepAnalysis(
        spec=result.spec,
        rows=rows,
        cell_failure_ci=cell_failure_ci,
        quarantine_ci=quarantine_ci,
        lifetime_ci=lifetime_ci,
        sensitivity=sensitivity,
    )

