"""One sweep cell's work: its campaign and its lifetime projection.

The imports below are every module a cell needs, and the only list of
them.  :mod:`repro.dependability.runner` imports this module at its top,
so every forked cell attempt inherits these modules instead of importing
them itself.
"""

from __future__ import annotations

import hashlib

# numpy 2 loads numpy.random on first attribute access; the campaign's
# instrument and fault draws need it.
import numpy.random  # noqa: F401

from repro.bti.traps import TrapParameters
from repro.core.knobs import OperatingPoint, RecoveryKnobs
from repro.core.lifetime import project_lifetime
from repro.core.policies import ProactivePolicy
from repro.dependability.spec import SweepCell
from repro.device.technology import TechnologyParameters
from repro.device.variation import ProcessVariation
from repro.fpga.chip import FpgaChip
from repro.guard.contracts import GuardConfig
from repro.lab.campaign import run_table1_campaign, table1_horizon
from repro.lab.faults import FaultPlan
from repro.lab.fleet import run_fleet_campaign
from repro.lab.resilience import RetryPolicy
from repro.obs import NULL_TRACER, Tracer
from repro.units import SECONDS_PER_HOUR


def lifetime_stats(cell: SweepCell) -> dict:
    """Project lifetime under this cell's recovery knobs (Pareto axes)."""
    settings = cell.lifetime
    # Small trap populations keep the projection sub-second per cell while
    # preserving the stress/recovery physics the knobs act on.
    tech = TechnologyParameters(
        nbti_traps=TrapParameters(mean_trap_count=12.0),
        pbti_traps=TrapParameters(mean_trap_count=12.0, impact_mean_volts=2.56e-3),
    )
    chip = FpgaChip(
        f"pareto-{cell.cell_id}",
        n_stages=5,
        tech=tech,
        variation=ProcessVariation(0.0, 0.0, 0.0),
        seed=cell.seed,
    )
    knobs = RecoveryKnobs(
        alpha=cell.alpha,
        sleep_voltage=cell.sleep_voltage,
        sleep_temperature_c=cell.sleep_temperature_c,
    )
    budget = settings.budget_fraction * chip.path_delay()
    report = project_lifetime(
        chip,
        ProactivePolicy(knobs, period=settings.period_hours * SECONDS_PER_HOUR),
        budget=budget,
        horizon_active_time=settings.horizon_hours * SECONDS_PER_HOUR,
        operating=OperatingPoint(temperature_c=110.0),
        max_segment=SECONDS_PER_HOUR,
    )
    survived = report.survived_horizon
    return {
        "lifetime_active_hours": (
            None if survived else report.active_lifetime / SECONDS_PER_HOUR
        ),
        "lifetime_survived_horizon": survived,
        "lifetime_horizon_hours": settings.horizon_hours,
        "throughput_active_fraction": knobs.active_fraction,
    }


def campaign_stats(cell: SweepCell, retries: int, backoff_s: float, tracer=NULL_TRACER) -> dict:
    """Run the cell's campaign into ``tracer`` (a private one when it is
    disabled) and fold it into a deterministic stats dict."""
    tracer = tracer if tracer.enabled else Tracer()
    chip_ids = [f"chip-{number}" for number in range(1, cell.n_chips + 1)]
    faults = None
    if cell.has_faults:
        faults = FaultPlan.generate(
            cell.fault_seed,
            chip_ids,
            table1_horizon(cell.n_chips, cell.include_baseline),
            rate_per_day=cell.fault_rate,
            dropout_probability=cell.dropout_prob,
            upset_probability=cell.upset_prob,
        )
    budget = cell.guard_budget if cell.guard_mode == "clamp" and cell.guard_budget else None
    run = run_fleet_campaign if cell.engine == "fleet" else run_table1_campaign
    result = run(
        seed=cell.seed,
        n_chips=cell.n_chips,
        include_baseline=cell.include_baseline,
        faults=faults,
        retry=RetryPolicy(max_attempts=retries, backoff_seconds=backoff_s)
        if faults is not None
        else None,
        guard=GuardConfig(mode=cell.guard_mode, violation_budget=budget, dump_dir=None),
        tracer=tracer,
    )

    log_hash = hashlib.sha256()
    for record in result.log:
        log_hash.update(repr(record).encode())
    metrics = tracer.metrics.snapshot()
    degradation = {
        chip_id: final - result.fresh_delays[chip_id]
        for chip_id, final in sorted(result.final_delays.items())
    }
    guard_violations = {
        name.removeprefix("guard.violations."): value
        for name, value in metrics.items()
        if name.startswith("guard.violations.")
    }
    stats = {
        "engine": cell.engine,
        "config_digest": cell.config_digest(),
        "n_chips": cell.n_chips,
        "measurements": result.total_measurements,
        "quarantined": sorted(result.quarantined),
        "quarantined_count": len(result.quarantined),
        "sample_retries": metrics.get("lab.sample_retries", 0.0),
        "quarantine_events": metrics.get("campaign.quarantines", 0.0),
        "guard_violations": guard_violations,
        "guard_violations_total": sum(guard_violations.values()),
        "faults_planned": len(faults) if faults is not None else 0,
        "log_digest": log_hash.hexdigest()[:16],
        "degradation": degradation,
    }
    if cell.lifetime.enabled:
        stats.update(lifetime_stats(cell))
    return stats
