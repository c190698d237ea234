"""Multi-core self-healing (paper Sec. 6, Fig. 10).

The paper proposes two multi-core applications of accelerated recovery:
using active neighbour cores as *on-chip heaters* for sleeping cores, and
circadian-rhythm-aware scheduling.  This package implements both as a
working simulation: per-core BTI aging, a thermal RC grid in which active
cores heat their sleeping neighbours, and a family of schedulers from
naive (fixed active set) to heater-aware circadian.
"""

from repro.multicore.core_model import CoreAgingModel, CoreBank, CoreParameters, CoreSegment
from repro.multicore.lifetime import MulticoreLifetime, compare_scheduler_lifetimes, project_multicore_lifetime
from repro.multicore.metrics import SystemMetrics, compute_metrics
from repro.multicore.scheduler import (
    BaselineScheduler,
    CircadianScheduler,
    HeaterAwareScheduler,
    InstrumentedScheduler,
    RoundRobinScheduler,
)
from repro.multicore.system import MulticoreSystem, SystemHistory
from repro.multicore.tdp import TdpConstrainedScheduler, TdpConstraint
from repro.multicore.thermal import ThermalGrid
from repro.multicore.workload import ConstantWorkload, DiurnalWorkload

__all__ = [
    "BaselineScheduler",
    "CircadianScheduler",
    "ConstantWorkload",
    "CoreAgingModel",
    "CoreBank",
    "CoreParameters",
    "CoreSegment",
    "DiurnalWorkload",
    "HeaterAwareScheduler",
    "InstrumentedScheduler",
    "MulticoreSystem",
    "MulticoreLifetime",
    "RoundRobinScheduler",
    "SystemHistory",
    "SystemMetrics",
    "TdpConstrainedScheduler",
    "TdpConstraint",
    "ThermalGrid",
    "compute_metrics",
    "compare_scheduler_lifetimes",
    "project_multicore_lifetime",
]
