"""Virtual measurement lab: instruments, schedules and campaign running.

These classes replace the paper's physical test setup — thermal chamber
(+/-0.3 degC), DC power supply with a negative rail, readout counter on
a 500 Hz reference clock — and orchestrate the accelerated stress/recovery schedules of the
paper's Table 1 on virtual :class:`~repro.fpga.chip.FpgaChip` instances.
"""

from repro.lab.campaign import CampaignResult, run_table1_campaign, table1_horizon
from repro.lab.datalog import DataLog, MeasurementRecord
from repro.lab.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.lab.measurement import VirtualTestbench
from repro.lab.power_supply import DcPowerSupply
from repro.lab.resilience import (
    CheckpointStore,
    QuarantineReport,
    RetryPolicy,
)
from repro.lab.replay import fresh_delays_from_log, result_from_csv, result_from_log
from repro.lab.schedule import (
    PhaseKind,
    TABLE1_CASES,
    TestCase,
    TestPhase,
    parse_case_name,
    standard_case,
)
from repro.lab.thermal_chamber import ThermalChamber

__all__ = [
    "CampaignResult",
    "CheckpointStore",
    "DataLog",
    "DcPowerSupply",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "fresh_delays_from_log",
    "result_from_csv",
    "result_from_log",
    "MeasurementRecord",
    "PhaseKind",
    "QuarantineReport",
    "RetryPolicy",
    "TABLE1_CASES",
    "TestCase",
    "TestPhase",
    "ThermalChamber",
    "VirtualTestbench",
    "parse_case_name",
    "run_table1_campaign",
    "standard_case",
    "table1_horizon",
]
