"""Cross-engine differential harness: one configuration, every path.

Seed 0 on two chips runs through three faultloads (none; a generated
plan of instrument faults and trap upsets; that plan plus a chip-2
dropout), each under three guards (off; clamp with a one-violation
budget; raise).  Every configuration goes through every execution path:

* ``run_table1_campaign``;
* ``run_fleet_campaign`` at exact fidelity, with 1 and with 2 shards;
* ``SweepRunner`` cells, inline and process-isolated, on both engines.

Each path must give the pinned outcome: the log digest, the sanitizer
hashes, the quarantine set, the resilience counters and the field set
of the result — or the same typed error.  The pins are literal values
recorded from the per-chip engine before the campaign engines merged.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache

import numpy as np
import pytest

from repro.dependability import LifetimeSettings, SweepRunner, SweepSpec
from repro.fpga.fleet import FleetChip
from repro.guard import GuardConfig
from repro.lab.campaign import run_table1_campaign, table1_horizon
from repro.lab.faults import FaultEvent, FaultKind, FaultPlan
from repro.lab.fleet import run_fleet_campaign
from repro.lab.resilience import RetryPolicy
from repro.obs import Tracer

CHIPS = ("chip-1", "chip-2")

#: Counters every path must agree on (absent counters read as 0).
COUNTERS = (
    "campaign.quarantines",
    "lab.faults.injected",
    "lab.sample_retries",
    "guard.violations.bti.occupancy",
    "guard.violations.device.delta_vth",
    "guard.violations.fpga.path_delay",
    "guard.violations.fpga.frequency",
)

GUARDS = {
    "off": GuardConfig(mode="off", dump_dir=None),
    "clamp": GuardConfig(mode="clamp", violation_budget=1, dump_dir=None),
    "raise": GuardConfig(mode="raise", dump_dir=None),
}

LOADS = ("none", "faults", "dropout")


def fault_plan(load: str) -> FaultPlan | None:
    """The faultload named ``load`` (``None`` for the fault-free run)."""
    if load == "none":
        return None
    plan = FaultPlan.generate(
        0, CHIPS, table1_horizon(2), rate_per_day=2.0, upset_probability=0.5
    )
    if load == "faults":
        return plan
    dropout = FaultEvent(FaultKind.CHIP_DROPOUT, "chip-2", start=table1_horizon(2) / 2.0)
    return FaultPlan(plan.events + (dropout,))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _outcome(run) -> dict:
    """Run one path and fold what it produced (or raised) into a dict."""
    tracer = Tracer()
    try:
        result = run(tracer)
    except Exception as error:  # a typed failure is an outcome too
        return {"error": type(error).__name__, "contract": getattr(error, "contract", None)}
    snapshot = tracer.metrics.snapshot()
    # Read after the snapshot, so the closing delay read adds no counts.
    finals = getattr(result, "final_delays", None) or {
        chip_id: chip.path_delay() for chip_id, chip in result.chips.items()
    }
    return {
        "records": len(result.log),
        "log": _digest("".join(repr(record) for record in result.log)),
        "hashes": _digest(json.dumps(sorted(result.state_hashes.items()))),
        "quarantine": {chip: report.case for chip, report in result.quarantined.items()},
        "counters": {name: snapshot.get(name, 0.0) for name in COUNTERS},
        "final": _digest(repr(sorted(finals.items()))),
    }


def _kwargs(load: str, guard: str) -> dict:
    plan = fault_plan(load)
    return dict(
        seed=0,
        n_chips=2,
        faults=plan,
        retry=RetryPolicy() if plan is not None else None,
        guard=GUARDS[guard],
        sanitize=True,
    )


@lru_cache(maxsize=None)
def direct(path: str, load: str, guard: str) -> dict:
    """The outcome of one direct-call path under one configuration."""
    kwargs = _kwargs(load, guard)
    if path == "table1":
        return _outcome(lambda tracer: run_table1_campaign(tracer=tracer, **kwargs))
    shards = {"fleet-1": 1, "fleet-2": 2}[path]
    return _outcome(
        lambda tracer: run_fleet_campaign(
            fidelity="exact", shards=shards, tracer=tracer, **kwargs
        )
    )


#: Per-chip engine outcomes, one per (faultload, guard mode).
_CLEAN = {
    "records": 173, "log": "557f327129aa4940", "hashes": "40ddfe4aef1c6b82",
    "quarantine": {}, "counters": dict.fromkeys(COUNTERS, 0.0), "final": "c477e7a9216b5a2c",
}
_OCCUPANCY_RAISE = {"error": "PhysicsViolationError", "contract": "bti.occupancy"}


def _counts(quarantines, injected, retries, occupancy) -> dict:
    counts = dict.fromkeys(COUNTERS, 0.0)
    counts.update({
        "campaign.quarantines": quarantines,
        "lab.faults.injected": injected,
        "lab.sample_retries": retries,
        "guard.violations.bti.occupancy": occupancy,
    })
    return counts


PINS = {
    ("none", "off"): _CLEAN,
    ("none", "clamp"): _CLEAN,
    ("none", "raise"): _CLEAN,
    ("faults", "off"): {
        "records": 173, "log": "4c2d9b840c44d38a", "hashes": "5804ab9b5c48f8fa",
        "quarantine": {}, "counters": _counts(0.0, 6.0, 2.0, 0.0),
        "final": "60b9f3263be700cb",
    },
    ("faults", "clamp"): {
        "records": 165, "log": "87bb01b37482f7fd", "hashes": "02b144841d4324e2",
        "quarantine": {"chip-1": "AS110AC24"}, "counters": _counts(1.0, 5.0, 2.0, 2.0),
        "final": "99384e1722049b43",
    },
    ("faults", "raise"): _OCCUPANCY_RAISE,
    ("dropout", "off"): {
        "records": 129, "log": "ee84043f5dd7f0dc", "hashes": "ffe1b85808845397",
        "quarantine": {"chip-2": "AS110DC24"}, "counters": _counts(1.0, 5.0, 2.0, 0.0),
        "final": "9bb942718d344e0b",
    },
    ("dropout", "clamp"): {
        "records": 121, "log": "d18bcb70e5a33764", "hashes": "8d5e1d5afb6b031b",
        "quarantine": {"chip-1": "AS110AC24", "chip-2": "AS110DC24"},
        "counters": _counts(2.0, 4.0, 2.0, 2.0), "final": "b6624aa1ceb22330",
    },
    ("dropout", "raise"): _OCCUPANCY_RAISE,
}


@pytest.mark.parametrize("guard", sorted(GUARDS))
@pytest.mark.parametrize("load", LOADS)
def test_per_chip_engine_meets_pin(load, guard):
    assert direct("table1", load, guard) == PINS[(load, guard)]


@pytest.mark.parametrize("path", ["fleet-1", "fleet-2"])
@pytest.mark.parametrize("guard", sorted(GUARDS))
@pytest.mark.parametrize("load", LOADS)
def test_fleet_paths_meet_pin(path, load, guard):
    assert direct(path, load, guard) == PINS[(load, guard)]


# ---------------------------------------------------------------------- #
# sweep cells
# ---------------------------------------------------------------------- #

#: Two sweeps over the same guard modes: fault-free, and a generated
#: faultload with and without a certain dropout.  Cell fault plans come
#: from each cell's own fault seed.
SWEEPS = {
    "clean": dict(fault_rates=(0.0,), dropout_probs=(0.0,), upset_probs=(0.0,)),
    "faulted": dict(fault_rates=(2.0,), dropout_probs=(0.0, 1.0), upset_probs=(0.5,)),
}


def sweep_spec(sweep: str, engine: str) -> SweepSpec:
    return SweepSpec(
        name=f"parity-{sweep}",
        engine=engine,
        n_chips=2,
        include_baseline=True,
        guard_budget=1,
        guard_modes=("off", "clamp", "raise"),
        lifetime=LifetimeSettings(enabled=False),
        **SWEEPS[sweep],
    )


def _cell_outcome(outcome) -> dict:
    if not outcome.ok:
        return {"status": outcome.status, "error": outcome.error.split(":", 1)[0]}
    stats = outcome.stats
    return {
        "status": outcome.status,
        "measurements": stats["measurements"],
        "log": stats["log_digest"],
        "quarantine": stats["quarantined"],
        "retries": stats["sample_retries"],
        "quarantines": stats["quarantine_events"],
        "violations": stats["guard_violations"],
        "degradation": _digest(json.dumps(stats["degradation"], sort_keys=True)),
    }


@lru_cache(maxsize=None)
def swept(sweep: str, engine: str, isolation: str, directory: str) -> dict:
    """Cell id -> outcome of one sweep run (or the typed refusal)."""
    try:
        runner = SweepRunner(
            sweep_spec(sweep, engine), directory, cell_retries=1, isolation=isolation
        )
        result = runner.run()
    except Exception as error:
        return {"error": type(error).__name__}
    return {outcome.cell_id: _cell_outcome(outcome) for outcome in result.outcomes}


def _cell(measurements, log, quarantine, retries, violations, degradation) -> dict:
    return {
        "status": "ok", "measurements": measurements, "log": log,
        "quarantine": quarantine, "retries": retries,
        "quarantines": float(len(quarantine)), "violations": violations,
        "degradation": degradation,
    }


_CLEAN_CELL = _cell(173, "557f327129aa4940", [], 0.0, {}, "18b1bbb9340f4e4e")

#: Per-chip engine cell outcomes, by sweep and cell id.
SWEEP_PINS = {
    "clean": {f"cell-000{index}": _CLEAN_CELL for index in range(3)},
    "faulted": {
        # off, clamp, raise without dropout; then the same with dropout.
        "cell-0000": {"status": "failed", "error": "PhysicsViolationError"},
        "cell-0001": _cell(
            114, "25e9f270862cb635", ["chip-2"], 4.0, {"bti.occupancy": 2.0},
            "e69fb3a49a52d029",
        ),
        "cell-0002": _cell(173, "035293ff86214faa", [], 4.0, {}, "215cfdd57998b311"),
        "cell-0003": _cell(
            88, "6d31107e266dab85", ["chip-1", "chip-2"], 0.0, {}, "a449b1e7db64bfa8"
        ),
        "cell-0004": _cell(
            36, "ce0b964d4da7a615", ["chip-1", "chip-2"], 0.0, {"bti.occupancy": 4.0},
            "9f559572a21e70d7",
        ),
        "cell-0005": _cell(
            71, "2eb5233c1fa7a776", ["chip-1", "chip-2"], 1.0, {}, "1b2326fa9d4c2aa8"
        ),
    },
}


@pytest.mark.parametrize("isolation", ["inline", "process"])
@pytest.mark.parametrize("engine", ["table1", "fleet"])
@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_sweep_cells_meet_pin(sweep, engine, isolation, tmp_path):
    outcome = swept(sweep, engine, isolation, str(tmp_path / "cells"))
    assert outcome == SWEEP_PINS[sweep]


# ---------------------------------------------------------------------- #
# a dead oscillator
# ---------------------------------------------------------------------- #


@pytest.fixture
def dead_chip_2(monkeypatch):
    """From mid-schedule on, chip-2's oscillator reads NaN Hz on every path.

    The patch is in place before any shard forks, so shard children
    inherit it.
    """
    frequencies = FleetChip.frequencies
    dies_at = table1_horizon(2) / 2.0

    def dying(self, chips=slice(None)):
        values = frequencies(self, chips)
        dead = np.array([chip_id == "chip-2" for chip_id in self.chip_ids[chips]])
        return np.where(dead & (self.elapsed[chips] > dies_at), np.nan, values)

    monkeypatch.setattr(FleetChip, "frequencies", dying)


def _dead_chip_outcome(path: str, retry: bool) -> dict:
    kwargs = dict(
        seed=0, n_chips=2, guard=GuardConfig(mode="clamp", dump_dir=None), sanitize=True,
        # An empty plan arms the retry policy without injecting a fault.
        faults=FaultPlan(()) if retry else None,
    )
    if path == "table1":
        return _outcome(lambda tracer: run_table1_campaign(tracer=tracer, **kwargs))
    return _outcome(
        lambda tracer: run_fleet_campaign(fidelity="exact", shards=2, tracer=tracer, **kwargs)
    )


def test_dead_oscillator_is_a_measurement_failure_on_every_path(dead_chip_2):
    # Clamp mode turns the NaN into a dead oscillator (0 Hz): its burst is
    # a MeasurementError, retried, exhausted and quarantined under a retry
    # policy, and surfaced as that typed error without one.
    retried = {path: _dead_chip_outcome(path, retry=True) for path in ("table1", "fleet-2")}
    assert retried["table1"] == retried["fleet-2"]
    assert list(retried["table1"]["quarantine"]) == ["chip-2"]
    assert retried["table1"]["counters"]["guard.violations.fpga.frequency"] > 0
    assert retried["table1"]["counters"]["lab.sample_retries"] > 0
    raised = {path: _dead_chip_outcome(path, retry=False) for path in ("table1", "fleet-2")}
    assert raised["table1"] == raised["fleet-2"] == {"error": "MeasurementError", "contract": None}


def test_paths_return_one_result_shape():
    fields = {
        path: {field.name for field in dataclasses.fields(result)}
        for path, result in (
            ("table1", run_table1_campaign(seed=0, n_chips=1)),
            ("fleet", run_fleet_campaign(seed=0, n_chips=1, fidelity="exact")),
        )
    }
    assert fields["table1"] == fields["fleet"]
