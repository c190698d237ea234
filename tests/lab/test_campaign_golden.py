"""Pinned Table-1 campaign outputs: the behaviour spec for refactors.

The values below are literal digests of what ``run_table1_campaign``
produces for fixed seeds.  Any change to how the campaign schedules
chips, derives seeds, merges logs or hashes state shows up here as a
changed digest, so a refactor that keeps these values keeps the
campaign's numbers.  A deliberate change to the physics or the noise
streams must re-pin them in its own commit and say why.
"""

import hashlib

import pytest

from repro.guard import GuardConfig
from repro.lab.campaign import run_table1_campaign, table1_horizon
from repro.lab.faults import FaultPlan
from repro.lab.resilience import RetryPolicy
from repro.obs import Tracer

#: Seed-0 five-chip campaign: record count and log digest.
SEED0_RECORDS = 622
SEED0_LOG_DIGEST = "6ce094fa3958d9ef"

#: Seed-0 five-chip sanitizer digests, one per ``chip/seq`` phase end.
SEED0_STATE_HASHES = {
    "chip-1/000": "e490190242e194cd",
    "chip-1/001": "22dded60b9ef0bc3",
    "chip-2/000": "3c0ee9d6ee7a3e52",
    "chip-2/001": "5007daf574e2a6e8",
    "chip-2/002": "9063622a8809bef0",
    "chip-3/000": "d28f9b7c8d72cac8",
    "chip-3/001": "2e30df676990c93c",
    "chip-3/002": "60d2d0bb7265e959",
    "chip-4/000": "c7dd46ac54bb7199",
    "chip-4/001": "d79b000df0d33386",
    "chip-4/002": "3310df263cb8f630",
    "chip-5/000": "364f20c1b759cd76",
    "chip-5/001": "7a62517f726d971f",
    "chip-5/002": "1ed98d38f881db48",
    "chip-5/003": "a1c073b00de5a9c8",
    "chip-5/004": "d54c6cc8035527a6",
}

#: Seed-0 two-chip campaign under a generated faultload, retries and a
#: clamp guard with a one-violation budget: chip-1 exhausts its budget
#: during its stress case and is quarantined; chip-2 completes.
FAULTED_RECORDS = 165
FAULTED_LOG_DIGEST = "87bb01b37482f7fd"
FAULTED_QUARANTINE = {"chip-1": "AS110AC24"}
FAULTED_COUNTERS = {
    "campaign.quarantines": 1.0,
    "guard.violations.bti.occupancy": 2.0,
    "lab.faults.injected": 5.0,
    "lab.sample_retries": 2.0,
}


def log_digest(log) -> str:
    return hashlib.sha256("".join(repr(record) for record in log).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def seed0_sanitized():
    return run_table1_campaign(seed=0, sanitize=True)


@pytest.fixture(scope="module")
def faulted():
    plan = FaultPlan.generate(
        0, ("chip-1", "chip-2"), table1_horizon(2), rate_per_day=2.0, upset_probability=0.5
    )
    tracer = Tracer()
    result = run_table1_campaign(
        seed=0,
        n_chips=2,
        faults=plan,
        retry=RetryPolicy(),
        guard=GuardConfig(mode="clamp", violation_budget=1, dump_dir=None),
        tracer=tracer,
    )
    return result, tracer


class TestSeed0Campaign:
    def test_log_digest(self, seed0_sanitized):
        assert len(seed0_sanitized.log) == SEED0_RECORDS
        assert log_digest(seed0_sanitized.log) == SEED0_LOG_DIGEST

    def test_state_hashes(self, seed0_sanitized):
        assert seed0_sanitized.state_hashes == SEED0_STATE_HASHES

    def test_unsanitized_log_matches(self):
        assert log_digest(run_table1_campaign(seed=0).log) == SEED0_LOG_DIGEST


class TestFaultedGuardedCampaign:
    def test_log_digest(self, faulted):
        result, _ = faulted
        assert len(result.log) == FAULTED_RECORDS
        assert log_digest(result.log) == FAULTED_LOG_DIGEST

    def test_quarantine_set(self, faulted):
        result, _ = faulted
        assert {chip: report.case for chip, report in result.quarantined.items()} == (
            FAULTED_QUARANTINE
        )

    def test_resilience_counters(self, faulted):
        _, tracer = faulted
        snapshot = tracer.metrics.snapshot()
        assert {name: snapshot[name] for name in FAULTED_COUNTERS} == FAULTED_COUNTERS
