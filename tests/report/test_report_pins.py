"""Byte pins for the three HTML/JSON reports.

Each case builds one report from a deterministic input and compares the
sha256 of its ``.html`` and ``.to_json()`` with the value recorded
before the reports moved onto one section renderer.  A change to a
table, chart, caption or JSON key shows up here as a changed digest.
The campaign case overwrites the wall-clock throughput gauge with a
fixed value, since the live gauge differs from run to run.
"""

import hashlib

import pytest

from repro.lab.campaign import run_table1_campaign
from repro.lab.fleet import run_fleet_campaign
from repro.obs import Tracer
from repro.obs.query import TraceModel
from repro.report import (
    build_campaign_report,
    build_dependability_report,
    build_fleet_report,
)
from tests.report.test_builder import quarantined_result
from tests.report.test_dependability_report import fabricated_analysis
from tests.report.test_fleet_report import synthetic_result

#: Stand-in for the wall-clock ``campaign.sim_seconds_per_wall_second``.
FIXED_SIM_PER_WALL = 12345.0


def _traced_campaign_report():
    tracer = Tracer()
    result = run_table1_campaign(seed=0, n_chips=2, tracer=tracer)
    model = TraceModel.from_tracer(tracer)
    model.metrics["campaign.sim_seconds_per_wall_second"]["value"] = FIXED_SIM_PER_WALL
    return build_campaign_report(result, model, seed=0)


#: case -> (builder, html sha256, json sha256)
PINS = {
    # Re-pinned when the rate memo began admitting a bias pattern on its
    # second miss: only the trap-rate cache section moved (358 hits and
    # 324 misses, was 364 and 318).  Re-pinned again when the campaign
    # moved onto the lock-step engine: only the "trace spans" row moved
    # (175, was 184), because the two chips' baseline burn-in now opens
    # one case, one phase and 7 measurement spans for both chips.
    # Re-pinned when the Table-1 entry point began taking one shard per
    # usable CPU: the row became "trace spans (chip-weighted)", 184, in
    # which a fleet=k span counts as k, so it reads the same on 1 CPU
    # (one lock-step baseline) and on 2 (one baseline per shard).
    "campaign": (
        _traced_campaign_report,
        "5487b4e0a771c37b6cbed61cc8b1746a280f0a236a5dcb9f9dcda8b18659c6ce",
        "4fa132ef922976f1029df6ccdc46fd4051f3c90f7d31cdb6d5a8a49011f83dcf",
    ),
    # Re-pinned for the "trace spans (chip-weighted)" label alone.
    "quarantined-campaign": (
        lambda: build_campaign_report(quarantined_result()),
        "509ea1646ae151eeffc63aee7e41d3a60391e36ff05cfcf634e56ed446604137",
        "50b170295db5c1ccc5dec9271907d214d7eb53b35910276aae6eca06a97520ca",
    ),
    "synthetic-fleet": (
        lambda: build_fleet_report(synthetic_result(), seed=0),
        "7a07672d3aab2cd98ef5798c9d08e73cdeedf958f7006cd7b249e187cbbba141",
        "382b462e1c51da9171bac0b9ec01f82b4f19dc2c893b9f2adf21ceb8d92064a2",
    ),
    # An explicit shard count: the report shows it, and the default is
    # one shard per usable CPU.
    "small-fleet": (
        lambda: build_fleet_report(run_fleet_campaign(seed=0, n_chips=5, shards=1)),
        "97279c7d435f346b2a85a77b6092142c422bb3d13be875e09a189cfd705992e4",
        "9f986ab3d245f192d11657ecbc03ac87759ac40dc3f65562391b72afceef908f",
    ),
    "dependability": (
        lambda: build_dependability_report(fabricated_analysis()),
        "a08ce1fc2bc99c79fbf5f5ac183a86954fc057cf35ae9326cd75ca3fc12a35dc",
        "972e99e7d60130b141ba2b05c7572184bf5a3c2ce69928ba9b1da84dd8ea2d83",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(PINS))
def test_report_bytes_are_pinned(case):
    build, html_digest, json_digest = PINS[case]
    report = build()
    assert _sha256(report.html) == html_digest
    assert _sha256(report.to_json()) == json_digest
