"""Fleet distribution report: JSON schema, outlier fences, rendering."""

import json

import numpy as np
import pytest

from repro.lab.datalog import DataLog
from repro.lab.fleet import CampaignResult, FleetChipSummary, run_fleet_campaign
from repro.report import build_fleet_report
from repro.report.fleet import OUTLIER_SIGMA, _outliers


def synthetic_result(n_chips=50, outlier_pct=9.0) -> CampaignResult:
    """A result with a tight per-group spread plus one planted outlier."""
    rng = np.random.default_rng(0)
    summaries = []
    for index in range(n_chips):
        chip_no = (index % 5) + 1
        stress = float(chip_no + rng.normal(0.0, 0.05))
        if index == 7:
            stress = outlier_pct
        summaries.append(
            FleetChipSummary(
                chip_id=f"chip-{index + 1}",
                chip_no=chip_no,
                fresh_delay=155e-9,
                fresh_frequency=3.2e6,
                case_end_frequency={"BASELINE": 3.2e6},
                stress_degradation_pct=stress,
                residual_degradation_pct=stress / 2.0,
                measurements=10,
            )
        )
    return CampaignResult(
        chips={}, log=DataLog(),
        fresh_delays={s.chip_id: s.fresh_delay for s in summaries},
        summaries=summaries, fidelity="binned", total_measurements=500,
    )


class TestOutlierFences:
    def test_planted_outlier_is_flagged_within_its_group(self):
        result = synthetic_result()
        rows = _outliers(result, "stress_degradation_pct")
        assert rows, "planted outlier not detected"
        assert rows[0]["chip_id"] == "chip-8"
        assert abs(rows[0]["z_score"]) >= OUTLIER_SIGMA

    def test_fence_is_per_schedule_group(self):
        # Group means differ by construction (chip_no 1..5); without a
        # per-group fence every chip-5 chip would be a lot-wide outlier.
        result = synthetic_result(outlier_pct=3.0)  # inside chip-3's range?
        rows = _outliers(result, "stress_degradation_pct")
        flagged = {row["chip_id"] for row in rows}
        # chip-8 runs schedule position 3 (index 7), value 3.0 is the
        # group mean — nothing should be flagged.
        assert "chip-8" not in flagged


class TestReportArtifacts:
    def test_json_and_html_agree_and_render(self, tmp_path):
        result = synthetic_result()
        report = build_fleet_report(result, seed=0)
        path = report.write(tmp_path / "fleet.html")
        data = json.loads((tmp_path / "fleet.json").read_text())
        assert data["meta"]["n_chips"] == 50
        assert data["meta"]["fidelity"] == "binned"
        lot = data["distributions"]["stress_degradation_pct"]["lot"]
        assert lot["n"] == 50
        assert set(lot["percentiles"]) == {
            "p1", "p5", "p25", "p50", "p75", "p95", "p99"
        }
        html = path.read_text()
        assert "<svg" in html and "Outliers" in html
        assert "chip-8" in html  # the planted outlier row

    def test_real_small_fleet_builds(self):
        result = run_fleet_campaign(seed=0, n_chips=5, fidelity="binned",
                                    collect="summary")
        report = build_fleet_report(result, seed=0)
        assert report.data["meta"]["measurements"] == result.total_measurements
        by_no = report.data["distributions"]["stress_degradation_pct"]["by_chip_no"]
        assert set(by_no) == {"1", "2", "3", "4", "5"}
        for entry in by_no.values():
            assert entry["n"] == 1

    def test_single_chip_lot_degrades_gracefully(self):
        result = run_fleet_campaign(seed=0, n_chips=1, fidelity="binned",
                                    collect="summary")
        report = build_fleet_report(result)
        assert report.data["outliers"]["stress_degradation_pct"] == []
        assert "<svg" not in report.html  # no histogram for n == 1
