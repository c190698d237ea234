"""Campaign runner — integration against the full Table-1 schedule."""

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.fpga.fleet import FleetChip
from repro.lab.campaign import run_table1_campaign
from repro.lab.fleet import FleetBench
from repro.lab.schedule import standard_case


class TestCampaignUnit:
    def test_chip_numbering(self, campaign_result):
        assert sorted(campaign_result.fresh_delays) == [f"chip-{n}" for n in range(1, 6)]
        with pytest.raises(ScheduleError):
            campaign_result.delay_change_series("AS110DC24", chip_no=6)

    def test_chips_have_distinct_fresh_delays(self, campaign_result):
        delays = set(campaign_result.fresh_delays.values())
        assert len(delays) == 5

    def test_run_case_logs_measurements(self):
        fleet = FleetChip(["chip-1", "chip-2"], [0, 1])
        bench = FleetBench(fleet, [np.random.default_rng(seed) for seed in (2, 3)])
        case = standard_case("AS110DC24", chip_no=1)
        logs = {0: [], 1: []}
        assert bench.run_case([0, 1], [case.name] * 2, case.phases, logs) == [0, 1]
        assert all(len(records) > 50 for records in logs.values())
        assert {record.case for records in logs.values() for record in records} == {
            "AS110DC24"
        }

    def test_rejects_nonpositive_chip_count(self):
        with pytest.raises(ScheduleError):
            run_table1_campaign(n_chips=0)


class TestTable1Integration:
    """Assertions against the session-scoped full campaign run."""

    def test_all_cases_present(self, campaign_result):
        cases = set(campaign_result.log.cases())
        for expected in (
            "AS110AC24", "AS110DC24", "AS100DC24", "AS110DC48",
            "R20Z6", "AR20N6", "AR110Z6", "AR110N6", "AR110N12",
        ):
            assert expected in cases

    def test_baseline_ran_on_every_chip(self, campaign_result):
        cases = campaign_result.log.cases()
        assert sum(1 for c in cases if c.startswith("BASELINE")) == 5

    def test_stress_cases_degrade(self, campaign_result):
        for case, chip in (("AS110AC24", 1), ("AS110DC24", 2), ("AS100DC24", 4)):
            __, p = campaign_result.degradation_percent_series(case, chip)
            assert p[-1] > 0.5  # all accelerated cases show > 0.5 %

    def test_recovery_cases_recover(self, campaign_result):
        for case, chip in (("R20Z6", 2), ("AR20N6", 3), ("AR110N6", 5)):
            __, d = campaign_result.delay_change_series(case, chip)
            assert d[-1] < d[0]

    def test_shared_case_requires_chip_number(self, campaign_result):
        with pytest.raises(ScheduleError):
            campaign_result.delay_change_series("AS110DC24")

    def test_unknown_case_rejected(self, campaign_result):
        with pytest.raises(ScheduleError):
            campaign_result.delay_change_series("AS200DC24", chip_no=1)

    def test_sampling_cadence_matches_paper(self, campaign_result):
        # DC stress sampled every 20 minutes: 24 h -> 73 samples.
        times, __ = campaign_result.delay_change_series("AS110DC24", chip_no=2)
        assert len(times) == 73
        assert np.diff(times)[0] == pytest.approx(1200.0)
        # Recovery sampled every 30 minutes: 6 h -> 13 samples.
        times, __ = campaign_result.delay_change_series("AR110N6", chip_no=5)
        assert len(times) == 13
        assert np.diff(times)[0] == pytest.approx(1800.0)

    def test_chip5_restress_deeper_than_first(self, campaign_result):
        __, first = campaign_result.delay_change_series("AS110DC24", chip_no=5)
        __, second = campaign_result.delay_change_series("AS110DC48", chip_no=5)
        assert second[-1] > first[-1]
