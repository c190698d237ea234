"""Replay analysis from archived logs."""

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.lab.datalog import DataLog, MeasurementRecord
from repro.lab.replay import fresh_delays_from_log, result_from_csv, result_from_log


def _record(chip_id: str, timestamp: float, phase_elapsed: float, delay: float):
    return MeasurementRecord(
        chip_id=chip_id,
        case="AS110DC24",
        phase="AS110DC24",
        timestamp=timestamp,
        phase_elapsed=phase_elapsed,
        count=1000,
        frequency=1.0 / (2.0 * delay),
        delay=delay,
        temperature_c=110.0,
        supply_voltage=1.2,
    )


class TestReplay:
    def test_fresh_delays_match_live_result(self, campaign_result):
        fresh = fresh_delays_from_log(campaign_result.log)
        for chip_id, live in campaign_result.fresh_delays.items():
            # The replayed anchor is a counter *measurement* of the fresh
            # chip: equal to the live value within readout resolution.
            assert fresh[chip_id] == pytest.approx(live, rel=2e-3)

    def test_series_match_live_result(self, campaign_result):
        replayed = result_from_log(campaign_result.log)
        t_live, d_live = campaign_result.delay_change_series("AR110N6", chip_no=5)
        t_rep, d_rep = replayed.delay_change_series("AR110N6", chip_no=5)
        np.testing.assert_array_equal(t_live, t_rep)
        # Delay *changes* differ only by the fresh-anchor quantisation.
        np.testing.assert_allclose(d_live, d_rep, atol=5e-10)

    def test_csv_round_trip(self, campaign_result, tmp_path):
        path = tmp_path / "campaign.csv"
        campaign_result.log.write_csv(path)
        replayed = result_from_csv(path)
        t, p = replayed.degradation_percent_series("AS110DC24", chip_no=2)
        assert p[-1] > 1.5  # the headline degradation survives archival

    def test_empty_log_rejected(self):
        with pytest.raises(MeasurementError):
            fresh_delays_from_log(DataLog())

    def test_mid_phase_log_rejected(self, campaign_result):
        truncated = DataLog()
        for record in campaign_result.log:
            if record.phase_elapsed > 0.0:
                truncated.append(record)
        with pytest.raises(MeasurementError):
            fresh_delays_from_log(truncated)

    def test_mid_phase_error_names_the_chip(self):
        log = DataLog()
        log.append(_record("chip-9", timestamp=1200.0, phase_elapsed=1200.0, delay=5e-9))
        with pytest.raises(MeasurementError, match="chip-9"):
            fresh_delays_from_log(log)

    def test_one_resumed_chip_poisons_only_that_chip(self):
        # chip-1 has a clean time-zero anchor; chip-2 resumes mid-phase.
        # The whole log must be rejected: a partial fresh-delay map would
        # silently drop chip-2's series.
        log = DataLog()
        log.append(_record("chip-1", timestamp=0.0, phase_elapsed=0.0, delay=5e-9))
        log.append(_record("chip-2", timestamp=600.0, phase_elapsed=600.0, delay=6e-9))
        with pytest.raises(MeasurementError, match="chip-2"):
            fresh_delays_from_log(log)

    def test_later_time_zero_sample_anchors_resumed_log(self):
        # A log that starts at a *later* phase's time-zero reading is a
        # legal resume point: the earliest record per chip has
        # phase_elapsed exactly 0.0, so it anchors that chip's deltas.
        log = DataLog()
        log.append(_record("chip-1", timestamp=86400.0, phase_elapsed=0.0, delay=5.2e-9))
        log.append(_record("chip-1", timestamp=88200.0, phase_elapsed=1800.0, delay=5.1e-9))
        fresh = fresh_delays_from_log(log)
        assert fresh["chip-1"] == 5.2e-9

    def test_replayed_result_has_no_chips(self, campaign_result):
        replayed = result_from_log(campaign_result.log)
        assert set(replayed.fresh_delays) == set(campaign_result.fresh_delays)
