"""Fleet campaign driver: bit-identity, sharding, fidelity, collection.

The acceptance bar from the engine's design: on the 5-chip Table 1
configuration the exact-fidelity fleet is *bit-identical* to the
sequential :func:`~repro.lab.campaign.run_table1_campaign` — every
record field, every fresh delay, every sanitizer digest.  Sharding may
only change scheduling, never results; binned fidelity trades
bit-identity for scale and must stay within a small statistical band of
exact.  (The full 5-chip identity run lives in
``benchmarks/bench_fleet_campaign.py``; the tier-1 versions here use
smaller lots to stay fast.)
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ScheduleError
from repro.lab.campaign import run_table1_campaign
from repro.lab.fleet import (
    AUTO_EXACT_LIMIT,
    fleet_chip_no,
    run_fleet_campaign,
)


class TestExactBitIdentity:
    def test_two_chip_fleet_matches_sequential(self):
        sequential = run_table1_campaign(seed=1, n_chips=2, sanitize=True)
        fleet = run_fleet_campaign(seed=1, n_chips=2, fidelity="exact",
                                   sanitize=True)
        assert list(fleet.log) == list(sequential.log)
        assert fleet.fresh_delays == sequential.fresh_delays
        assert fleet.final_delays == {
            chip_id: chip.path_delay() for chip_id, chip in sequential.chips.items()
        }
        assert fleet.state_hashes == sequential.state_hashes
        assert fleet.complete
        assert fleet.total_measurements == len(sequential.log)

    def test_auto_picks_exact_for_small_lots(self):
        result = run_fleet_campaign(seed=0, n_chips=2, fidelity="auto")
        assert result.fidelity == "exact"
        assert AUTO_EXACT_LIMIT >= 5  # the paper bench must stay exact

    def test_summaries_cover_every_chip_in_order(self):
        result = run_fleet_campaign(seed=0, n_chips=7, fidelity="binned")
        assert [s.chip_id for s in result.summaries] == [
            f"chip-{i + 1}" for i in range(7)
        ]
        assert [s.chip_no for s in result.summaries] == [
            fleet_chip_no(i) for i in range(7)
        ]
        for summary in result.summaries:
            assert summary.measurements > 0
            assert summary.fresh_frequency > 0


class TestSharding:
    def test_sharded_run_bit_identical_to_sequential_fleet(self):
        base = run_fleet_campaign(seed=2, n_chips=6, fidelity="binned",
                                  sanitize=True)
        sharded = run_fleet_campaign(seed=2, n_chips=6, fidelity="binned",
                                     sanitize=True, shards=3)
        assert list(base.log) == list(sharded.log)
        assert base.state_hashes == sharded.state_hashes
        assert base.fresh_delays == sharded.fresh_delays
        assert base.final_delays == sharded.final_delays
        assert list(base.final_delays) == [f"chip-{i + 1}" for i in range(6)]
        assert [s.case_end_frequency for s in base.summaries] == [
            s.case_end_frequency for s in sharded.summaries
        ]
        assert sharded.shards == 3

    def test_more_shards_than_chips_is_fine(self):
        result = run_fleet_campaign(seed=0, n_chips=2, fidelity="binned",
                                    shards=5)
        assert len(result.summaries) == 2


class TestBinnedFidelity:
    def test_binned_tracks_exact_degradation(self):
        exact = run_fleet_campaign(seed=0, n_chips=5, fidelity="exact")
        binned = run_fleet_campaign(seed=0, n_chips=5, fidelity="binned")
        for a, b in zip(exact.summaries, binned.summaries):
            assert a.stress_degradation_pct == pytest.approx(
                b.stress_degradation_pct, abs=0.2
            )
            assert a.residual_degradation_pct == pytest.approx(
                b.residual_degradation_pct, abs=0.2
            )

    def test_batching_does_not_change_results(self):
        whole = run_fleet_campaign(seed=0, n_chips=6, fidelity="binned")
        batched = run_fleet_campaign(seed=0, n_chips=6, fidelity="binned",
                                     batch_size=2)
        assert [s.case_end_frequency for s in whole.summaries] == [
            s.case_end_frequency for s in batched.summaries
        ]


class TestCollectionModes:
    def test_summary_mode_trims_records_but_not_statistics(self):
        full = run_fleet_campaign(seed=0, n_chips=2, fidelity="exact",
                                  sanitize=True)
        trimmed = run_fleet_campaign(seed=0, n_chips=2, fidelity="exact",
                                     sanitize=True, collect="summary")
        assert len(trimmed.log) < len(full.log)
        assert trimmed.total_measurements == full.total_measurements
        # Hashes are fed the full stream before trimming.
        assert trimmed.state_hashes == full.state_hashes
        assert [s.case_end_frequency for s in trimmed.summaries] == [
            s.case_end_frequency for s in full.summaries
        ]
        # First and last record of every (chip, phase) survive the trim.
        kept = {(r.chip_id, r.case, r.phase) for r in trimmed.log}
        assert kept == {(r.chip_id, r.case, r.phase) for r in full.log}

    def test_rejects_bad_arguments(self):
        with pytest.raises(ScheduleError):
            run_fleet_campaign(n_chips=0)
        with pytest.raises(ScheduleError):
            run_fleet_campaign(n_chips=2, shards=0)
        with pytest.raises(ConfigurationError):
            run_fleet_campaign(n_chips=2, collect="everything")
        with pytest.raises(ConfigurationError):
            run_fleet_campaign(n_chips=2, fidelity="approximate")

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_rejects_batch_size_below_one(self, batch_size):
        with pytest.raises(ConfigurationError, match="batch_size"):
            run_fleet_campaign(n_chips=2, batch_size=batch_size)
