"""Chip independence: execution order never changes a campaign's results.

``run_table1_campaign`` runs each chip through its whole schedule before
the next one starts; the compose-your-own :class:`Campaign` API runs
every chip's baseline first and then the case sequences.  Because each
chip owns its RNG child streams, both orders must be *bit-identical*:
same records in the same merged order, same fresh delays, same physics
counters.  That independence is what would let chips run in parallel.
"""

import numpy as np
import pytest

from repro.lab.campaign import Campaign, run_table1_campaign
from repro.lab.schedule import CHIP_SEQUENCES, standard_case
from repro.obs import Tracer

#: Metrics only the runner records: a wall-clock gauge of the
#: ``campaign`` span and the quarantine tally of its resilience path.
RUNNER_ONLY_METRICS = {"campaign.sim_seconds_per_wall_second", "campaign.quarantines"}


def composed_campaign(seed, n_chips, tracer=None):
    """The Table 1 schedule driven through the Campaign class, phase-major."""
    campaign = Campaign(n_chips=n_chips, seed=seed, tracer=tracer)
    campaign.run_baseline()
    for chip_no, names in CHIP_SEQUENCES.items():
        if chip_no <= n_chips:
            for name in names:
                campaign.run_case(standard_case(name, chip_no))
    return campaign.result()


def snapshot_without_runner_metrics(tracer):
    return {
        name: value
        for name, value in tracer.metrics.snapshot().items()
        if name not in RUNNER_ONLY_METRICS
    }


@pytest.fixture(scope="module")
def composed_result():
    return composed_campaign(seed=123, n_chips=3)


@pytest.fixture(scope="module")
def runner_result():
    return run_table1_campaign(seed=123, n_chips=3)


class TestBitIdentity:
    def test_records_identical(self, composed_result, runner_result):
        composed = list(composed_result.log)
        runner = list(runner_result.log)
        assert len(composed) == len(runner)
        assert composed == runner  # frozen dataclasses: field-by-field equality

    def test_fresh_delays_identical(self, composed_result, runner_result):
        assert composed_result.fresh_delays == runner_result.fresh_delays

    def test_chip_state_identical(self, composed_result, runner_result):
        for chip_id, chip in composed_result.chips.items():
            other = runner_result.chips[chip_id]
            assert chip.delta_path_delay() == other.delta_path_delay()
            assert chip.elapsed == other.elapsed


class TestInstrumentedParallelRun:
    def test_counters_match_sequential(self):
        composed_tracer, runner_tracer = Tracer(), Tracer()
        composed_campaign(seed=7, n_chips=2, tracer=composed_tracer)
        run_table1_campaign(seed=7, n_chips=2, tracer=runner_tracer)
        assert snapshot_without_runner_metrics(
            composed_tracer
        ) == snapshot_without_runner_metrics(runner_tracer)

    def test_span_tree_is_consistent(self):
        tracer = Tracer()
        run_table1_campaign(seed=7, n_chips=2, tracer=tracer)
        campaign_spans = tracer.spans("campaign")
        assert len(campaign_spans) == 1
        root = campaign_spans[0]
        assert root.parent_id is None
        ids = {span.span_id for span in tracer.finished}
        assert len(ids) == len(tracer.finished)
        for span in tracer.finished:
            if span is not root:
                assert span.parent_id in ids
        assert {span.parent_id for span in tracer.spans("case")} == {root.span_id}

    def test_case_spans_match_composed_run(self):
        composed_tracer, runner_tracer = Tracer(), Tracer()
        composed_campaign(seed=7, n_chips=2, tracer=composed_tracer)
        run_table1_campaign(seed=7, n_chips=2, tracer=runner_tracer)
        assert len(runner_tracer.spans("case")) == len(composed_tracer.spans("case"))
        # One extra span: the runner's campaign root.
        assert len(runner_tracer.finished) == len(composed_tracer.finished) + 1


class TestValidation:
    def test_delay_change_series_usable(self, runner_result):
        times, shifts = runner_result.delay_change_series("AS110DC24", chip_no=2)
        assert times.size > 0
        assert np.all(np.isfinite(shifts))


class TestMergedHistogramsAndDerived:
    """Per-case histograms and derived gauges are order-independent too."""

    def test_histogram_payloads_match_sequential(self):
        composed_tracer, runner_tracer = Tracer(), Tracer()
        composed_campaign(seed=7, n_chips=2, tracer=composed_tracer)
        run_table1_campaign(seed=7, n_chips=2, tracer=runner_tracer)
        for name in ("profile.case.meas_per_s", "profile.case.trap_updates_per_s"):
            composed_hist = composed_tracer.metrics.get(name)
            runner_hist = runner_tracer.metrics.get(name)
            # observation counts and bucket shape are deterministic;
            # the observed rates themselves are wall-clock quantities
            assert runner_hist.count == composed_hist.count
            assert len(runner_hist.bucket_counts) == len(composed_hist.bucket_counts)
            assert runner_hist.count == sum(runner_hist.bucket_counts)

    def test_derived_gauge_reads_merged_counters(self):
        tracer = Tracer()
        run_table1_campaign(seed=7, n_chips=2, tracer=tracer)
        registry = tracer.metrics
        hits = registry.value("bti.rate_cache.hits")
        lookups = hits + registry.value("bti.rate_cache.misses")
        expected = hits / lookups if lookups else 0.0
        assert registry.value("bti.rate_cache.hit_rate") == expected
        # the memo is reused across the campaign despite temperature jitter
        assert registry.value("bti.rate_cache.hit_rate") > 0.3
