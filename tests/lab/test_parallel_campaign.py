"""Chip independence: grouping never changes a campaign's results.

``run_table1_campaign`` runs its chips as one lock-step lot: the
baseline burns every chip in together, then each chip runs its case
sequence.  The composed run below drives every chip alone on a bench of
its own, chip after chip.  Because each chip owns its RNG child
streams, its rate memo and its guard, both must be *bit-identical*:
same records in the same merged order, same fresh delays, same physics
counters.  That independence is what lets chips share a lock-step span.
"""

import numpy as np
import pytest

from repro.fpga.chip import FpgaChip
from repro.lab.campaign import run_table1_campaign
from repro.lab.datalog import DataLog
from repro.lab.fleet import FleetBench, CampaignResult
from repro.lab.schedule import CHIP_SEQUENCES, baseline_phase, standard_case
from repro.obs import Tracer
from repro.obs.query import TraceModel

#: Metrics only the runner records: a wall-clock gauge of the
#: ``campaign`` span and the quarantine tally of its resilience path.
RUNNER_ONLY_METRICS = {"campaign.sim_seconds_per_wall_second", "campaign.quarantines"}


def composed_campaign(seed, n_chips, tracer=None):
    """The Table 1 schedule, each chip alone on its own one-chip bench."""
    tracer = tracer if tracer is not None else Tracer()
    master = np.random.default_rng(seed)
    chips, baselines, cases = {}, [], []
    for chip_no in range(1, n_chips + 1):
        chip_stream, bench_stream = master.spawn(2)
        chip = FpgaChip(
            f"chip-{chip_no}", seed=int(chip_stream.integers(2**31)), tracer=tracer
        )
        bench = FleetBench(chip._fleet, [bench_stream], tracer=tracer)
        logs = {0: []}
        bench.run_case([0], [f"BASELINE-{chip.chip_id}"], [baseline_phase()], logs)
        baselines.append(logs[0])
        logs = {0: []}
        for name in CHIP_SEQUENCES[chip_no]:
            case = standard_case(name, chip_no)
            bench.run_case([0], [case.name], case.phases, logs)
        cases.append(logs[0])
        chips[chip.chip_id] = chip
    log = DataLog()
    for records in baselines + cases:
        log.extend(records)
    return CampaignResult(
        log=log,
        fresh_delays={chip_id: chip.fresh_path_delay for chip_id, chip in chips.items()},
        final_delays={chip_id: chip.path_delay() for chip_id, chip in chips.items()},
    )


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
        assert composed_result.final_delays == runner_result.final_delays


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
        composed = TraceModel.from_tracer(composed_tracer)
        runner = TraceModel.from_tracer(runner_tracer)
        # A lock-step baseline opens one case span, one phase span and one
        # span per readout burst for the chips of its shard together; each
        # such span carries fleet=k and counts as k chips, so the
        # chip-weighted counts do not depend on how many shards ran.
        assert runner.aggregate()["case"].chips == composed.aggregate()["case"].chips
        # One extra span: the runner's campaign root.
        assert runner.chip_spans == composed.chip_spans + 1


class TestValidation:
    def test_delay_change_series_usable(self, runner_result):
        times, shifts = runner_result.delay_change_series("AS110DC24", chip_no=2)
        assert times.size > 0
        assert np.all(np.isfinite(shifts))

