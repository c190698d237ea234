"""Hot-path profile views of a trace: per-case throughput, phases, stacks.

Per-case throughput is sampled by the bench, which puts the ``samples``
and ``trap_updates`` counter deltas of each case on its span, and
derived when the trace is read (:meth:`TraceModel.throughput_table`).
"""

from repro.lab.campaign import run_table1_campaign
from repro.obs import Tracer
from repro.obs.query import CACHE_HIT_RATE, MEAS_PER_S, TRAP_UPDATES_PER_S, TraceModel
from repro.obs.tracer import NULL_TRACER


def _case(span_id, duration, samples, trap_updates, fleet=1):
    return {
        "type": "span", "name": "case", "span_id": span_id, "parent_id": None,
        "depth": 0, "start_s": 0.0, "duration_s": duration,
        "attrs": {"fleet": fleet, "samples": samples, "trap_updates": trap_updates},
    }


def _metric(name, value):
    return {"type": "metric", "name": name, "kind": "counter", "value": value}


def _rows(model):
    """Throughput-table rows as name -> (cases, mean, min, max) cells."""
    return {row[0]: row[1:] for row in model.throughput_table().rows}


class TestCaseThroughputSampler:
    def test_observes_counter_deltas_over_duration(self):
        rows = _rows(TraceModel.from_records([_case(1, 2.0, 30.0, 400.0)]))
        assert rows[MEAS_PER_S] == ["1", 15.0, 15.0, 15.0]  # 30 / 2
        assert rows[TRAP_UPDATES_PER_S] == ["1", 200.0, 200.0, 200.0]

    def test_lock_step_case_counts_each_chip(self):
        # 2 chips for 1 s sampled 40 times: two chip-cases at 20/s each,
        # next to one single-chip case at 5/s.
        model = TraceModel.from_records([_case(1, 1.0, 40.0, 0.0, fleet=2),
                                         _case(2, 1.0, 5.0, 0.0)])
        assert _rows(model)[MEAS_PER_S] == ["3", 15.0, 5.0, 20.0]

    def test_cache_hit_rate_reads_counters(self):
        model = TraceModel.from_records([
            _metric("bti.rate_cache.hits", 3.0), _metric("bti.rate_cache.misses", 1.0),
        ])
        assert _rows(model)[CACHE_HIT_RATE] == ["-", 75.0, "-", "-"]

    def test_zero_duration_span_is_skipped(self):
        rows = _rows(TraceModel.from_records([_case(1, 0.0, 3.0, 3.0)]))
        assert rows[MEAS_PER_S][0] == "0"

    def test_null_tracer_is_noop(self):
        run_table1_campaign(seed=0, n_chips=1)  # on the default null tracer
        assert NULL_TRACER.spans() == []
        assert len(NULL_TRACER.metrics) == 0


def _profiled_tracer():
    tracer = Tracer()
    with tracer.span("campaign"):
        with tracer.span("case", chip_id="chip-1", case="AS110AC24", fleet=1) as case:
            with tracer.span("phase", kind="stress", phase="AS110AC24") as span:
                span.set("sim_advanced", 3600.0)
            with tracer.span("phase", kind="recovery", phase="R20Z6") as span:
                span.set("sim_advanced", 1800.0)
            case.set("samples", 4.0)
            case.set("trap_updates", 5000.0)
    return tracer


class TestHotPathProfile:
    def test_phase_table_groups_by_label_and_kind(self):
        rendered = TraceModel.from_tracer(_profiled_tracer()).phase_table().render()
        assert "AS110AC24" in rendered
        assert "stress" in rendered
        assert "recovery" in rendered

    def test_collapsed_stacks_are_sorted_with_usec_values(self):
        lines = TraceModel.from_tracer(_profiled_tracer()).collapsed()
        assert lines == sorted(lines)
        values = []
        for line in lines:
            path, _, value = line.rpartition(" ")
            assert int(value) >= 0
            values.append(int(value))
        assert sum(values) > 0  # the tree as a whole carries real time
        assert any("phase:stress" in line for line in lines)

    def test_collapsed_is_deterministic_in_structure(self):
        paths_a = [line.rpartition(" ")[0] for line in
                   TraceModel.from_tracer(_profiled_tracer()).collapsed()]
        paths_b = [line.rpartition(" ")[0] for line in
                   TraceModel.from_tracer(_profiled_tracer()).collapsed()]
        assert paths_a == paths_b

    def test_throughput_table_reads_case_spans(self):
        rows = _rows(TraceModel.from_tracer(_profiled_tracer()))
        cases, mean, low, high = rows[MEAS_PER_S]
        assert cases == "1"
        assert 0.0 < low == mean == high
        assert CACHE_HIT_RATE in rows

    def test_throughput_table_handles_missing_metrics(self):
        rows = _rows(TraceModel([], {}))
        assert rows[MEAS_PER_S] == ["0", 0.0, 0.0, 0.0]  # row pinned even with no data
        assert rows[CACHE_HIT_RATE] == ["-", 0.0, "-", "-"]


class TestCampaignIntegration:
    def test_campaign_case_spans_carry_counter_deltas(self):
        tracer = Tracer()
        run_table1_campaign(seed=0, n_chips=1, tracer=tracer)
        cases = tracer.spans("case")
        assert len(cases) == 2  # baseline + AS110AC24
        # the deltas of the cases add up to the run's counters
        for attr, counter in (("samples", "lab.samples"), ("trap_updates", "bti.trap_updates")):
            assert all(span.attributes[attr] > 0.0 for span in cases)
            assert sum(span.attributes[attr] for span in cases) == tracer.metrics.value(counter)
        model = TraceModel.from_tracer(tracer)
        assert _rows(model)[MEAS_PER_S][0] == "2"
        assert any("measurement" in line for line in model.collapsed())
