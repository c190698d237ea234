"""End-to-end telemetry of the instrumented hot paths.

Runs small-but-real workloads (a one-chip campaign, a short multicore
simulation, one experiment) under an in-memory tracer and checks the span
hierarchy and counters the JSONL trace promises.
"""

import pytest

from repro.experiments.registry import run_experiment
from repro.lab.campaign import run_table1_campaign
from repro.lab.faults import FaultEvent, FaultKind, FaultPlan
from repro.multicore import (
    CircadianScheduler,
    ConstantWorkload,
    InstrumentedScheduler,
    MulticoreSystem,
)
from repro.obs import JsonlExporter, ProgressReporter, Tracer, load_trace
from repro.obs.query import TraceModel
from repro.units import hours


@pytest.fixture(scope="module")
def traced_campaign(tmp_path_factory):
    """One-chip Table-1 campaign under a tracer with a JSONL exporter."""
    path = tmp_path_factory.mktemp("obs") / "trace.jsonl"
    tracer = Tracer(exporter=JsonlExporter(path))
    result = run_table1_campaign(seed=0, n_chips=1, tracer=tracer)
    tracer.close()
    return tracer, result, path


class TestCampaignSpans:
    def test_span_hierarchy_campaign_case_phase_measurement(self, traced_campaign):
        tracer, __, __ = traced_campaign
        (campaign,) = TraceModel.from_tracer(tracer).roots
        assert campaign.name == "campaign"
        cases = campaign.children
        assert cases and all(span.name == "case" for span in cases)
        phases = cases[-1].children
        assert phases and all(span.name == "phase" for span in phases)
        measurements = phases[0].children
        assert measurements
        assert all(span.name == "measurement" for span in measurements)

    def test_case_attributes(self, traced_campaign):
        tracer, __, __ = traced_campaign
        names = {span.attributes["case"] for span in tracer.spans("case")}
        assert "BASELINE-chip-1" in names
        assert "AS110AC24" in names
        assert all(
            span.attributes["chip_id"] == "chip-1" for span in tracer.spans("case")
        )

    def test_phase_attributes_capture_conditions(self, traced_campaign):
        tracer, __, __ = traced_campaign
        stress = [
            span
            for span in tracer.spans("phase")
            if span.attributes["case"] == "AS110AC24"
        ]
        assert stress
        assert stress[0].attributes["kind"] == "stress"
        assert stress[0].attributes["temperature_c"] == 110.0
        assert stress[0].attributes["supply_voltage"] == 1.2

    def test_simulated_time_advanced_recorded(self, traced_campaign):
        tracer, __, __ = traced_campaign
        campaign = tracer.spans("campaign")[0]
        # Baseline 2 h + 24 h stress + sampling overheads: > 26 h of
        # simulated silicon time must be attributed to the root span.
        assert campaign.sim_advanced > 26 * 3600.0
        case_total = sum(span.sim_advanced for span in tracer.spans("case"))
        assert case_total == pytest.approx(campaign.sim_advanced)

    def test_counters_match_log(self, traced_campaign):
        tracer, result, __ = traced_campaign
        metrics = tracer.metrics
        assert metrics.value("datalog.records") == len(result.log)
        assert metrics.value("lab.samples") == len(result.log)
        # Three averaged reads per sample.
        assert metrics.value("ro.evaluations") == 3 * len(result.log)
        assert metrics.value("campaign.cases") == len(tracer.spans("case"))
        assert metrics.value("bti.trap_updates") > 0
        assert metrics.value("campaign.sim_seconds_per_wall_second") > 0

    def test_jsonl_trace_mirrors_memory(self, traced_campaign):
        tracer, __, path = traced_campaign
        records = load_trace(path)
        spans = [r for r in records if r["type"] == "span"]
        metrics = {r["name"]: r["value"] for r in records if r["type"] == "metric"}
        assert len(spans) == len(tracer.finished)
        assert metrics == tracer.metrics.snapshot()
        model = TraceModel.from_records(records)
        assert [root.name for root in model.roots] == ["campaign"]

    def test_progress_lines_emitted(self):
        import io

        buffer = io.StringIO()
        reporter = ProgressReporter(stream=buffer)
        run_table1_campaign(seed=0, n_chips=1, progress=reporter)
        out = buffer.getvalue()
        assert "baseline burn-in done" in out
        assert "AS110AC24" in out
        assert "(1/1 cases" in out

    def test_progress_reports_retries_and_quarantine(self):
        import io

        plan = FaultPlan([
            FaultEvent(FaultKind.DROPPED_READOUT, "chip-1", start=hours(3.0)),
            FaultEvent(FaultKind.CHIP_DROPOUT, "chip-2", start=hours(20.0)),
        ])
        buffer = io.StringIO()
        run_table1_campaign(
            seed=32, n_chips=2, faults=plan, progress=ProgressReporter(stream=buffer)
        )
        out = buffer.getvalue()
        assert "chip-1   AS110AC24  done  (1/3 cases, 0/2 chips, 1 retries, 0 quarantined)" in out
        assert "chip-2   QUARANTINED during " in out
        assert "stopped responding" in out

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_each_case_line_prints_once_at_any_shard_count(self, cpus, monkeypatch):
        # On several CPUs the shards record their lines and the parent
        # replays them: every case once, counted 1..N, with the run's
        # retry total on the last line.
        import io
        import re

        import repro.lab.fleet as fleet

        monkeypatch.setattr(fleet, "usable_cpus", lambda: cpus)
        plan = FaultPlan([FaultEvent(FaultKind.DROPPED_READOUT, "chip-3", start=hours(3.0))])
        buffer = io.StringIO()
        result = run_table1_campaign(
            seed=32, n_chips=3, faults=plan, progress=ProgressReporter(stream=buffer)
        )
        assert result.shards == cpus
        lines = [line.split("] ", 1)[1] for line in buffer.getvalue().splitlines()]
        done = [re.match(r"(chip-\d) +(\S+) +done  \((\d+)/5 cases", line) for line in lines]
        cases = [(match[1], match[2]) for match in done if match]
        assert sorted(cases) == [
            ("chip-1", "AS110AC24"), ("chip-2", "AS110DC24"), ("chip-2", "R20Z6"),
            ("chip-3", "AR20N6"), ("chip-3", "AS110DC24"),
        ]
        assert [int(match[3]) for match in done if match] == [1, 2, 3, 4, 5]
        assert sum("baseline burn-in done" in line for line in lines) == 3
        assert lines[-1].endswith("done  (5/5 cases, 2/3 chips, 1 retries, 0 quarantined)")


class TestMulticoreTelemetry:
    def test_run_span_and_counters(self):
        tracer = Tracer()
        system = MulticoreSystem(seed=1, tracer=tracer)
        scheduler = InstrumentedScheduler(CircadianScheduler(), tracer=tracer)
        history = system.run(scheduler, ConstantWorkload(6), n_epochs=8)
        assert history.n_epochs == 8
        run_spans = tracer.spans("multicore.run")
        assert len(run_spans) == 1
        assert run_spans[0].attributes["scheduler"] == "InstrumentedScheduler"
        assert run_spans[0].sim_advanced == pytest.approx(8 * 3600.0)
        assert tracer.metrics.value("multicore.epochs") == 8
        assert tracer.metrics.value("multicore.core_steps") == 8 * system.n_cores
        assert tracer.metrics.value("multicore.decisions") == 8
        assert tracer.metrics.value("multicore.decide_seconds") > 0

    def test_instrumented_scheduler_preserves_decisions(self):
        plain = CircadianScheduler()
        wrapped = InstrumentedScheduler(CircadianScheduler(), tracer=Tracer())
        system = MulticoreSystem(seed=2)
        import numpy as np

        aging = np.zeros(system.n_cores)
        assert wrapped.decide(3, 5, aging, system.grid) == plain.decide(
            3, 5, aging, system.grid
        )


class TestExperimentTelemetry:
    def test_run_experiment_spans_and_counter(self):
        tracer = Tracer()
        run_experiment("FIG1", tracer=tracer)
        spans = tracer.spans("experiment")
        assert len(spans) == 1
        assert spans[0].attributes["exp_id"] == "FIG1"
        assert tracer.metrics.value("experiments.runs") == 1
