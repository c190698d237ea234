"""Sweep runner: graceful degradation, isolation, resume bit-identity.

The fast tests here run tiny grids inline with lifetime projection off;
the process-isolation crash/timeout paths use one-cell grids so forks
stay cheap, and the overlapping-cell tests run two cells at a time
whatever the host's CPU count.  The 24-cell acceptance drill lives in
``tests/integration/test_sweep_dependability.py``.
"""

import json

import pytest

from repro.dependability import (
    LifetimeSettings,
    SweepRunner,
    SweepSpec,
    SweepStore,
    runner,
)
from repro.errors import ConfigurationError, SweepError
from repro.lab.resilience import IsolatedJobs
from repro.obs import Tracer
from repro.obs.query import TraceModel, diff_traces


def tiny_spec(**overrides) -> SweepSpec:
    defaults = dict(
        name="tiny",
        n_chips=1,
        alphas=(1.0, 4.0),
        seeds=(3,),
        lifetime=LifetimeSettings(enabled=False),
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


@pytest.fixture
def two_cpus(monkeypatch):
    """Run process-isolated cells two at a time on any host."""
    monkeypatch.setattr(runner, "usable_cpus", lambda: 2)


def overlapping(spans) -> bool:
    """True when some two spans' wall-clock intervals overlap."""
    spans = sorted(spans, key=lambda span: span.start)
    return any(
        later.start < earlier.start + earlier.duration
        for earlier, later in zip(spans, spans[1:])
    )


class TestRunnerConfig:
    def test_bad_timeout_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="timeout_s"):
            SweepRunner(tiny_spec(), tmp_path, timeout_s=0.0)

    def test_bad_isolation_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="isolation"):
            SweepRunner(tiny_spec(), tmp_path, isolation="thread")

    def test_bad_inject_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="inject mode"):
            SweepRunner(tiny_spec(), tmp_path, inject={"cell-0000": "explode"})


class TestInlineRun:
    def test_all_cells_complete(self, tmp_path):
        result = SweepRunner(tiny_spec(), tmp_path, isolation="inline").run()
        assert result.complete
        assert len(result.outcomes) == 2
        assert all(outcome.attempts == 1 for outcome in result.outcomes)
        assert all(outcome.digest for outcome in result.outcomes)

    def test_stats_digest_excludes_wall_clock(self, tmp_path):
        first = SweepRunner(
            tiny_spec(), tmp_path / "a", isolation="inline"
        ).run()
        second = SweepRunner(
            tiny_spec(), tmp_path / "b", isolation="inline"
        ).run()
        assert [o.digest for o in first.outcomes] == [
            o.digest for o in second.outcomes
        ]

    def test_injected_crash_degrades_not_raises(self, tmp_path):
        tracer = Tracer()
        result = SweepRunner(
            tiny_spec(),
            tmp_path,
            isolation="inline",
            cell_retries=2,
            inject={"cell-0000": "crash"},
            tracer=tracer,
        ).run()
        crashed = result.outcomes[0]
        assert crashed.status == "failed"
        assert crashed.attempts == 2
        assert "injected crash" in crashed.error
        assert result.outcomes[1].ok
        assert tracer.metrics.value("sweep.cell_failures") == 1.0
        assert tracer.metrics.value("sweep.cell_retries") == 1.0

    def test_crash_once_recovers_on_retry(self, tmp_path):
        result = SweepRunner(
            tiny_spec(),
            tmp_path,
            isolation="inline",
            cell_retries=2,
            inject={"cell-0000": "crash-once"},
        ).run()
        assert result.complete
        assert result.outcomes[0].attempts == 2

    def test_inline_hang_refuses(self, tmp_path):
        result = SweepRunner(
            tiny_spec(),
            tmp_path,
            isolation="inline",
            cell_retries=1,
            inject={"cell-0000": "hang"},
        ).run()
        assert "inline isolation cannot" in result.outcomes[0].error


class TestProcessIsolation:
    def test_sigkilled_child_is_recorded(self, tmp_path):
        spec = tiny_spec(alphas=(1.0,))
        result = SweepRunner(
            spec,
            tmp_path,
            isolation="process",
            cell_retries=1,
            inject={"cell-0000": "crash"},
        ).run()
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert "worker died" in outcome.error

    def test_hang_times_out(self, tmp_path):
        spec = tiny_spec(alphas=(1.0,))
        tracer = Tracer()
        result = SweepRunner(
            spec,
            tmp_path,
            isolation="process",
            timeout_s=1.5,
            cell_retries=1,
            inject={"cell-0000": "hang"},
            tracer=tracer,
        ).run()
        outcome = result.outcomes[0]
        assert outcome.status == "timeout"
        assert "wall-clock budget" in outcome.error
        assert tracer.metrics.value("sweep.cell_timeouts") == 1.0

    def test_cells_at_once(self, tmp_path, two_cpus):
        spec = tiny_spec()
        assert SweepRunner(spec, tmp_path).cells_at_once(12) == 2
        assert SweepRunner(spec, tmp_path).cells_at_once(1) == 1
        assert SweepRunner(spec, tmp_path, isolation="inline").cells_at_once(12) == 1

    def test_process_digests_match_inline(self, tmp_path):
        spec = tiny_spec(alphas=(1.0,))
        inline = SweepRunner(spec, tmp_path / "i", isolation="inline").run()
        forked = SweepRunner(spec, tmp_path / "p", isolation="process").run()
        assert [o.digest for o in inline.outcomes] == [
            o.digest for o in forked.outcomes
        ]


class TestFinalFailures:
    @pytest.mark.parametrize("isolation", ["inline", "process"])
    def test_model_failure_is_final_at_its_first_attempt(self, tmp_path, isolation):
        # Raise-mode cells under certain upsets fail with the same
        # PhysicsViolationError on every attempt; cell-0001 first crashes.
        spec = tiny_spec(fault_rates=(24.0,), upset_probs=(1.0,), guard_modes=("raise",))
        tracer = Tracer()
        result = SweepRunner(
            spec,
            tmp_path,
            isolation=isolation,
            cell_retries=3,
            inject={"cell-0001": "crash-once"},
            tracer=tracer,
        ).run()
        assert [(o.status, o.attempts) for o in result.outcomes] == [
            ("failed", 1), ("failed", 2)
        ]
        for outcome in result.outcomes:
            assert outcome.error.startswith("PhysicsViolationError"), outcome.error
        assert tracer.metrics.value("sweep.cell_retries") == 1.0


class TestOverlappingCells:
    def test_overlapping_cells_match_inline(self, tmp_path, two_cpus):
        spec = tiny_spec(alphas=(1.0, 2.0, 4.0), seeds=(3, 5))
        inject = {"cell-0001": "crash-once", "cell-0003": "crash"}
        runs = {
            isolation: SweepRunner(
                spec, tmp_path / isolation, isolation=isolation, inject=inject
            ).run()
            for isolation in ("inline", "process")
        }
        assert len(runs["process"].outcomes) == 6
        for isolation, result in runs.items():
            assert [o.cell_id for o in result.outcomes] == [c.cell_id for c in result.cells]
            by_id = {o.cell_id: o for o in result.outcomes}
            assert by_id["cell-0001"].ok and by_id["cell-0001"].attempts == 2, isolation
            assert by_id["cell-0003"].status == "failed", isolation
        assert [(o.status, o.attempts, o.digest) for o in runs["process"].outcomes] == [
            (o.status, o.attempts, o.digest) for o in runs["inline"].outcomes
        ]

    def test_one_worker_per_cpu_plus_one_per_dead_attempt(
        self, tmp_path, two_cpus, monkeypatch
    ):
        forks = []
        fork = IsolatedJobs._fork
        monkeypatch.setattr(
            IsolatedJobs, "_fork",
            lambda jobs, key, job: forks.append(key) or fork(jobs, key, job),
        )
        result = SweepRunner(
            tiny_spec(alphas=(1.0, 2.0, 4.0), seeds=(3, 5)),
            tmp_path,
            inject={"cell-0001": "crash-once"},
        ).run()
        assert result.complete
        assert len(forks) == 3  # two workers, and one replacing the killed one

    def test_cells_finish_while_a_hung_cell_is_in_flight(self, tmp_path, two_cpus):
        cells = tmp_path / "cells"
        lines = []

        class Stored:
            """Progress sink noting which cells were stored at each line."""

            def line(self, text):
                lines.append((text.split()[0], {p.stem for p in cells.glob("*.json")}))

        result = SweepRunner(
            tiny_spec(alphas=(1.0, 2.0, 4.0)),
            tmp_path,
            isolation="process",
            timeout_s=2.0,
            cell_retries=1,
            inject={"cell-0000": "hang"},
            progress=Stored(),
        ).run()
        assert [o.status for o in result.outcomes] == ["timeout", "ok", "ok"]
        assert result.outcomes[0].wall_s >= 2.0
        assert [cell for cell, _ in lines] == ["cell-0001", "cell-0002", "cell-0000"]
        for cell, stored in lines[:2]:
            assert cell in stored and "cell-0000" not in stored


class TestResume:
    def test_resume_runs_only_unfinished_cells(self, tmp_path):
        spec = tiny_spec()
        first = SweepRunner(spec, tmp_path, isolation="inline").run()
        victim = first.outcomes[0]
        (tmp_path / "cells" / f"{victim.cell_id}.json").unlink()

        tracer = Tracer()
        resumed = SweepRunner.resume(
            tmp_path, isolation="inline", tracer=tracer
        )
        assert tracer.metrics.value("sweep.cells") == 1.0  # one cell re-ran
        assert [o.digest for o in resumed.outcomes] == [
            o.digest for o in first.outcomes
        ]

    def test_run_on_partial_directory_continues(self, tmp_path):
        spec = tiny_spec()
        SweepRunner(spec, tmp_path, isolation="inline").run()
        (tmp_path / "cells" / "cell-0001.json").unlink()
        again = SweepRunner(spec, tmp_path, isolation="inline").run()
        assert again.complete

    def test_resume_rejects_different_spec(self, tmp_path):
        SweepRunner(tiny_spec(), tmp_path, isolation="inline").run()
        other = tiny_spec(alphas=(2.0, 3.0))
        with pytest.raises(SweepError, match="does not match"):
            SweepRunner(other, tmp_path, isolation="inline").run(resume=True)
        with pytest.raises(SweepError, match="different spec"):
            SweepRunner(other, tmp_path, isolation="inline").run()

    def test_resume_needs_manifest(self, tmp_path):
        with pytest.raises(SweepError):
            SweepRunner.resume(tmp_path / "nowhere")


class TestStoreRobustness:
    def test_orphan_tmp_discarded_with_warning(self, tmp_path):
        SweepRunner(tiny_spec(), tmp_path, isolation="inline").run()
        orphan = tmp_path / "cells" / "cell-9999.json.tmp"
        orphan.write_text('{"torn":')
        with pytest.warns(RuntimeWarning, match="orphaned temp file"):
            store = SweepStore(tmp_path)
        assert not orphan.exists()
        assert len(store.load_cells()) == 2

    def test_corrupt_cell_file_is_skipped(self, tmp_path):
        SweepRunner(tiny_spec(), tmp_path, isolation="inline").run()
        (tmp_path / "cells" / "cell-0000.json").write_text("{not json")
        store = SweepStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="cell-0000"):
            cells = store.load_cells()
        assert set(cells) == {"cell-0001"}

    def test_manifest_is_valid_json(self, tmp_path):
        SweepRunner(tiny_spec(), tmp_path, isolation="inline").run()
        manifest = json.loads((tmp_path / "sweep.json").read_text())
        assert manifest["name"] == "tiny"
        assert manifest["n_cells"] == 2


class TestTraceParity:
    def test_traced_sweep_keeps_every_cell_campaign_inline_and_forked(
        self, tmp_path, two_cpus
    ):
        spec = tiny_spec(seeds=(3, 5))
        models = {}
        for isolation in ("inline", "process"):
            tracer = Tracer()
            SweepRunner(spec, tmp_path / isolation, isolation=isolation,
                        tracer=tracer).run()
            model = models[isolation] = TraceModel.from_tracer(tracer)
            cells = model.spans_named("sweep_cell")
            assert [cell.attrs["cell"] for cell in cells] == [
                f"cell-000{index}" for index in range(4)
            ], isolation
            for cell in cells:
                assert [child.name for child in cell.children] == ["campaign"], isolation
            assert overlapping(tracer.spans("sweep_cell")) == (isolation == "process")
        diff = diff_traces(models["inline"], models["process"])
        assert [row.key for row in diff.rows if row.category == "exact" and row.delta] == []
