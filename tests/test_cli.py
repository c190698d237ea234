"""Command-line interface."""

import pytest

from repro.cli import main
from repro.lab.datalog import DataLog
from repro.lab.resilience import usable_cpus
from repro.obs import load_trace
from repro.obs.query import TraceModel


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "FIG4" in out and "TAB4" in out

    def test_info(self, capsys):
        assert main(["info", "FIG4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "bench_fig4" in out

    def test_info_case_insensitive(self, capsys):
        assert main(["info", "tab5"]) == 0
        assert "Table 5" in capsys.readouterr().out

    def test_unknown_experiment_exit_code(self, capsys):
        assert main(["info", "FIG99"]) == 2
        assert "error" in capsys.readouterr().err

    def test_calibration(self, capsys):
        assert main(["calibration"]) == 0
        out = capsys.readouterr().out
        assert "ac_dc_ratio" in out

    def test_run_fig1(self, capsys):
        # FIG1 is model-only (no campaign) — fast enough for a unit test.
        assert main(["run", "FIG1"]) == 0

    def test_run_table4(self, capsys, campaign_result):
        # Reuses the session campaign cache (seed 0).
        assert main(["run", "TAB4", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "AR110N6" in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_experiments_report_to_stdout(self, capsys, campaign_result):
        # campaign_result warms the seed-0 cache the report reuses.
        assert main(["report", "--experiments"]) == 0
        out = capsys.readouterr().out
        assert "# Reproduction report" in out
        assert "TAB1" in out


class TestCampaignCli:
    """The campaign/stats subcommands with a one-chip bench (fast)."""

    def test_campaign_csv_roundtrip(self, tmp_path, capsys):
        from repro.lab.campaign import run_table1_campaign

        path = tmp_path / "log.csv"
        assert main(["campaign", "--chips", "1", "--quiet", "--csv", str(path)]) == 0
        out = capsys.readouterr().out
        assert "log written to" in out
        loaded = DataLog.read_csv(path)
        direct = run_table1_campaign(seed=0, n_chips=1)
        assert list(loaded) == list(direct.log)

    def test_campaign_trace_writes_nested_jsonl(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["campaign", "--chips", "1", "--quiet", "--trace", str(path)]) == 0
        assert "trace written to" in capsys.readouterr().out
        records = load_trace(path)
        (campaign,) = TraceModel.from_records(records).roots
        assert campaign.name == "campaign"
        cases = campaign.children
        assert {c.name for c in cases} == {"case"}
        phases = cases[-1].children
        assert {p.name for p in phases} == {"phase"}
        assert any(r["type"] == "metric" for r in records)

    def test_campaign_progress_lines_on_stderr(self, capsys):
        assert main(["campaign", "--chips", "1", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "AS110AC24" in captured.err
        assert "cases" in captured.err

    def test_campaign_quiet_suppresses_progress(self, capsys):
        assert main(["campaign", "--chips", "1", "--quiet"]) == 0
        assert capsys.readouterr().err == ""

    def test_campaign_guard_modes_run_clean(self, capsys):
        for mode in ("raise", "clamp", "off"):
            assert main(["campaign", "--chips", "1", "--quiet",
                         "--guard-mode", mode]) == 0
        capsys.readouterr()

    def test_campaign_guard_mode_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "--chips", "1", "--guard-mode", "maybe"])
        assert "invalid choice" in capsys.readouterr().err

    def test_lot_only_flags_need_fleet(self, capsys):
        for flag, value in (("--shard", "2"), ("--fidelity", "exact"),
                            ("--collect", "summary")):
            with pytest.raises(SystemExit) as excinfo:
                main(["campaign", "--chips", "1", "--quiet", flag, value])
            assert excinfo.value.code == 2
            assert f"{flag} only works with --fleet" in capsys.readouterr().err

    def test_fault_flags_need_a_fault_seed(self, capsys):
        for flag, value in (("--fault-rate", "2.0"), ("--dropout-prob", "1.0"),
                            ("--upset-prob", "0.5")):
            for command in ("campaign", "stats", "report"):
                with pytest.raises(SystemExit) as excinfo:
                    main([command, "--chips", "1", "--quiet", flag, value])
                assert excinfo.value.code == 2
                assert f"{flag} only works with --fault-seed" in capsys.readouterr().err

    def test_guard_budget_needs_clamp_mode(self, capsys):
        for extra in ([], ["--guard-mode", "raise"], ["--guard-mode", "off"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["campaign", "--chips", "1", "--quiet", "--guard-budget", "0", *extra])
            assert excinfo.value.code == 2
            assert "--guard-budget only works with --guard-mode clamp" in (
                capsys.readouterr().err
            )

    def test_fault_flags_take_effect_beside_a_fault_seed(self, capsys):
        assert main(["campaign", "--chips", "1", "--quiet", "--fault-seed", "5",
                     "--dropout-prob", "1.0", "--guard-mode", "clamp",
                     "--guard-budget", "0"]) == 0
        assert "quarantined:" in capsys.readouterr().out

    def test_fleet_takes_one_shard_per_usable_cpu_by_default(self, capsys):
        assert main(["campaign", "--fleet", "2", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert f"fidelity exact, {min(usable_cpus(), 2)} shard(s)" in out

    def test_fleet_honours_the_lot_flags(self, capsys):
        assert main(["campaign", "--fleet", "2", "--quiet", "--shard", "1",
                     "--fidelity", "binned", "--collect", "summary"]) == 0
        out = capsys.readouterr().out
        assert "fidelity binned, 1 shard(s)" in out

    def test_stats_prints_timing_and_metrics(self, capsys):
        assert main(["stats", "--chips", "1", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Per-span timing" in out
        assert "measurement" in out
        assert "ro.evaluations" in out
        assert "campaign.sim_seconds_per_wall_second" in out

    def test_stats_rolls_up_health_metric_families(self, capsys):
        assert main(["stats", "--chips", "1", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Metric rollup by family" in out
        # pinned families render even when the run had no such events
        assert "guard.violations" in out
        assert "lab.faults" in out
        assert "lab.sample_retries" in out
        assert "campaign.quarantines" in out
        assert "bti.rate_cache" in out

    def test_campaign_report_flag_writes_health_report(self, tmp_path, capsys):
        import json

        out_html = tmp_path / "health.html"
        assert main(["campaign", "--chips", "1", "--quiet",
                     "--report", str(out_html)]) == 0
        assert "health report written" in capsys.readouterr().out
        assert out_html.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")
        data = json.loads((tmp_path / "health.json").read_text())
        assert data["meta"]["n_chips"] == 1
        assert data["rate_cache"]["lookups"] > 0

    def test_campaign_report_to_a_json_path_fails_cleanly(self, tmp_path, capsys):
        # The HTML and its JSON sibling would be the same file.
        out = tmp_path / "out.json"
        assert main(["campaign", "--chips", "1", "--quiet",
                     "--report", str(out)]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "report written" not in captured.out
        assert not out.exists()


class TestTraceCli:
    """The `repro trace` subcommands over a real exported trace."""

    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("traces") / "t.jsonl"
        assert main(["campaign", "--chips", "1", "--quiet",
                     "--trace", str(path)]) == 0
        return path

    def test_summary(self, trace_file, capsys):
        assert main(["trace", "summary", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "span groups by self time" in out
        assert "Per-chip span rollup" in out
        assert "Metric rollup by family" in out

    def test_top_by_path(self, trace_file, capsys):
        assert main(["trace", "top", str(trace_file), "--group", "path"]) == 0
        assert "campaign;case;phase:stress" in capsys.readouterr().out

    def test_tree_depth_limit(self, trace_file, capsys):
        assert main(["trace", "tree", str(trace_file), "--max-depth", "1"]) == 0
        out = capsys.readouterr().out
        assert "campaign" in out
        assert "measurement" not in out

    def test_flame_output_is_collapsed_stacks(self, trace_file, capsys):
        assert main(["trace", "flame", str(trace_file)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        for line in lines:
            path, _, usec = line.rpartition(" ")
            assert ";" in path or path == "campaign"
            assert int(usec) > 0

    def test_profile(self, trace_file, capsys):
        assert main(["trace", "profile", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "Per-phase self time" in out
        assert "profile.case.meas_per_s" in out

    def test_diff_same_seed_zero_significant(self, trace_file, tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        assert main(["campaign", "--chips", "1", "--quiet",
                     "--trace", str(other)]) == 0
        assert main(["trace", "diff", str(trace_file), str(other)]) == 0
        assert "significant: 0" in capsys.readouterr().out

    def test_diff_strict_gates_on_structural_change(self, trace_file, tmp_path,
                                                    capsys):
        import json

        mutated = tmp_path / "mutated.jsonl"
        with open(trace_file, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        for record in records:
            if record["type"] == "metric" and record["name"] == "lab.samples":
                record["value"] += 1
        with open(mutated, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        assert main(["trace", "diff", str(trace_file), str(mutated),
                     "--strict"]) == 1
        assert "lab.samples" in capsys.readouterr().out


class TestReportCli:
    def test_report_writes_html_and_json(self, tmp_path, capsys):
        import json

        out_html = tmp_path / "r.html"
        assert main(["report", "--chips", "1", "--quiet",
                     "--out", str(out_html)]) == 0
        assert "health report written" in capsys.readouterr().out
        html = out_html.read_text(encoding="utf-8")
        assert "<svg" in html
        assert "<script" not in html
        data = json.loads((tmp_path / "r.json").read_text())
        assert sorted(data) == ["chips", "guard_violations", "meta",
                                "quarantined", "rate_cache", "resilience"]


class TestLintCli:
    """The `repro lint` subcommand against fixture trees."""

    def _dirty_tree(self, tmp_path):
        tree = tmp_path / "pkg"
        tree.mkdir()
        (tree / "dirty.py").write_text("d = 3600.0\n")
        return tree

    def test_findings_gate_with_exit_1(self, tmp_path, capsys):
        tree = self._dirty_tree(tmp_path)
        assert main(["lint", str(tree), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "RPR001" in out and "SECONDS_PER_HOUR" in out

    def test_clean_tree_exits_0(self, tmp_path, capsys):
        tree = tmp_path / "pkg"
        tree.mkdir()
        (tree / "clean.py").write_text("x = 1\n")
        assert main(["lint", str(tree), "--no-baseline"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        import json

        tree = self._dirty_tree(tmp_path)
        assert main(["lint", str(tree), "--no-baseline", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "RPR001"

    def test_write_then_apply_baseline(self, tmp_path, capsys):
        tree = self._dirty_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(tree), "--write-baseline",
                     "--baseline", str(baseline)]) == 0
        assert "1 entries" in capsys.readouterr().out
        assert main(["lint", str(tree), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_repo_lints_clean_end_to_end(self, capsys):
        # The acceptance criterion, through the real CLI entry point.
        assert main(["lint"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_experiments_validation_runs_clean_and_fast(self, capsys):
        assert main(["lint", "--experiments"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_malformed_baseline_is_a_repro_error(self, tmp_path, capsys):
        tree = self._dirty_tree(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["lint", str(tree), "--baseline", str(bad)]) == 2
        assert "error" in capsys.readouterr().err


class TestDeepLintCli:
    """`repro lint --deep`: cross-module passes through the CLI."""

    FIXTURES = "tests/analysis/flow/fixtures"

    def test_repo_is_deep_clean_end_to_end(self, capsys):
        assert main(["lint", "--deep"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_deep_surfaces_fixture_violations(self, capsys):
        code = main(["lint", self.FIXTURES, "--deep", "--no-baseline"])
        assert code == 1
        out = capsys.readouterr().out
        assert "RPR201" in out
        assert "RPR202" in out
        assert "RPR203" in out

    def test_shallow_run_misses_cross_module_findings(self, capsys):
        # The same tree without --deep: the violations are invisible to
        # single-file lint, which is the point of the deep pass.
        assert main(["lint", self.FIXTURES, "--no-baseline"]) == 0
        assert "RPR2" not in capsys.readouterr().out

    def test_stale_baseline_warns_then_prunes(self, tmp_path, capsys):
        tree = tmp_path / "pkg"
        tree.mkdir()
        target = tree / "dirty.py"
        target.write_text("d = 3600.0\n")
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(tree), "--write-baseline",
                     "--baseline", str(baseline)]) == 0
        capsys.readouterr()

        target.write_text("x = 1\n")  # the finding is fixed; entry goes stale
        assert main(["lint", str(tree), "--baseline", str(baseline)]) == 0
        warned = capsys.readouterr().out
        assert "stale" in warned
        assert "--prune-baseline" in warned

        assert main(["lint", str(tree), "--baseline", str(baseline),
                     "--prune-baseline"]) == 0
        pruned = capsys.readouterr().out
        assert "pruned 1 stale entry" in pruned

        assert main(["lint", str(tree), "--baseline", str(baseline)]) == 0
        assert "stale" not in capsys.readouterr().out


class TestPipedLintOutput:
    """`repro lint | head` must exit cleanly when the reader hangs up."""

    def test_broken_pipe_is_not_a_traceback(self, tmp_path):
        import os
        import subprocess
        import sys

        tree = tmp_path / "pkg"
        tree.mkdir()
        (tree / "dirty.py").write_text("d = 3600.0\n" * 50)

        read_end, write_end = os.pipe()
        os.close(read_end)  # guarantees EPIPE on the first large write
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "lint", str(tree),
                 "--no-baseline"],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
            )
        finally:
            os.close(write_end)
        assert b"Traceback" not in proc.stderr
        assert b"BrokenPipeError" not in proc.stderr


class TestSanitizerCli:
    """`repro campaign --sanitize` and the hash-aware trace diff."""

    def test_campaign_sanitize_prints_final_hashes(self, capsys):
        assert main(["campaign", "--chips", "2", "--quiet",
                     "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "sanitizer: 5 phase hashes" in out
        assert "chip-1=" in out and "chip-2=" in out

    def test_sanitized_traces_diff_clean(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert main(["campaign", "--chips", "2", "--quiet",
                         "--sanitize", "--trace", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "diff", str(a), str(b), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "all 5 phase digests match" in out

    def test_checkpointed_sanitized_trace_matches_plain(self, tmp_path, capsys):
        plain, checkpointed = tmp_path / "plain.jsonl", tmp_path / "ckpt.jsonl"
        assert main(["campaign", "--chips", "2", "--quiet",
                     "--sanitize", "--trace", str(plain)]) == 0
        assert main(["campaign", "--chips", "2", "--quiet",
                     "--checkpoint", str(tmp_path / "ck"),
                     "--sanitize", "--trace", str(checkpointed)]) == 0
        capsys.readouterr()
        assert main(["trace", "diff", str(plain), str(checkpointed), "--strict"]) == 0
        assert "all 5 phase digests match" in capsys.readouterr().out


class TestSweepCli:
    @staticmethod
    def spec_file(tmp_path, **overrides):
        import json

        from repro.dependability import LifetimeSettings, SweepSpec

        defaults = dict(
            name="cli-sweep",
            n_chips=1,
            alphas=(1.0, 4.0),
            seeds=(3,),
            lifetime=LifetimeSettings(enabled=False),
        )
        defaults.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SweepSpec(**defaults).to_dict()))
        return str(path)

    def test_init_prints_digest(self, tmp_path, capsys):
        spec = self.spec_file(tmp_path)
        sweep_dir = str(tmp_path / "sweep")
        assert main(["sweep", "init", spec, "--dir", sweep_dir]) == 0
        out = capsys.readouterr().out
        assert "2 cells" in out and "digest" in out
        assert (tmp_path / "sweep" / "sweep.json").exists()

    def test_init_rejects_invalid_spec(self, tmp_path, capsys):
        spec = self.spec_file(tmp_path, alphas=(0.0,))
        assert main(["sweep", "init", spec, "--dir", str(tmp_path / "s")]) == 1
        assert "RPR106" in capsys.readouterr().err

    def test_run_resume_report_lifecycle(self, tmp_path, capsys):
        spec = self.spec_file(tmp_path)
        sweep_dir = str(tmp_path / "sweep")
        run_args = ["--dir", sweep_dir, "--isolation", "inline", "--quiet"]

        assert main(["sweep", "run", spec, *run_args]) == 0
        out = capsys.readouterr().out
        assert "inline isolation, 1 cell at a time" in out
        assert "2/2 cells completed" in out
        assert len(list((tmp_path / "sweep" / "cells").glob("*.json"))) == 2

        assert main(["sweep", "resume", *run_args]) == 0
        assert "2/2 cells completed" in capsys.readouterr().out

        report = tmp_path / "sweep.html"
        assert main(["sweep", "report", "--dir", sweep_dir,
                     "--out", str(report)]) == 0
        capsys.readouterr()
        assert report.exists()
        assert report.with_suffix(".json").exists()

    def test_run_with_report_flag(self, tmp_path, capsys):
        spec = self.spec_file(tmp_path)
        report = tmp_path / "dep.html"
        assert main(["sweep", "run", spec, "--dir", str(tmp_path / "s"),
                     "--isolation", "inline", "--quiet",
                     "--report", str(report)]) == 0
        capsys.readouterr()
        assert report.exists()

    def test_missing_spec_file_is_a_config_error(self, tmp_path, capsys):
        assert main(["sweep", "run", str(tmp_path / "nope.json"),
                     "--dir", str(tmp_path / "s")]) == 2
        assert "cannot read sweep spec" in capsys.readouterr().err

    def test_report_without_sweep_directory_fails(self, tmp_path, capsys):
        assert main(["sweep", "report", "--dir", str(tmp_path / "empty")]) == 2
        assert "error:" in capsys.readouterr().err
