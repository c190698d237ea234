"""The deep-analysis acceptance gate: this repo's tree is determinism-clean.

Mirrors ``tests/analysis/lint/test_self.py`` for the cross-module passes:
every RNG stream in ``src/`` is parameter-threaded and single-owner, and
no worker entry writes shared state outside the merge registry.  If this
fails, so will CI's ``repro lint --deep`` step.
"""

import shutil
from pathlib import Path

from repro.analysis.flow import DEEP_RULE_IDS, analyze_paths
from repro.analysis.lint import apply_baseline, load_baseline, write_baseline

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[3]


class TestRepositoryIsDeterminismClean:
    def test_src_has_no_deep_findings(self):
        result = analyze_paths([REPO_ROOT / "src"], root=REPO_ROOT)
        assert result.findings == [], "\n".join(str(f) for f in result.findings)

    def test_whole_tree_was_analyzed(self):
        result = analyze_paths([REPO_ROOT / "src"], root=REPO_ROOT)
        assert result.files > 90

    def test_every_finding_uses_a_deep_rule_id(self):
        result = analyze_paths([FIXTURES], root=REPO_ROOT)
        assert result.findings
        assert {f.rule_id for f in result.findings} <= set(DEEP_RULE_IDS)


class TestSharedSuppressionMachinery:
    def test_noqa_silences_deep_findings(self, tmp_path):
        source = (FIXTURES / "leaky_rng.py").read_text(encoding="utf-8")
        patched = []
        for line in source.splitlines():
            if "SHARED_STREAM = " in line:
                line += "  # repro: noqa[RPR201]"
            patched.append(line)
        target = tmp_path / "leaky_rng.py"
        target.write_text("\n".join(patched) + "\n", encoding="utf-8")

        result = analyze_paths([target], root=tmp_path)
        assert not any(
            f.rule_id == "RPR201" and "SHARED_STREAM" in f.message
            for f in result.findings
        )
        assert any(
            f.rule_id == "RPR201" and "SHARED_STREAM" in f.message
            for f in result.suppressed
        )

    def test_baseline_round_trip_absorbs_deep_findings(self, tmp_path):
        for name in ("leaky_rng.py", "mini_campaign.py", "mini_faults.py", "rig.py"):
            shutil.copy(FIXTURES / name, tmp_path / name)
        findings = analyze_paths([tmp_path], root=tmp_path).findings
        assert findings

        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, findings)
        diff = apply_baseline(findings, load_baseline(baseline_path))
        assert diff.new == []
        assert diff.stale == []
        assert len(diff.baselined) == len(findings)
