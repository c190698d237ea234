"""The deep-analysis entry point: project passes behind the lint API.

``analyze_paths`` is shaped exactly like
:func:`repro.analysis.lint.engine.lint_paths` — same ``LintResult``,
same noqa suppression, same repo-relative path space — so everything
downstream of the per-file engine (baselines, reporters, the CLI exit
code) works on deep findings unchanged.  ``repro lint --deep`` is just
the union of both results.
"""

from __future__ import annotations

from pathlib import Path
from dataclasses import replace
from typing import Sequence

from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.project import Project
from repro.analysis.flow.rng_pass import run_rng_pass
from repro.analysis.lint.engine import LintResult, _is_suppressed

#: Every rule id the flow pass can emit, for docs and tests.
DEEP_RULE_IDS = ("RPR201", "RPR202", "RPR203")


def analyze_project(project: Project) -> LintResult:
    """Run the flow pass over an already-loaded project."""
    raw = run_rng_pass(project, CallGraph.build(project))
    lines_by_path = {
        info.path: info.source_lines for info in project.modules.values()
    }
    result = LintResult(files=len(project))
    for finding in raw:
        if _is_suppressed(finding, lines_by_path.get(finding.path, [])):
            result.suppressed.append(replace(finding, suppressed=True))
        else:
            result.findings.append(finding)
    result.findings.sort(key=lambda f: (f.path, f.line, f.rule_id, f.message))
    result.suppressed.sort(key=lambda f: (f.path, f.line, f.rule_id, f.message))
    return result


def analyze_paths(
    paths: Sequence[str | Path], root: str | Path | None = None
) -> LintResult:
    """Deep-analyze files/directories, reporting paths relative to ``root``."""
    return analyze_project(Project.load(paths, root=root))
