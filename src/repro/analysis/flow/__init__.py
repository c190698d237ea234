"""Cross-module flow analysis: RNG stream ownership.

The per-file lint layer (:mod:`repro.analysis.lint`) checks what one AST
can prove; this package answers the questions that need the whole tree —
an import graph, an approximate call graph, and a data-flow pass over
them.  ``analyze_paths`` returns the same :class:`LintResult` the
engine does, so ``repro lint --deep`` shares the baseline, noqa and
reporting machinery unchanged.
"""

from repro.analysis.flow.analyzer import DEEP_RULE_IDS, analyze_paths, analyze_project
from repro.analysis.flow.callgraph import CallGraph, FunctionInfo
from repro.analysis.flow.project import Binding, ModuleInfo, Project
from repro.analysis.flow.rng_pass import run_rng_pass
from repro.analysis.flow.values import FunctionScope

__all__ = [
    "DEEP_RULE_IDS",
    "Binding",
    "CallGraph",
    "FunctionInfo",
    "FunctionScope",
    "ModuleInfo",
    "Project",
    "analyze_paths",
    "analyze_project",
    "run_rng_pass",
]
