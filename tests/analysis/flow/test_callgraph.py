"""Function and method indexing of the project call graph."""

from pathlib import Path

import pytest

from repro.analysis.flow import CallGraph, Project

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[3]


@pytest.fixture(scope="module")
def fixture_graph():
    project = Project.load([FIXTURES], root=REPO_ROOT)
    return project, CallGraph.build(project)


class TestCallGraph:
    def test_indexes_functions_and_nested_defs(self, fixture_graph):
        _, graph = fixture_graph
        assert "call_shapes.report" in graph.functions
        assert "call_shapes.collect" in graph.functions
        assert "call_shapes.collect.note" in graph.functions

    def test_methods_indexed_by_bare_name(self, fixture_graph):
        _, graph = fixture_graph
        assert "call_shapes.DataLog.merge" in graph.methods_by_name["merge"]
