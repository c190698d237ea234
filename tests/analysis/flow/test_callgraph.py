"""Call graph construction and reachability."""

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

    def test_nested_def_gets_implicit_edge(self, fixture_graph):
        _, graph = fixture_graph
        assert "call_shapes.collect.note" in graph.edges["call_shapes.collect"]

    def test_cross_module_call_edge(self, fixture_graph):
        _, graph = fixture_graph
        assert "mini_faults.plan_faults" in graph.edges["rig.drive"]
        assert "mini_campaign.run_case" in graph.edges["rig.drive"]

    def test_reachability(self, fixture_graph):
        _, graph = fixture_graph
        reachable = graph.reachable(["call_shapes.collect"])
        assert "call_shapes.collect.note" in reachable
        assert "call_shapes.DataLog.merge" in reachable
        assert "call_shapes.report" not in reachable
        assert graph.callers_of("call_shapes.collect") == ["call_shapes.report"]
