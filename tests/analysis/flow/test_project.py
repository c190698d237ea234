"""Project model: module inventory, binding tables, import edges."""

from pathlib import Path

import pytest

from repro.analysis.flow import Project
from repro.errors import ConfigurationError

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[3]


@pytest.fixture(scope="module")
def fixture_project():
    return Project.load([FIXTURES], root=REPO_ROOT)


class TestProjectLoad:
    def test_loads_every_fixture_module(self, fixture_project):
        assert {
            "call_shapes",
            "leaky_rng",
            "mini_campaign",
            "mini_faults",
            "rig",
        } <= set(fixture_project.modules)

    def test_paths_are_repo_relative(self, fixture_project):
        module = fixture_project.modules["rig"]
        assert module.path == "tests/analysis/flow/fixtures/rig.py"

    def test_src_modules_get_dotted_names(self):
        project = Project.load([REPO_ROOT / "src"], root=REPO_ROOT)
        assert "repro.lab.campaign" in project.modules
        assert "repro.analysis.flow.project" in project.modules

    def test_missing_target_raises(self):
        with pytest.raises(ConfigurationError):
            Project.load([FIXTURES / "no-such-dir"])


class TestBindings:
    def test_import_from_binds_symbol(self, fixture_project):
        binding = fixture_project.modules["rig"].bindings["run_case"]
        assert binding.kind == "symbol"
        assert binding.target == "mini_campaign.run_case"

    def test_local_function_binds_qualified(self, fixture_project):
        binding = fixture_project.modules["mini_faults"].bindings["plan_faults"]
        assert binding.kind == "function"
        assert binding.target == "mini_faults.plan_faults"

    def test_module_level_object_records_constructor(self, fixture_project):
        binding = fixture_project.modules["call_shapes"].bindings["SHARED_LOG"]
        assert binding.kind == "object"
        assert binding.target == "DataLog"


class TestResolution:
    def test_symbol_resolves_into_defining_module(self, fixture_project):
        rig = fixture_project.modules["rig"]
        resolved = fixture_project.resolve(rig, "plan_faults")
        assert resolved is not None
        assert resolved.kind == "function"
        assert resolved.target == "mini_faults.plan_faults"

    def test_builtin_names_resolve_to_none(self, fixture_project):
        rig = fixture_project.modules["rig"]
        assert fixture_project.resolve(rig, "enumerate") is None

    def test_import_edges_and_importers(self, fixture_project):
        assert fixture_project.imports["rig"] == {"mini_campaign", "mini_faults"}
        assert fixture_project.importers_of("mini_faults") == ["rig"]
