"""Function index over a :class:`~repro.analysis.flow.project.Project`.

Every function and method definition in the project, keyed by qualified
name (nested defs included), plus a table from bare method name to
the project methods carrying it.  The RNG pass uses both: the function
index to walk each scope, and the by-name table to resolve
``obj.method(...)`` calls on receivers it cannot type, which it matches
against *every* project method of that name.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.flow.project import ModuleInfo, Project


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str
    module: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None = None

    @property
    def bare_name(self) -> str:
        return self.node.name


@dataclass
class CallGraph:
    """Functions indexed by qualified name, and methods by bare name."""

    project: Project
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: bare method name -> qualnames of project methods with that name.
    methods_by_name: dict[str, list[str]] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(cls, project: Project) -> "CallGraph":
        """Index every function and method of the project."""
        graph = cls(project)
        for module in project.sorted_modules():
            graph._index_module(module)
        return graph

    def _index_module(self, module: ModuleInfo) -> None:
        def visit(node: ast.AST, prefix: str, cls_name: str | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}.{child.name}"
                    self.functions[qualname] = FunctionInfo(
                        qualname=qualname,
                        module=module.name,
                        path=module.path,
                        node=child,
                        cls=cls_name,
                    )
                    if cls_name is not None:
                        self.methods_by_name.setdefault(child.name, []).append(
                            qualname
                        )
                    visit(child, qualname, None)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}", child.name)
                else:
                    visit(child, prefix, cls_name)

        visit(module.tree, module.name, None)
