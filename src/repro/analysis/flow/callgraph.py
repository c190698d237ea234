"""Approximate call graph over a :class:`~repro.analysis.flow.project.Project`.

"Approximate" is deliberate: Python call targets are not statically
decidable, so the graph over-approximates — more reachability than
reality, never less:

* bare names resolve through the module binding tables (local defs,
  ``from m import f`` symbols, ``m.f`` attribute calls on imported
  project modules);
* ``self.method(...)`` resolves to the enclosing class's method when it
  defines one, else falls back to by-name matching;
* ``obj.method(...)`` on an unknown receiver matches *every* project
  method of that name;
* calling a class reaches its ``__init__``;
* a function-valued argument (``executor.map(fn, ...)``,
  ``sorted(key=score)``) adds an edge to the passed function;
* a nested ``def`` gets an implicit edge from its enclosing function.

The RNG pass uses the function index and the by-name method table;
the edges back :meth:`CallGraph.reachable` and
:meth:`CallGraph.callers_of`.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.flow.project import Binding, ModuleInfo, Project, dotted_name


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
    """Functions indexed by qualified name, plus resolved call edges."""

    project: Project
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    edges: dict[str, set[str]] = field(default_factory=dict)
    #: bare method name -> qualnames of project methods with that name.
    methods_by_name: dict[str, list[str]] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(cls, project: Project) -> "CallGraph":
        """Index every function/method and resolve its call edges."""
        graph = cls(project)
        for module in project.sorted_modules():
            graph._index_module(module)
        for info in graph.functions.values():
            graph.edges[info.qualname] = graph._resolve_calls(info)
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

    # ------------------------------------------------------------------ #
    # call resolution
    # ------------------------------------------------------------------ #

    def _function_for_binding(
        self, binding: Binding | None
    ) -> list[str]:
        if binding is None:
            return []
        if binding.kind == "function" and binding.target in self.functions:
            return [binding.target]
        if binding.kind == "class":
            init = f"{binding.target}.__init__"
            return [init] if init in self.functions else []
        return []

    def _resolve_name_call(self, module: ModuleInfo, name: str) -> list[str]:
        return self._function_for_binding(self.project.resolve(module, name))

    def _resolve_calls(self, info: FunctionInfo) -> set[str]:
        module = self.project.modules[info.module]
        targets: set[str] = set()

        def add_callable_value(node: ast.AST) -> None:
            """A function passed *as a value* may later be called."""
            if isinstance(node, (ast.Name, ast.Attribute)):
                targets.update(self._resolve_name_call(module, dotted_name(node)))

        def resolve_call(call: ast.Call) -> None:
            func = call.func
            if isinstance(func, ast.Name):
                targets.update(self._resolve_name_call(module, func.id))
            elif isinstance(func, ast.Attribute):
                receiver = func.value
                if isinstance(receiver, ast.Name) and receiver.id == "self":
                    owned = (
                        f"{info.qualname.rsplit('.', 1)[0]}.{func.attr}"
                        if info.cls is not None
                        else ""
                    )
                    if owned in self.functions:
                        targets.add(owned)
                        return
                resolved = self._resolve_name_call(module, dotted_name(func))
                if resolved:
                    targets.update(resolved)
                else:
                    targets.update(self.methods_by_name.get(func.attr, ()))
            for arg in call.args:
                add_callable_value(arg)
            for keyword in call.keywords:
                add_callable_value(keyword.value)

        def visit(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # Nested defs are separate graph nodes; the parent
                    # may call them, so keep the implicit edge.
                    targets.add(f"{info.qualname}.{child.name}")
                    continue
                if isinstance(child, ast.Call):
                    resolve_call(child)
                visit(child)

        visit(info.node)
        return targets

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def reachable(self, entries: Iterable[str]) -> set[str]:
        """Every function reachable from ``entries`` (inclusive), BFS order."""
        seen: set[str] = set()
        frontier: deque[str] = deque(sorted(set(entries) & set(self.functions)))
        seen.update(frontier)
        while frontier:
            current = frontier.popleft()
            for target in sorted(self.edges.get(current, ())):
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return seen

    def callers_of(self, qualname: str) -> list[str]:
        """Functions with a resolved edge to ``qualname``, sorted."""
        return sorted(f for f, edges in self.edges.items() if qualname in edges)
