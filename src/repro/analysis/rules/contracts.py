"""Contract rule for the parallel runtime.

R005 — world builders passed to ``register_world_builder`` must be
module-level functions.  Lambdas, closures, and local defs don't
pickle, so a spec naming them silently falls back to serial execution
(or fails outright under the spawn start method).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Finding, ModuleInfo, Project, Rule

__all__ = ["PicklableWorldBuilderRule"]


class PicklableWorldBuilderRule(Rule):
    rule_id = "R005"
    title = "registered world builders must be module-level functions"

    #: registration entry points sharing the pickling contract: the
    #: per-trial table (parallel) and the per-shard table (sharded).
    _TARGETS = ("register_world_builder", "register_shard_world_builder")

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        module_level = self._module_level_names(module.tree)
        nested_defs = self._nested_def_names(module.tree)
        for call, inside_fn in self._target_calls(module.tree):
            builder = self._builder_arg(call)
            if builder is None:
                continue
            if isinstance(builder, ast.Lambda):
                yield module.finding(
                    builder,
                    self.rule_id,
                    "world builders must be module-level functions; a "
                    "lambda does not pickle, so specs naming it "
                    "cannot cross the process boundary",
                )
                continue
            if isinstance(builder, ast.Name):
                if (
                    builder.id in nested_defs
                    and builder.id not in module_level
                ):
                    yield module.finding(
                        builder,
                        self.rule_id,
                        f"world builder {builder.id!r} is a local/closure "
                        "def; move it to module level so it pickles",
                    )
                    continue
            if inside_fn:
                yield module.finding(
                    call,
                    self.rule_id,
                    f"{self._call_name(call)}() called inside a function; "
                    "register at module import time so every pool worker "
                    "sees the same builder table",
                )

    def _target_calls(
        self, tree: ast.Module
    ) -> List[Tuple[ast.Call, bool]]:
        calls: List[Tuple[ast.Call, bool]] = []

        def visit(node: ast.AST, inside_fn: bool) -> None:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                inside_fn = True
            if isinstance(node, ast.Call):
                if self._call_name(node) in self._TARGETS:
                    calls.append((node, inside_fn))
            for child in ast.iter_child_nodes(node):
                visit(child, inside_fn)

        visit(tree, False)
        return calls

    @staticmethod
    def _call_name(call: ast.Call) -> str:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return ""

    @staticmethod
    def _builder_arg(call: ast.Call) -> Optional[ast.AST]:
        for kw in call.keywords:
            if kw.arg == "builder":
                return kw.value
        if len(call.args) >= 2:
            return call.args[1]
        return None

    @staticmethod
    def _module_level_names(tree: ast.Module) -> Set[str]:
        names: Set[str] = set()
        for node in tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                names.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for item in node.names:
                    names.add(item.asname or item.name.split(".")[0])
        return names

    @staticmethod
    def _nested_def_names(tree: ast.Module) -> Set[str]:
        nested: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                for inner in ast.walk(node):
                    if inner is not node and isinstance(
                        inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        nested.add(inner.name)
        return nested
