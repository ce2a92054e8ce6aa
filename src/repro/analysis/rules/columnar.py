"""Columnar kernel rule.

R007 — no per-row Python loops over store columns in model kernels.
The columnar :class:`~repro.store.EventStore` exists so scoring math
runs as numpy reductions (``bincount``/``lexsort`` over the snapshot's
column arrays); a ``for`` loop or comprehension over those columns —
or over ``iter_rows(...)`` — reintroduces the per-event Python frame
the store was built to eliminate, silently costing the 10-100x the
benchmarks gate on.  The scalar replays that *define* model
semantics loop over the rows
:meth:`~repro.models.base.StoreBackedModel._replay_rows` returns, the
one sanctioned row source: it hands out ``iter_rows`` without looping
over it, so no model needs an exception, and the rule honours no
``disable`` comment.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set

from repro.analysis.core import Finding, ModuleInfo, Project, Rule

__all__ = ["ColumnarLoopRule"]

#: the five ColumnSet arrays; ``columns.<attr>`` marks a column value
_COLUMN_ATTRS = {"rater", "target", "facet", "value", "time"}


class _ColumnScope:
    """Column-array inference for one function (or module) body.

    Branch-insensitive and over-approximate, like R002's set inference:
    a name counts as a snapshot/column/row-iterator if *any* binding in
    the scope makes it one.
    """

    def __init__(self, body: Sequence[ast.stmt]) -> None:
        self.snapshot_names: Set[str] = set()
        self.column_names: Set[str] = set()
        self.rowiter_names: Set[str] = set()
        # Fixed point over local bindings (`cols = store.snapshot();
        # vals = cols.value` needs two passes when out of order).
        for _ in range(2):
            before = (
                len(self.snapshot_names)
                + len(self.column_names)
                + len(self.rowiter_names)
            )
            for stmt in body:
                for node in ast.walk(stmt):
                    self._bind(node)
            after = (
                len(self.snapshot_names)
                + len(self.column_names)
                + len(self.rowiter_names)
            )
            if after == before:
                break

    def _bind(self, node: ast.AST) -> None:
        if not (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            return
        kind = self.kind(node.value)
        if kind == "snapshot":
            self.snapshot_names.add(node.targets[0].id)
        elif kind == "column":
            self.column_names.add(node.targets[0].id)
        elif kind == "rows":
            self.rowiter_names.add(node.targets[0].id)

    def kind(self, node: ast.AST) -> Optional[str]:
        """'snapshot' / 'column' / 'rows' / None for an expression."""
        if isinstance(node, ast.Name):
            if node.id in self.snapshot_names:
                return "snapshot"
            if node.id in self.column_names:
                return "column"
            if node.id in self.rowiter_names:
                return "rows"
            return None
        if isinstance(node, ast.Attribute):
            if (
                node.attr in _COLUMN_ATTRS
                and self.kind(node.value) == "snapshot"
            ):
                return "column"
            return None
        if isinstance(node, ast.Subscript):
            # A sliced/fancy-indexed column is still a column.
            return (
                "column" if self.kind(node.value) == "column" else None
            )
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr == "snapshot" and not node.args:
                return "snapshot"
            if node.func.attr == "iter_rows":
                return "rows"
            if node.func.attr == "tolist":
                # Materializing a column then looping it is the same
                # per-row frame with an extra allocation.
                return (
                    "column"
                    if self.kind(node.func.value) == "column"
                    else None
                )
        return None

    def loop_hazard(self, iter_node: ast.AST) -> Optional[ast.AST]:
        """The offending sub-expression when *iter_node* walks store
        rows, else None."""
        if self.kind(iter_node) in {"column", "rows"}:
            return iter_node
        # zip(columns.value, columns.time) / enumerate(column) wrappers.
        if isinstance(iter_node, ast.Call) and isinstance(
            iter_node.func, ast.Name
        ):
            if iter_node.func.id in {"zip", "enumerate", "reversed"}:
                for arg in iter_node.args:
                    if self.kind(arg) in {"column", "rows"}:
                        return arg
        return None


class ColumnarLoopRule(Rule):
    rule_id = "R007"
    title = "no per-row python loops over store columns"
    scopes = ("models/",)
    suppressible = False

    _MESSAGE = (
        "per-row python loop over store columns defeats the columnar "
        "kernels; use vectorized reductions (repro.store.kernels "
        "bincount/lexsort over the snapshot) — a scalar reference "
        "replay loops over StoreBackedModel._replay_rows()"
    )

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        yield from self._check_scope(
            module, self._toplevel_stmts(module.tree.body)
        )
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(
                    module, self._toplevel_stmts(node.body)
                )

    @staticmethod
    def _toplevel_stmts(body: Sequence[ast.stmt]) -> List[ast.stmt]:
        """Direct statements only; nested defs get their own scope."""
        return [
            stmt
            for stmt in body
            if not isinstance(
                stmt,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            )
        ]

    def _check_scope(
        self, module: ModuleInfo, stmts: Sequence[ast.stmt]
    ) -> Iterator[Finding]:
        scope = _ColumnScope(stmts)
        for stmt in stmts:
            for node in ast.walk(stmt):
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue  # visited as their own scope
                yield from self._sites(module, node, scope)

    def _sites(
        self, module: ModuleInfo, node: ast.AST, scope: _ColumnScope
    ) -> Iterator[Finding]:
        iters: List[ast.AST] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(
            node,
            (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
        ):
            iters.extend(gen.iter for gen in node.generators)
        for iter_node in iters:
            site = scope.loop_hazard(iter_node)
            if site is not None:
                yield module.finding(site, self.rule_id, self._MESSAGE)
