"""R011 — no exception swallowing on resilience and merge paths.

A ``except: pass`` (or a broad handler whose body is inert) in shard
merge, the process-pool fan-out, the store, or the observability layer
turns a crash into silent shard divergence — the one failure mode the
1 == 2 == 8 equality gate cannot localise.  Handlers that re-raise,
return a sentinel, assign state, or call a recorder are fine; handlers
that do nothing (even via an inert helper function, resolved across
imports by :class:`~repro.analysis.flow.SymbolTable`) are not.

Grandfathering policy: anything intentionally silent (best-effort
error forwarding on an already-dying worker) carries an inline
``# reprolint: disable=R011`` with a justification comment.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    dotted_name,
)
from repro.analysis.flow import FunctionInfo, SymbolTable

__all__ = ["SwallowedExceptionRule"]


#: method names that count as "the handler recorded the failure" even
#: when the callee cannot be resolved (recorder facade, stdlib logging)
_RECORDING_NAMES = frozenset(
    {
        "count",
        "gauge",
        "observe",
        "event",
        "span",
        "record",
        "log",
        "debug",
        "info",
        "warning",
        "error",
        "exception",
        "critical",
    }
)

_BROAD = frozenset({"Exception", "BaseException"})


def _inert_functions(table: SymbolTable) -> Set[str]:
    """Qnames of functions that observably do nothing.

    Greatest fixpoint: start from "every project function is inert",
    then repeatedly demote any function whose body contains a
    non-inert statement (assignment, raise, non-constant return,
    call to a demoted or unresolvable function, any compound
    statement).  Unresolvable calls are conservatively non-inert, so
    the surviving set is sound: calling one of these from an exception
    handler is indistinguishable from ``pass``.
    """
    inert: Set[str] = set(table.functions)
    changed = True
    while changed:
        changed = False
        for qname in list(inert):
            info = table.functions[qname]
            if not all(
                _inert_stmt(s, info, table, inert)
                for s in info.node.body
            ):
                inert.discard(qname)
                changed = True
    return inert


def _inert_stmt(
    stmt: ast.stmt,
    info: FunctionInfo,
    table: SymbolTable,
    inert: Set[str],
) -> bool:
    if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
        return True
    if isinstance(stmt, ast.Return):
        return stmt.value is None or isinstance(stmt.value, ast.Constant)
    if isinstance(stmt, ast.Expr):
        if isinstance(stmt.value, ast.Constant):
            return True
        if isinstance(stmt.value, ast.Call):
            callee = _resolve_simple_call(
                stmt.value, info.module, info.class_name, table
            )
            return callee is not None and callee.qname in inert
    return False


def _resolve_simple_call(
    call: ast.Call,
    module: ModuleInfo,
    class_name: Optional[str],
    table: SymbolTable,
) -> Optional[FunctionInfo]:
    """Resolve ``f(...)`` / ``self.m(...)`` / ``mod.f(...)`` calls."""
    func = call.func
    relpath = module.relpath
    if isinstance(func, ast.Name):
        local = table.function_in_module(relpath, func.id)
        if local is not None:
            return local
        member = table.imported_member(relpath, func.id)
        if member is not None:
            module_path, _, name = member.rpartition(".")
            target = table.module_relpath_for(module_path)
            if target is not None:
                return table.function_in_module(target, name)
        return None
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id == "self" and class_name is not None:
            return table.resolve_method(class_name, func.attr)
        dotted = table.imports.get(relpath, ({}, {}))[0].get(func.value.id)
        if dotted is not None:
            target = table.module_relpath_for(dotted)
            if target is not None:
                return table.function_in_module(target, func.attr)
    return None


class SwallowedExceptionRule(Rule):
    rule_id = "R011"
    title = "no exception swallowing on resilience/merge paths"
    scopes = (
        "faults/",
        "experiments/parallel.py",
        "experiments/sharded.py",
        "store/",
        "obs/",
        "core/selection.py",
        "serve/",
    )

    _MESSAGE = (
        "broad exception handler swallows the error on a "
        "resilience/merge path — a silent failure here diverges shards "
        "without tripping the equality gates; re-raise, return a "
        "sentinel, or record the failure through the recorder"
    )

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        cached = project.caches.get(self.rule_id)
        if not isinstance(cached, tuple):
            table = SymbolTable(project)
            cached = project.caches[self.rule_id] = (
                table, _inert_functions(table)
            )
        table, inert = cached
        for handler, class_name in _handlers(module):
            if not self._is_broad(handler):
                continue
            if self._swallows(handler, module, class_name, table, inert):
                yield module.finding(handler, self.rule_id, self._MESSAGE)

    @staticmethod
    def _is_broad(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for node in types:
            dotted = dotted_name(node)
            if dotted is not None and dotted.split(".")[-1] in _BROAD:
                return True
        return False

    @staticmethod
    def _swallows(
        handler: ast.ExceptHandler,
        module: ModuleInfo,
        class_name: Optional[str],
        table: SymbolTable,
        inert: Set[str],
    ) -> bool:
        for stmt in handler.body:
            if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
                continue
            if isinstance(stmt, ast.Expr):
                value = stmt.value
                if isinstance(value, ast.Constant):
                    continue
                if isinstance(value, ast.Call):
                    name = ""
                    if isinstance(value.func, ast.Attribute):
                        name = value.func.attr
                    elif isinstance(value.func, ast.Name):
                        name = value.func.id
                    if name in _RECORDING_NAMES:
                        return False  # failure recorded
                    callee = _resolve_simple_call(
                        value, module, class_name, table
                    )
                    if callee is not None and callee.qname in inert:
                        continue  # a do-nothing helper: still swallowed
                    return False  # real work happened
            # raise / return / assignment / compound statement: handled
            return False
        return True


def _handlers(
    module: ModuleInfo,
) -> List[Tuple[ast.ExceptHandler, Optional[str]]]:
    """(handler, enclosing class name) pairs for one module."""
    class_of: Dict[ast.ExceptHandler, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef):
            for child in ast.walk(node):
                if isinstance(child, ast.ExceptHandler):
                    class_of.setdefault(child, node.name)
    return [
        (node, class_of.get(node))
        for node in ast.walk(module.tree)
        if isinstance(node, ast.ExceptHandler)
    ]
