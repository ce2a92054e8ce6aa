"""Project-wide name resolution and set inference for the rules.

The per-module rules see one file at a time.  Two pieces let them
reason a little further:

* :class:`SymbolTable` — every module-level function and class method
  in the project, indexed by a stable qualified name
  (``relpath::Class.method``), plus import-alias maps so a call site
  can be linked to its target across files.  R011 walks it to find
  helpers that do nothing.
* :class:`_ScopeInference` and :class:`_AttrTypes` — R002's
  branch-insensitive answer to "is this expression a set?": a name
  counts as a set if *any* binding in the scope makes it one.
  Suppression comments handle the rare residual false positive.

Whether an ambient value reaches canonical bytes is not a static
question here: ``tests/test_ambient_oracle.py`` answers it by running
the pinned workloads under two different ambient worlds.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.analysis.core import ModuleInfo, Project

__all__ = ["FunctionInfo", "SymbolTable"]

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


# ---------------------------------------------------------------------------
# Symbol table
# ---------------------------------------------------------------------------


def _import_maps(tree: ast.Module) -> Tuple[Dict[str, str], Dict[str, str]]:
    """(module aliases, from-import aliases) for one module.

    Module aliases map a local name to a dotted module path
    (``import numpy as np`` → ``np: numpy``); from-import aliases map a
    local name to ``module.attr`` (``from repro.store import
    EventStore`` → ``EventStore: repro.store.EventStore``).
    """
    modules: Dict[str, str] = {}
    members: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".")[0]
                modules[local] = item.name if item.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.level:
                continue  # relative imports stay unresolved
            for item in node.names:
                local = item.asname or item.name
                members[local] = f"{node.module}.{item.name}"
    return modules, members


@dataclass
class FunctionInfo:
    """One project function or method, addressable by qualified name."""

    qname: str
    module: ModuleInfo
    node: _FunctionNode
    class_name: Optional[str] = None


@dataclass
class ClassInfo:
    """One project class: its methods and project-local base names."""

    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


class SymbolTable:
    """Project-wide function/class index with call resolution support."""

    def __init__(self, project: Project) -> None:
        #: qname -> FunctionInfo
        self.functions: Dict[str, FunctionInfo] = {}
        #: relpath -> {module-level function name -> FunctionInfo}
        self.module_functions: Dict[str, Dict[str, FunctionInfo]] = {}
        #: bare class name -> ClassInfo (last definition wins on collision)
        self.classes: Dict[str, ClassInfo] = {}
        #: relpath -> (module aliases, from-import aliases)
        self.imports: Dict[str, Tuple[Dict[str, str], Dict[str, str]]] = {}
        #: dotted module path suffix (a/b) -> relpath, for import linking
        self._module_paths: Dict[str, str] = {}
        for module in project.modules:
            self._index_module(module)

    # -- construction --------------------------------------------------

    def _index_module(self, module: ModuleInfo) -> None:
        relpath = module.relpath
        self.imports[relpath] = _import_maps(module.tree)
        stem = relpath[:-3] if relpath.endswith(".py") else relpath
        if stem.endswith("/__init__"):
            stem = stem[: -len("/__init__")]
        self._module_paths[stem] = relpath
        table: Dict[str, FunctionInfo] = {}
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    qname=f"{relpath}::{node.name}",
                    module=module,
                    node=node,
                )
                table[node.name] = info
                self.functions[info.qname] = info
            elif isinstance(node, ast.ClassDef):
                self._index_class(module, node)
        self.module_functions[relpath] = table

    def _index_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        bases: List[str] = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                bases.append(base.id)
            elif isinstance(base, ast.Attribute):
                bases.append(base.attr)
        cls = ClassInfo(bases=bases)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    qname=f"{module.relpath}::{node.name}.{item.name}",
                    module=module,
                    node=item,
                    class_name=node.name,
                )
                cls.methods[item.name] = info
                self.functions[info.qname] = info
        self.classes[node.name] = cls

    # -- resolution ----------------------------------------------------

    def module_relpath_for(self, dotted: str) -> Optional[str]:
        """relpath of the project module a dotted import path names."""
        parts = dotted.split(".")
        # Strip any leading package segments down to a path the
        # package-relative relpath convention can match (``repro.a.b``
        # and plain ``a.b`` both reach ``a/b.py``).
        for start in range(len(parts)):
            stem = "/".join(parts[start:])
            relpath = self._module_paths.get(stem)
            if relpath is not None:
                return relpath
        return None

    def function_in_module(
        self, relpath: str, name: str
    ) -> Optional[FunctionInfo]:
        return self.module_functions.get(relpath, {}).get(name)

    def resolve_method(
        self, class_name: str, method: str
    ) -> Optional[FunctionInfo]:
        """Look *method* up on *class_name*, walking project-local bases."""
        seen: Set[str] = set()
        queue = [class_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            info = cls.methods.get(method)
            if info is not None:
                return info
            queue.extend(cls.bases)
        return None

    def imported_member(
        self, relpath: str, local_name: str
    ) -> Optional[str]:
        """``module.attr`` a local name was from-imported as, if any."""
        return self.imports.get(relpath, ({}, {}))[1].get(local_name)


# ---------------------------------------------------------------------------
# Set inference (R002)
# ---------------------------------------------------------------------------

_SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
}


def _annotation_kind(ann: Optional[ast.AST]) -> Optional[str]:
    """'set' / 'dict_of_set' / None from a type annotation node."""
    if ann is None:
        return None
    if isinstance(ann, ast.Name):
        return "set" if ann.id in {"set", "frozenset"} else None
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        try:
            return _annotation_kind(
                ast.parse(ann.value, mode="eval").body
            )
        except SyntaxError:
            return None
    if isinstance(ann, ast.Subscript):
        base = ann.value
        base_name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else ""
        )
        if base_name in {"Set", "FrozenSet", "set", "frozenset"}:
            return "set"
        if base_name in {"Dict", "dict", "DefaultDict", "defaultdict"}:
            sl = ann.slice
            if isinstance(sl, ast.Tuple) and len(sl.elts) == 2:
                if _annotation_kind(sl.elts[1]) == "set":
                    return "dict_of_set"
    return None


class _AttrTypes:
    """Instance-attribute kinds for one class: name -> 'set'/'dict_of_set'."""

    def __init__(self, cls: ast.ClassDef) -> None:
        self.kinds: Dict[str, str] = {}
        for stmt in cls.body:
            if (
                isinstance(stmt, ast.FunctionDef)
                and stmt.name == "__init__"
            ):
                for node in ast.walk(stmt):
                    self._harvest(node)

    def _harvest(self, node: ast.AST) -> None:
        target: Optional[ast.AST] = None
        kind: Optional[str] = None
        if isinstance(node, ast.AnnAssign):
            target = node.target
            kind = _annotation_kind(node.annotation)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if _is_set_literalish(node.value):
                kind = "set"
        if (
            kind is not None
            and isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self.kinds[target.attr] = kind


def _is_set_literalish(node: ast.AST) -> bool:
    """Expressions that construct a set regardless of context."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    return False


class _ScopeInference:
    """Branch-insensitive set inference for one function (or module) body.

    Over-approximates: a name counts as a set if *any* binding in the
    scope makes it one.  Suppression comments handle the rare false
    positive; missing a genuine unordered iteration is the worse error.
    """

    def __init__(
        self,
        body: List[ast.stmt],
        attr_types: Dict[str, str],
        params: Optional[ast.arguments] = None,
        seed: Optional[Set[str]] = None,
    ) -> None:
        self.attr_types = attr_types
        self.set_names: Set[str] = set(seed or ())
        if params is not None:
            for arg in (
                list(params.posonlyargs)
                + list(params.args)
                + list(params.kwonlyargs)
            ):
                if _annotation_kind(arg.annotation) == "set":
                    self.set_names.add(arg.arg)
        # Fixed-point over local bindings: `a = set(); b = a` needs two
        # passes when bindings appear out of order.
        for _ in range(2):
            before = len(self.set_names)
            for stmt in body:
                for node in ast.walk(stmt):
                    self._bind(node)
            if len(self.set_names) == before:
                break

    def _bind(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and self.is_set(node.value):
                self.set_names.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if (
                isinstance(node.target, ast.Name)
                and _annotation_kind(node.annotation) == "set"
            ):
                self.set_names.add(node.target.id)
        elif isinstance(node, (ast.For, ast.comprehension)):
            self._bind_loop(node.target, node.iter)

    def _bind_loop(self, target: ast.AST, source: ast.AST) -> None:
        """Loop targets drawn from Dict[..., Set[...]] values are sets."""
        view = _dict_view_call(source)
        if view is None:
            return
        method, receiver = view
        if self._receiver_kind(receiver) != "dict_of_set":
            return
        if method == "values" and isinstance(target, ast.Name):
            self.set_names.add(target.id)
        elif (
            method == "items"
            and isinstance(target, ast.Tuple)
            and len(target.elts) == 2
            and isinstance(target.elts[1], ast.Name)
        ):
            self.set_names.add(target.elts[1].id)

    def _receiver_kind(self, node: ast.AST) -> Optional[str]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return self.attr_types.get(node.attr)
        return None

    def is_set(self, node: ast.AST) -> bool:
        """Whether *node* statically evaluates to a set/frozenset."""
        if _is_set_literalish(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Attribute):
            return self._receiver_kind(node) == "set"
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set(node.left) or self.is_set(node.right)
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_METHODS
                and self.is_set(func.value)
            ):
                return True
            # self._attr.get(k, set()) / .setdefault(k, set())
            if (
                isinstance(func, ast.Attribute)
                and func.attr in {"get", "setdefault"}
            ):
                if self._receiver_kind(func.value) == "dict_of_set":
                    return True
                if len(node.args) >= 2 and _is_set_literalish(
                    node.args[1]
                ):
                    return True
        if isinstance(node, ast.Subscript):
            return self._receiver_kind(node.value) == "dict_of_set"
        return False


def _dict_view_call(
    node: ast.AST,
) -> Optional[Tuple[str, ast.AST]]:
    """(method, receiver) for ``X.keys()/.values()/.items()`` calls."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"keys", "values", "items"}
        and not node.args
        and not node.keywords
    ):
        return node.func.attr, node.func.value
    return None

