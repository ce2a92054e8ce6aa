"""Interprocedural dataflow over the shared :class:`Project`.

The per-module rules (DESIGN.md §10) see one file at a time, so a helper
that draws from an ambient RNG two calls away from a canonical sink
sails through untouched.  This module closes that gap with the classic
*intraprocedural summaries composed interprocedurally* recipe:

* :class:`SymbolTable` — every module-level function and class method
  in the project, indexed by a stable qualified name
  (``relpath::Class.method``), plus import-alias and local-type
  resolution so call sites can be linked to their targets across
  files.
* :class:`FunctionSummary` — one function's externally visible
  dataflow: which taint kinds its return value carries, which
  parameters flow to its return value, and which parameters reach a
  canonical sink inside it (transitively).
* :class:`FlowAnalysis` — computes all summaries to a fixpoint over
  the call graph (the lattice is finite and monotone: summary sets
  only grow), then replays each function body once more against the
  final summaries to collect *events*: a tainted value meeting a sink
  (:class:`TaintEvent`).  Rules turn events into findings.

What counts as a source or a sink is not hard-coded here: the engine
takes a :class:`FlowPolicy` so the machinery stays reusable (and
unit-testable) independent of the repro-specific vocabulary in
``rules/taint.py``.

The analysis is deliberately conservative and branch-insensitive, like
the set inference below (which R002 shares, so the rule and ``ORDER``
taint give one answer to "is this a set?"): a name counts as tainted
if *any* binding in the scope makes it one, and calls that cannot be
resolved propagate the union of their argument taints.  Suppression
comments handle the rare residual false positive.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.analysis.core import ModuleInfo, Project

__all__ = [
    "RNG",
    "ORDER",
    "CallView",
    "FlowAnalysis",
    "FlowPolicy",
    "FunctionInfo",
    "FunctionSummary",
    "SymbolTable",
    "TaintEvent",
]

#: taint kind: value derived from an ambient nondeterminism source
#: (RNG singleton state, wall clock, uuid, OS entropy)
RNG = "rng"
#: taint kind: value depends on hash-salted set iteration order
ORDER = "order"

_KINDS = frozenset({RNG, ORDER})
_PARAM = "param:"

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _param_token(index: int) -> str:
    return f"{_PARAM}{index}"


def _token_param(token: str) -> Optional[int]:
    if token.startswith(_PARAM):
        return int(token[len(_PARAM):])
    return None


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
    is_staticmethod: bool = False

    @property
    def param_names(self) -> List[str]:
        args = self.node.args
        return [
            a.arg
            for a in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
        ]

    def param_index(self, name: str) -> Optional[int]:
        try:
            return self.param_names.index(name)
        except ValueError:
            return None


@dataclass
class ClassInfo:
    """One project class: methods, bases, and typed ``self.`` attributes."""

    name: str
    relpath: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: attribute name -> class name, from ``self.x = ClassName(...)``
    attr_types: Dict[str, str] = field(default_factory=dict)


class SymbolTable:
    """Project-wide function/class index with call resolution support."""

    def __init__(self, project: Project) -> None:
        self.project = project
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
        self._link_attr_types()

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
        cls = ClassInfo(
            name=node.name,
            relpath=module.relpath,
            node=node,
            bases=bases,
        )
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in item.decorator_list
                )
                info = FunctionInfo(
                    qname=f"{module.relpath}::{node.name}.{item.name}",
                    module=module,
                    node=item,
                    class_name=node.name,
                    is_staticmethod=static,
                )
                cls.methods[item.name] = info
                self.functions[info.qname] = info
        self.classes[node.name] = cls

    def _link_attr_types(self) -> None:
        """Second pass: ``self.x = ClassName(...)`` attribute typing
        (needs the full class index to recognise constructor names)."""
        for cls in self.classes.values():
            imports = self.imports.get(cls.relpath, ({}, {}))
            for method in cls.methods.values():
                for node in ast.walk(method.node):
                    if not (
                        isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                    ):
                        continue
                    target = node.targets[0]
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    typed = self._constructor_class(node.value, imports)
                    if typed is not None:
                        cls.attr_types.setdefault(target.attr, typed)

    def _constructor_class(
        self,
        node: ast.AST,
        imports: Tuple[Dict[str, str], Dict[str, str]],
    ) -> Optional[str]:
        """Class name when *node* is ``ClassName(...)`` for a known or
        imported class."""
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        name = ""
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in self.classes:
            return name
        # from-imported class that is not part of the scanned tree:
        # keep the bare name so type-driven policies still match.
        member = imports[1].get(name)
        if member is not None and name and name[0].isupper():
            return name
        return None

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
# Policy
# ---------------------------------------------------------------------------


@dataclass
class CallView:
    """A call site, pre-digested for policy decisions."""

    call: ast.Call
    #: bare callee name (``append`` for ``x.append(...)``)
    name: str
    #: alias-resolved dotted path when the callee is a plain name chain
    #: (``time.perf_counter`` for ``import time; time.perf_counter()``)
    dotted: Optional[str]
    #: receiver expression for attribute calls, else None
    receiver: Optional[ast.expr]
    #: inferred class name of the receiver, if any
    receiver_type: Optional[str]


class FlowPolicy:
    """What the engine should treat as sources and sinks.

    The base policy is inert (no sources, no sinks); subclasses
    override the hooks they care about.  All hooks receive a
    :class:`CallView` so they never re-derive receiver types.
    """

    def source_kinds(self, cv: CallView) -> FrozenSet[str]:
        """Taint kinds produced by calling *cv* (empty = not a source)."""
        return frozenset()

    def sink_label(self, cv: CallView) -> Optional[str]:
        """Canonical-sink label when arguments of *cv* must be clean."""
        return None

    def attr_store_sink(
        self, base_type: Optional[str], attr: str
    ) -> Optional[str]:
        """Sink label when assigning to ``base.attr`` must be clean."""
        return None

    def call_result_type(self, cv: CallView) -> Optional[str]:
        """Class name of *cv*'s result, for receiver typing (e.g. the
        ambient-recorder accessor)."""
        return None


# ---------------------------------------------------------------------------
# Summaries and events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionSummary:
    """One function's externally visible dataflow."""

    #: taint tokens carried by the return value: kinds (``rng``,
    #: ``order``) plus ``param:i`` markers for parameter pass-through
    returns: FrozenSet[str] = frozenset()
    #: parameter indices whose values reach a canonical sink inside
    sink_params: FrozenSet[int] = frozenset()

    def returns_kinds(self) -> FrozenSet[str]:
        return self.returns & _KINDS

    def return_params(self) -> FrozenSet[int]:
        return frozenset(
            p
            for p in (_token_param(t) for t in self.returns)
            if p is not None
        )


@dataclass(frozen=True)
class TaintEvent:
    """A tainted value reaching a canonical sink."""

    module: ModuleInfo = field(compare=False)
    lineno: int = 0
    col: int = 0
    sink: str = ""
    kinds: FrozenSet[str] = frozenset()
    #: callee qname when the sink is inside a callee (else empty)
    via: str = ""


# ---------------------------------------------------------------------------
# Set inference (shared with R002)
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


# ---------------------------------------------------------------------------
# The per-scope abstract interpreter
# ---------------------------------------------------------------------------


class _ScopeFlow:
    """Branch-insensitive taint propagation for one scope."""

    def __init__(
        self,
        analysis: "FlowAnalysis",
        module: ModuleInfo,
        body: Sequence[ast.stmt],
        fn: Optional[FunctionInfo],
        collect_events: bool,
    ) -> None:
        self.analysis = analysis
        self.policy = analysis.policy
        self.table = analysis.table
        self.module = module
        self.body = [
            s
            for s in body
            if not isinstance(
                s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ]
        self.fn = fn
        self.collect_events = collect_events
        self.class_name = fn.class_name if fn is not None else None
        #: name -> taint tokens
        self.taint: Dict[str, Set[str]] = {}
        #: name -> inferred class name
        self.types: Dict[str, str] = {}
        # summary accumulators
        self.ret_tokens: Set[str] = set()
        self.sink_params: Set[int] = set()
        # events (deduplicated by site+label)
        self._events: Set[Tuple[int, int, str, FrozenSet[str], str]] = set()
        self.taint_events: List[TaintEvent] = []
        self._seed_params()
        self._sets = _ScopeInference(
            self.body, {}, fn.node.args if fn is not None else None
        )
        self._run()

    # -- setup ---------------------------------------------------------

    def _seed_params(self) -> None:
        if self.fn is None:
            return
        bound_method = (
            self.fn.class_name is not None and not self.fn.is_staticmethod
        )
        for index, arg in enumerate(self._all_args(self.fn.node.args)):
            self.taint[arg.arg] = {_param_token(index)}
            ann = _annotation_name(arg.annotation)
            if ann is not None:
                self.types[arg.arg] = ann
            if index == 0 and bound_method and self.fn.class_name:
                self.types.setdefault(arg.arg, self.fn.class_name)

    @staticmethod
    def _all_args(args: ast.arguments) -> List[ast.arg]:
        return (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )

    # -- driver --------------------------------------------------------

    def _run(self) -> None:
        # Local fixpoint: later bindings can feed earlier uses through
        # loops; the lattice only grows, so iterate until stable.
        for _ in range(10):
            before = self._state_size()
            for stmt in self.body:
                self._stmt(stmt)
            if self._state_size() == before:
                break

    def _state_size(self) -> int:
        return (
            sum(len(v) for v in self.taint.values())
            + len(self.ret_tokens)
            + len(self.sink_params)
            + len(self._events)
        )

    # -- statements ----------------------------------------------------

    def _stmt(self, stmt: ast.stmt) -> None:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested defs are their own scope
            if isinstance(node, ast.Assign):
                self._assign(node.targets, node.value)
            elif isinstance(node, ast.AnnAssign):
                self._ann_assign(node)
            elif isinstance(node, ast.AugAssign):
                self._aug_assign(node)
            elif isinstance(node, ast.Return) and node.value is not None:
                self.ret_tokens |= self._taint_of(node.value)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._loop_bind(node.target, node.iter)
            elif isinstance(node, ast.withitem):
                if node.optional_vars is not None:
                    self._assign([node.optional_vars], node.context_expr)
            elif isinstance(node, ast.Call):
                # Evaluate for sink side effects even when the result
                # is discarded.
                self._taint_of(node)

    def _assign(
        self, targets: Sequence[ast.expr], value: ast.expr
    ) -> None:
        tokens = self._taint_of(value)
        typed = self._type_of(value)
        for target in targets:
            self._bind(target, value, tokens, typed)

    def _bind(
        self,
        target: ast.expr,
        value: ast.expr,
        tokens: Set[str],
        typed: Optional[str],
    ) -> None:
        if isinstance(target, ast.Name):
            if tokens:
                self.taint.setdefault(target.id, set()).update(tokens)
            if typed is not None:
                self.types.setdefault(target.id, typed)
        elif isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, (ast.Tuple, ast.List)) and len(
                value.elts
            ) == len(target.elts):
                for t, v in zip(target.elts, value.elts):
                    self._bind(t, v, self._taint_of(v), self._type_of(v))
            else:
                for t in target.elts:
                    self._bind(t, value, tokens, None)
        elif isinstance(target, ast.Attribute):
            self._check_attr_store_sink(target, tokens)

    def _ann_assign(self, node: ast.AnnAssign) -> None:
        ann = _annotation_name(node.annotation)
        if isinstance(node.target, ast.Name) and ann is not None:
            self.types.setdefault(node.target.id, ann)
        if node.value is not None:
            self._assign([node.target], node.value)

    def _aug_assign(self, node: ast.AugAssign) -> None:
        target = node.target
        tokens = self._taint_of(node.value)
        if isinstance(target, ast.Name):
            if tokens:
                self.taint.setdefault(target.id, set()).update(tokens)
        elif isinstance(target, ast.Attribute):
            self._check_attr_store_sink(target, tokens)

    def _loop_bind(self, target: ast.expr, source: ast.expr) -> None:
        tokens = set(self._taint_of(source))
        if self._sets.is_set(source):
            tokens.add(ORDER)
        if tokens:
            for name in _target_names(target):
                self.taint.setdefault(name, set()).update(tokens)

    # -- sinks ---------------------------------------------------------

    def _check_attr_store_sink(
        self, target: ast.Attribute, tokens: Set[str]
    ) -> None:
        label = self.policy.attr_store_sink(
            self._type_of(target.value), target.attr
        )
        if label is None:
            return
        self._record_sink(target, label, tokens, via="")

    def _record_sink(
        self, node: ast.AST, label: str, tokens: Set[str], via: str
    ) -> None:
        kinds = frozenset(tokens & _KINDS)
        for token in tokens:
            index = _token_param(token)
            if index is not None:
                self.sink_params.add(index)
        if not kinds:
            return
        key = (
            getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0),
            label,
            kinds,
            via,
        )
        if key in self._events:
            return
        self._events.add(key)
        if self.collect_events:
            self.taint_events.append(
                TaintEvent(
                    module=self.module,
                    lineno=getattr(node, "lineno", 0),
                    col=getattr(node, "col_offset", 0),
                    sink=label,
                    kinds=kinds,
                    via=via,
                )
            )

    # -- expressions ---------------------------------------------------

    def _taint_of(self, node: ast.expr) -> Set[str]:
        if isinstance(node, ast.Constant):
            return set()
        if isinstance(node, ast.Name):
            return set(self.taint.get(node.id, ()))
        if isinstance(node, ast.Attribute):
            return self._taint_of(node.value)
        if isinstance(node, ast.Subscript):
            return self._taint_of(node.value) | self._taint_of_any(
                [node.slice]
            )
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Lambda):
            return set()
        if isinstance(
            node,
            (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
        ):
            tokens: Set[str] = set()
            for gen in node.generators:
                tokens |= self._taint_of(gen.iter)
                if self._sets.is_set(gen.iter):
                    tokens.add(ORDER)
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    tokens |= self._taint_of(child)
            return tokens
        # Generic: union over child expressions (BinOp, BoolOp,
        # Compare, IfExp, f-strings, containers, Starred, ...).
        return self._taint_of_any(
            [c for c in ast.iter_child_nodes(node) if isinstance(c, ast.expr)]
        )

    def _taint_of_any(self, nodes: Iterable[ast.expr]) -> Set[str]:
        tokens: Set[str] = set()
        for node in nodes:
            tokens |= self._taint_of(node)
        return tokens

    # -- calls ---------------------------------------------------------

    def _call_view(self, call: ast.Call) -> CallView:
        func = call.func
        name = ""
        receiver: Optional[ast.expr] = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
            receiver = func.value
        dotted = self._resolved_dotted(func)
        receiver_type = (
            self._type_of(receiver) if receiver is not None else None
        )
        return CallView(
            call=call,
            name=name,
            dotted=dotted,
            receiver=receiver,
            receiver_type=receiver_type,
        )

    def _resolved_dotted(self, func: ast.expr) -> Optional[str]:
        parts: List[str] = []
        node: ast.expr = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        modules, members = self.table.imports.get(
            self.module.relpath, ({}, {})
        )
        head = parts[0]
        if head in modules:
            parts[0] = modules[head]
        elif head in members:
            parts[0] = members[head]
        return ".".join(parts)

    def _call(self, call: ast.Call) -> Set[str]:
        cv = self._call_view(call)
        arg_tokens = [self._taint_of(a) for a in call.args]
        kw_tokens = [
            (kw.arg, self._taint_of(kw.value)) for kw in call.keywords
        ]
        all_tokens: Set[str] = set()
        for tokens in arg_tokens:
            all_tokens |= tokens
        for _, tokens in kw_tokens:
            all_tokens |= tokens

        source = self.policy.source_kinds(cv)
        if source:
            return set(source) | all_tokens

        if cv.name == "sorted" and cv.receiver is None:
            # sorted() is the canonical ORDER sanitizer: the result no
            # longer depends on the input's iteration order.  RNG taint
            # survives — sorting random values is still random.
            return all_tokens - {ORDER}

        label = self.policy.sink_label(cv)
        if label is not None:
            for node, tokens in self._sink_args(call, arg_tokens, kw_tokens):
                self._record_sink(node, label, tokens, via="")

        resolved, bound = self._resolve(cv)
        if resolved is not None:
            return self._apply_summary(call, cv, resolved, bound)

        # Unresolved call: conservative taint union over receiver and
        # arguments.
        if cv.receiver is not None:
            all_tokens |= self._taint_of(cv.receiver)
        return all_tokens

    def _sink_args(
        self,
        call: ast.Call,
        arg_tokens: List[Set[str]],
        kw_tokens: List[Tuple[Optional[str], Set[str]]],
    ) -> List[Tuple[ast.AST, Set[str]]]:
        sites: List[Tuple[ast.AST, Set[str]]] = []
        for node, tokens in zip(call.args, arg_tokens):
            if tokens:
                sites.append((call, tokens))
        for (_, tokens), kw in zip(kw_tokens, call.keywords):
            if tokens:
                sites.append((call, tokens))
        return sites

    def _resolve(
        self, cv: CallView
    ) -> Tuple[Optional[FunctionInfo], bool]:
        """(callee, receiver-bound?) for a call, when it can be linked."""
        call = cv.call
        func = call.func
        table = self.table
        relpath = self.module.relpath
        if isinstance(func, ast.Name):
            local = table.function_in_module(relpath, func.id)
            if local is not None:
                return local, False
            member = table.imported_member(relpath, func.id)
            if member is not None:
                module_path, _, name = member.rpartition(".")
                target = table.module_relpath_for(module_path)
                if target is not None:
                    info = table.function_in_module(target, name)
                    if info is not None:
                        return info, False
            return None, False
        if isinstance(func, ast.Attribute) and cv.receiver is not None:
            receiver = cv.receiver
            # module alias: np.helper() / parallel.run_trial()
            if isinstance(receiver, ast.Name):
                modules, _ = table.imports.get(relpath, ({}, {}))
                dotted = modules.get(receiver.id)
                if dotted is not None:
                    target = table.module_relpath_for(dotted)
                    if target is not None:
                        info = table.function_in_module(target, func.attr)
                        if info is not None:
                            return info, False
                # unbound class access: ClassName.method(obj, ...)
                cls_name = self._class_named(receiver.id)
                if cls_name is not None:
                    info = table.resolve_method(cls_name, func.attr)
                    if info is not None:
                        return info, False
            receiver_type = cv.receiver_type
            if receiver_type is not None:
                info = table.resolve_method(receiver_type, func.attr)
                if info is not None:
                    return info, True
        return None, False

    def _class_named(self, name: str) -> Optional[str]:
        if name in self.table.classes:
            return name
        member = self.table.imported_member(self.module.relpath, name)
        if member is not None:
            bare = member.rpartition(".")[2]
            if bare in self.table.classes:
                return bare
        return None

    def _apply_summary(
        self,
        call: ast.Call,
        cv: CallView,
        callee: FunctionInfo,
        bound: bool,
    ) -> Set[str]:
        summary = self.analysis.summaries.get(
            callee.qname, FunctionSummary()
        )
        offset = (
            1
            if bound and callee.class_name and not callee.is_staticmethod
            else 0
        )
        mapped: List[Tuple[int, ast.expr]] = []
        if bound and offset == 1 and cv.receiver is not None:
            mapped.append((0, cv.receiver))
        for position, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                continue
            mapped.append((position + offset, arg))
        for kw in call.keywords:
            if kw.arg is None:
                continue
            index = callee.param_index(kw.arg)
            if index is not None:
                mapped.append((index, kw.value))

        taint_by_param: Dict[int, Set[str]] = {}
        for index, arg in mapped:
            taint_by_param.setdefault(index, set()).update(
                self._taint_of(arg)
            )
            if index in summary.sink_params:
                tokens = self._taint_of(arg)
                self._record_sink(
                    call,
                    f"a canonical sink inside {callee.qname}",
                    tokens,
                    via=callee.qname,
                )

        result: Set[str] = set(summary.returns_kinds())
        for index in summary.return_params():
            result |= taint_by_param.get(index, set())
        return result

    # -- type inference ------------------------------------------------

    def _type_of(self, node: Optional[ast.expr]) -> Optional[str]:
        if node is None:
            return None
        if isinstance(node, ast.Name):
            return self.types.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._type_of(node.value)
            if base is not None:
                cls = self.table.classes.get(base)
                if cls is not None:
                    return cls.attr_types.get(node.attr)
            return None
        if isinstance(node, ast.Call):
            cv = self._call_view(node)
            typed = self.policy.call_result_type(cv)
            if typed is not None:
                return typed
            constructed = self._class_named(cv.name) if cv.receiver is None else None
            if constructed is not None:
                return constructed
            # Bare-name constructor of a class we only know by import
            # (EventStore in a fixture tree without store sources).
            if (
                cv.receiver is None
                and cv.name
                and cv.name[0].isupper()
                and self.table.imported_member(
                    self.module.relpath, cv.name
                )
                is not None
            ):
                return cv.name
        return None


def _target_names(target: ast.expr) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for elt in target.elts:
            names.extend(_target_names(elt))
        return names
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []


def _annotation_name(ann: Optional[ast.expr]) -> Optional[str]:
    """Bare class name from an annotation (through Optional/quotes)."""
    if ann is None:
        return None
    if isinstance(ann, ast.Name):
        return ann.id
    if isinstance(ann, ast.Attribute):
        return ann.attr
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        try:
            return _annotation_name(ast.parse(ann.value, mode="eval").body)
        except SyntaxError:
            return None
    if isinstance(ann, ast.Subscript):
        base = _annotation_name(ann.value)
        if base == "Optional":
            inner = ann.slice
            return _annotation_name(inner) if isinstance(
                inner, ast.expr
            ) else None
    return None


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class FlowAnalysis:
    """Summaries at fixpoint + per-module taint events."""

    #: safety valve; real projects converge in a handful of rounds
    MAX_ROUNDS = 16

    def __init__(self, project: Project, policy: FlowPolicy) -> None:
        self.project = project
        self.policy = policy
        self.table = SymbolTable(project)
        self.summaries: Dict[str, FunctionSummary] = {}
        self.rounds = 0
        self._compute_summaries()
        self._taint_events: Dict[str, List[TaintEvent]] = {}
        self._collect_events()

    # -- summaries -----------------------------------------------------

    def _compute_summaries(self) -> None:
        functions = list(self.table.functions.values())
        for info in functions:
            self.summaries[info.qname] = FunctionSummary()
        for round_index in range(self.MAX_ROUNDS):
            self.rounds = round_index + 1
            changed = False
            for info in functions:
                updated = self._summarize(info)
                if updated != self.summaries[info.qname]:
                    self.summaries[info.qname] = updated
                    changed = True
            if not changed:
                break

    def _summarize(self, info: FunctionInfo) -> FunctionSummary:
        flow = _ScopeFlow(
            self,
            info.module,
            info.node.body,
            info,
            collect_events=False,
        )
        return FunctionSummary(
            returns=frozenset(flow.ret_tokens),
            sink_params=frozenset(flow.sink_params),
        )

    # -- events --------------------------------------------------------

    def _collect_events(self) -> None:
        for module in self.project.modules:
            taint: List[TaintEvent] = []
            for body, info in self._module_scopes(module):
                flow = _ScopeFlow(
                    self, module, body, info, collect_events=True
                )
                taint.extend(flow.taint_events)
            self._taint_events[module.relpath] = taint

    def _module_scopes(
        self, module: ModuleInfo
    ) -> List[Tuple[Sequence[ast.stmt], Optional[FunctionInfo]]]:
        scopes: List[Tuple[Sequence[ast.stmt], Optional[FunctionInfo]]] = [
            (module.tree.body, None)
        ]
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._info_for(module, node)
                scopes.append((node.body, info))
        return scopes

    def _info_for(
        self, module: ModuleInfo, node: _FunctionNode
    ) -> FunctionInfo:
        for info in self.table.functions.values():
            if info.node is node:
                return info
        # Nested def: analyzable, but not addressable by callers.
        return FunctionInfo(
            qname=f"{module.relpath}::<nested>.{node.name}",
            module=module,
            node=node,
            class_name=_enclosing_class(module.tree, node),
        )

    def taint_events(self, module: ModuleInfo) -> List[TaintEvent]:
        return self._taint_events.get(module.relpath, [])


def _enclosing_class(
    tree: ast.Module, fn: _FunctionNode
) -> Optional[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for child in ast.walk(node):
                if child is fn:
                    return node.name
    return None
