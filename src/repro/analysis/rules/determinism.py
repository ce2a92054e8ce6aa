"""Determinism rules.

R001 — no global nondeterminism sources.  Every stochastic component
must draw from an injected ``numpy.random.Generator`` (see
``repro/common/randomness.py``, the one blessed module).  Global
``random`` state, the ``numpy.random`` legacy singleton, wall-clock
reads, uuid4, and ``os.urandom`` all make ``parallel == serial``
unprovable, so they are banned at lint time.  The process-local timers
are the wall-clock channel's: only the modules in
:data:`TIMER_MODULES` may read one, which keeps the two channels apart
syntactically.  Whether an ambient value reaches canonical bytes
anyway is ``tests/test_ambient_oracle.py``'s question, not a rule's.

R002 — no iteration over unordered collections on scoring, ranking, or
parallel merge paths.  ``set``/``frozenset`` iteration order depends on
hash values, and ``str`` hashing is salted per process — so a float
accumulation or a dict built in set order can differ between a pool
worker and the serial fallback.  Dict views are insertion-ordered in
CPython and therefore deterministic given deterministic insertion;
they only become unordered when pulled into set algebra, which this
rule tracks.  The cross-shard merge primitives (``merge_from``,
``merge_snapshots``, ``apply_delta``, ``merge_delta``) count as
order-sensitive calls: the ``1 shard == N shards`` byte gate rests on
merging deltas in spec order.  The fix is always ``sorted(...)``.
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
from repro.analysis.flow import _AttrTypes, _ScopeInference

__all__ = [
    "BANNED_NAMES",
    "TIMER_MODULES",
    "TIMER_NAMES",
    "GlobalNondeterminismRule",
    "UnorderedIterationRule",
    "ambient_violation",
]


# ---------------------------------------------------------------------------
# R001
# ---------------------------------------------------------------------------

#: exact dotted names that read ambient nondeterministic state
BANNED_NAMES = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "uuid.uuid1": "nondeterministic id",
    "uuid.uuid4": "nondeterministic id",
    "os.urandom": "OS entropy",
}

#: process-local timers and the pid: benchmark timing reads them
#: legitimately, so R001 allows them in :data:`TIMER_MODULES`, and only
#: there
TIMER_NAMES = frozenset(
    {
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "os.getpid",
    }
)

#: the modules that time themselves, the only ones R001 lets read a timer
TIMER_MODULES = (
    "serve/loadgen.py",
    "experiments/sharded.py",
    "experiments/parallel.py",
)

#: members of numpy.random that are seeded constructors, not the
#: legacy global singleton
_NUMPY_RANDOM_ALLOWED = {
    "Generator",
    "default_rng",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
    "RandomState",  # explicit seeded instance; the singleton is the hazard
}

#: members of the stdlib random module that construct an instance
#: rather than touching module-level state
_RANDOM_ALLOWED = {"Random"}


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> canonical dotted path, from the module's imports."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".")[0]
                canonical = item.name if item.asname else local
                aliases[local] = canonical
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.level:
                continue  # relative imports never reach the banned modules
            for item in node.names:
                local = item.asname or item.name
                aliases[local] = f"{node.module}.{item.name}"
    return aliases


def ambient_violation(full: str) -> Optional[str]:
    """Why the canonical dotted name *full* reads ambient nondeterministic
    state, or None when it does not (timers included)."""
    parts = full.split(".")
    if full in BANNED_NAMES:
        return (
            f"{full} is a {BANNED_NAMES[full]}; inject time/ids "
            "through the simulation clock or a seeded generator"
        )
    if full in TIMER_NAMES:
        return (
            f"{full} is a process-local timer; only "
            f"{', '.join(TIMER_MODULES)} may read one"
        )
    if parts[0] == "secrets" and len(parts) > 1:
        return (
            f"{full} draws OS entropy; use "
            "repro.common.randomness.make_rng"
        )
    if parts[0] == "random" and len(parts) > 1:
        if parts[1] in _RANDOM_ALLOWED:
            return None
        return (
            f"{full} touches the random module's global state; use "
            "a numpy Generator from repro.common.randomness"
        )
    if (
        len(parts) > 2
        and parts[0] == "numpy"
        and parts[1] == "random"
        and parts[2] not in _NUMPY_RANDOM_ALLOWED
    ):
        return (
            f"{full} uses numpy's global RNG singleton; use "
            "repro.common.randomness.make_rng / SeedSequenceFactory"
        )
    return None


class GlobalNondeterminismRule(Rule):
    rule_id = "R001"
    title = "no global nondeterminism sources"
    exempt = ("common/randomness.py",)

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        aliases = _import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            dotted = dotted_name(node)
            if dotted is None:
                continue
            head, _, rest = dotted.partition(".")
            canonical = aliases.get(head)
            if canonical is None:
                continue
            full = canonical + ("." + rest if rest else "")
            if full in TIMER_NAMES and module.relpath in TIMER_MODULES:
                continue
            message = ambient_violation(full)
            if message is not None:
                yield module.finding(node, self.rule_id, message)


# ---------------------------------------------------------------------------
# R002
# ---------------------------------------------------------------------------

#: calls whose output leaks iteration order (sorted() is the remedy
#: and set()/frozenset()/len()/any()/all() are order-insensitive)
_ORDER_SENSITIVE_CALLS = {
    "list",
    "tuple",
    "sum",
    "min",
    "max",
    "enumerate",
    "zip",
    "map",
    "filter",
    "iter",
    "next",
    "reversed",
    # merge primitives: their call order becomes interner/counter order
    "merge_from",
    "merge_snapshots",
    "apply_delta",
    "merge_delta",
}


class UnorderedIterationRule(Rule):
    rule_id = "R002"
    title = "no unordered iteration on scoring/ranking/merge paths"
    scopes = (
        "models/",
        "core/selection.py",
        "experiments/parallel.py",
        "experiments/sharded.py",
        "obs/",
        "serve/",
        "store/",
        "sim/network.py",
    )

    _MESSAGE = (
        "iteration over a set has hash-salted, process-dependent order "
        "on a scoring/ranking/merge path; wrap the iterable in sorted(...)"
    )

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        empty_attrs: Dict[str, str] = {}
        # Module-level set bindings (`PEERS = {...}`) are visible in
        # every function below them — seed each scope with them.
        module_sets = _ScopeInference(
            self._toplevel_stmts(module.tree.body), empty_attrs
        ).set_names
        # Module-level statements (outside any class/function).
        yield from self._check_scope(
            module, module.tree.body, empty_attrs, None, toplevel=True
        )
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                attrs = _AttrTypes(node).kinds
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        yield from self._check_scope(
                            module, item.body, attrs, item.args,
                            seed=module_sets,
                        )
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and not self._is_method(node, module.tree):
                yield from self._check_scope(
                    module, node.body, empty_attrs, node.args,
                    seed=module_sets,
                )

    @staticmethod
    def _is_method(fn: ast.AST, tree: ast.Module) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and fn in node.body:
                return True
        return False

    @staticmethod
    def _toplevel_stmts(body: List[ast.stmt]) -> List[ast.stmt]:
        """Direct statements only; nested defs get their own scope."""
        return [
            s
            for s in body
            if not isinstance(
                s,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            )
        ]

    def _check_scope(
        self,
        module: ModuleInfo,
        body: List[ast.stmt],
        attr_types: Dict[str, str],
        params: Optional[ast.arguments],
        toplevel: bool = False,
        seed: Optional[Set[str]] = None,
    ) -> Iterator[Finding]:
        stmts = self._toplevel_stmts(body) if toplevel else body
        scope = _ScopeInference(stmts, attr_types, params, seed)
        seen: Set[Tuple[int, int]] = set()
        for stmt in stmts:
            for node in ast.walk(stmt):
                if not toplevel and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue  # nested defs are visited as methods/functions
                for site in self._order_sensitive_sites(node, scope):
                    key = (
                        getattr(site, "lineno", 0),
                        getattr(site, "col_offset", 0),
                    )
                    if key in seen:
                        continue
                    seen.add(key)
                    yield module.finding(
                        site, self.rule_id, self._MESSAGE
                    )

    @staticmethod
    def _order_sensitive_sites(
        node: ast.AST, scope: _ScopeInference
    ) -> List[ast.AST]:
        sites: List[ast.AST] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if scope.is_set(node.iter):
                sites.append(node.iter)
        elif isinstance(
            node,
            (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
        ):
            for gen in node.generators:
                if scope.is_set(gen.iter):
                    sites.append(gen.iter)
        elif isinstance(node, ast.Call):
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else ""
            )
            if name in _ORDER_SENSITIVE_CALLS or name == "join":
                for arg in node.args:
                    if scope.is_set(arg):
                        sites.append(arg)
        return sites
