"""reprolint core: findings, rules, suppressions, and the analysis driver.

The linter turns the repository's determinism and cache-coherence
invariants (DESIGN.md §6, §8, §9) into machine-checked rules that run
at lint time instead of test time.  The moving parts:

* :class:`Finding` — one diagnostic, anchored at (path, line, col).
* :class:`Rule` — a named check over one parsed module, with access to
  the whole :class:`Project` for cross-file contracts (e.g. an inert
  helper imported from another module).
* :class:`Project` — every scanned module parsed once, shared by all
  rules, so project-level rules stay O(files) not O(files²).
* suppressions — ``# reprolint: disable=R001`` on the offending line
  (or on a comment line directly above it) silences a finding of
  any rule whose ``suppressible`` flag is set.
* the driver — :func:`run_analysis` walks paths, parses, runs rules,
  applies suppressions, and returns findings sorted
  by ``(path, line, col, rule)`` so output is byte-stable across runs.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "ModuleInfo",
    "Project",
    "Rule",
    "RuleRegistry",
    "dotted_name",
    "iter_python_files",
    "parse_module",
    "run_analysis",
    "suppressed_rules",
]

#: ``# reprolint: disable=R001,R002`` / ``# reprolint: disable=all``
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+|all)"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic.

    Ordering is (path, line, col, rule) — the canonical report order,
    which keeps CI diffs deterministic.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str = field(compare=False)
    #: the stripped source line (in the JSON report)
    content: str = field(compare=False, default="")

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "content": self.content,
        }


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: Path
    #: path relative to the ``repro`` package root (or the scan root),
    #: with ``/`` separators — what rule scopes match against
    relpath: str
    source: str
    tree: ast.Module
    lines: List[str]

    def line_at(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def finding(
        self, node: ast.AST, rule: str, message: str
    ) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=self.relpath,
            line=lineno,
            col=col,
            rule=rule,
            message=message,
            content=self.line_at(lineno).strip(),
        )


@dataclass
class Project:
    """Every scanned module, parsed once and shared by all rules."""

    modules: List[ModuleInfo]
    #: scratch space for per-project memoisation (e.g. R011 builds one
    #: symbol table and inert-function set per project); keyed by a
    #: caller-chosen string
    caches: Dict[str, object] = field(default_factory=dict)
    _by_relpath: Dict[str, ModuleInfo] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._by_relpath = {m.relpath: m for m in self.modules}

    def module(self, relpath: str) -> Optional[ModuleInfo]:
        return self._by_relpath.get(relpath)


class Rule:
    """Base class for one lint rule.

    Subclasses set :attr:`rule_id`/:attr:`title` and implement
    :meth:`check`.  :meth:`applies_to` scopes the rule to parts of the
    tree (paths are package-relative, ``/``-separated).
    """

    rule_id: str = ""
    title: str = ""
    #: relpath prefixes the rule runs on; empty tuple = every file
    scopes: Tuple[str, ...] = ()
    #: relpath prefixes the rule never runs on (e.g. the blessed
    #: randomness module)
    exempt: Tuple[str, ...] = ()
    #: whether ``# reprolint: disable=`` comments silence the rule
    suppressible: bool = True

    def applies_to(self, relpath: str) -> bool:
        if any(relpath.startswith(prefix) for prefix in self.exempt):
            return False
        if not self.scopes:
            return True
        return any(relpath.startswith(prefix) for prefix in self.scopes)

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rule {self.rule_id}: {self.title}>"


class RuleRegistry:
    """Rule-id-indexed collection with select/ignore filtering."""

    def __init__(self) -> None:
        self._rules: Dict[str, Rule] = {}

    def register(self, rule: Rule) -> Rule:
        if not rule.rule_id:
            raise ValueError("rule must set rule_id")
        if rule.rule_id in self._rules:
            raise ValueError(f"duplicate rule id: {rule.rule_id!r}")
        self._rules[rule.rule_id] = rule
        return rule

    def get(self, rule_id: str) -> Rule:
        try:
            return self._rules[rule_id]
        except KeyError:
            raise KeyError(f"unknown rule: {rule_id!r}") from None

    def ids(self) -> List[str]:
        return sorted(self._rules)

    def rules(
        self,
        select: Optional[Sequence[str]] = None,
        ignore: Optional[Sequence[str]] = None,
    ) -> List[Rule]:
        wanted = list(select) if select else self.ids()
        unknown = [r for r in wanted if r not in self._rules]
        unknown += [r for r in (ignore or ()) if r not in self._rules]
        if unknown:
            raise KeyError(
                "unknown rule(s): " + ", ".join(sorted(set(unknown)))
            )
        dropped = set(ignore or ())
        return [
            self._rules[rid] for rid in sorted(wanted) if rid not in dropped
        ]

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def suppressed_rules(module: ModuleInfo, lineno: int) -> frozenset:
    """Rule ids silenced at *lineno*.

    A suppression comment counts when it sits on the flagged line
    itself or alone on the line directly above it; ``disable=all``
    returns the sentinel ``{"all"}``.
    """
    ids: set = set()
    for candidate in (lineno, lineno - 1):
        text = module.line_at(candidate)
        if candidate != lineno and not text.lstrip().startswith("#"):
            continue
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        spec = match.group(1).strip()
        if spec == "all":
            return frozenset({"all"})
        ids.update(part.strip() for part in spec.split(",") if part.strip())
    return frozenset(ids)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Every ``.py`` file under *paths*, sorted for determinism."""
    files: set = set()
    for path in paths:
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def package_relpath(path: Path) -> str:
    """Path relative to the innermost ``repro`` package directory.

    ``src/repro/models/beta.py`` → ``models/beta.py`` so rule scopes
    are stable no matter where the tree is checked out or how the CLI
    was pointed at it.  Files outside a ``repro`` directory keep their
    trailing two components (enough for fixture trees).
    """
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i + 1:])
    return "/".join(parts[-2:]) if len(parts) >= 2 else path.name


def parse_module(path: Path) -> Optional[ModuleInfo]:
    """Parse one file; returns None for unreadable/unparsable files."""
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError):
        return None
    return ModuleInfo(
        path=path,
        relpath=package_relpath(path),
        source=source,
        tree=tree,
        lines=source.splitlines(),
    )


def build_project(paths: Sequence[Path]) -> Project:
    modules = []
    for file in iter_python_files(paths):
        info = parse_module(file)
        if info is not None:
            modules.append(info)
    return Project(modules=modules)


def run_analysis(
    paths: Sequence[Path],
    rules: Iterable[Rule],
) -> List[Finding]:
    """Run *rules* over every Python file under *paths*.

    Findings are de-duplicated, suppression comments are honoured, and
    the result is sorted by ``(path, line, col, rule)`` — the stability
    contract that keeps CI diffs deterministic.
    """
    project = build_project(paths)
    findings: set = set()
    for rule in rules:
        for module in project.modules:
            if not rule.applies_to(module.relpath):
                continue
            for finding in rule.check(module, project):
                silenced = suppressed_rules(module, finding.line)
                if rule.suppressible and (
                    "all" in silenced or finding.rule in silenced
                ):
                    continue
                findings.add(finding)
    return sorted(findings)
