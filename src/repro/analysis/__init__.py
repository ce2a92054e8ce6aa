"""reprolint — AST-based determinism & contract linter for the
reputation stack.

The parallel runtime (DESIGN.md §9) and the incremental scoring engine
(§8) rest on invariants no type checker sees: no ambient randomness or
wall-clock reads outside the modules that time themselves, no
hash-salted iteration feeding a ranking, no per-row loops over store
columns, no swallowed exceptions on merge paths, and no bare float
equality on scores.  This package checks them statically:

    python -m repro.analysis src/repro

The rules are catalogued in DESIGN.md §10 (and by ``--list-rules``),
along with the ``# reprolint: disable=R00x`` suppression.  R011
resolves helpers across imports through the project-wide
:class:`~repro.analysis.flow.SymbolTable`.  That an ambient value never
reaches canonical bytes is checked at run time, by
``tests/test_ambient_oracle.py``.
"""

from repro.analysis.cli import main
from repro.analysis.config import AnalysisConfig
from repro.analysis.core import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    RuleRegistry,
    run_analysis,
)
from repro.analysis.flow import SymbolTable
from repro.analysis.reporters import render_json, render_sarif, render_text
from repro.analysis.rules import DEFAULT_REGISTRY, default_registry

__all__ = [
    "AnalysisConfig",
    "DEFAULT_REGISTRY",
    "Finding",
    "ModuleInfo",
    "Project",
    "Rule",
    "RuleRegistry",
    "SymbolTable",
    "default_registry",
    "main",
    "render_json",
    "render_sarif",
    "render_text",
    "run_analysis",
]
