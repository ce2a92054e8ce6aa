"""reprolint — AST-based determinism & contract linter for the
reputation stack.

The parallel runtime (DESIGN.md §9) and the incremental scoring engine
(§8) rest on invariants no type checker sees: no ambient randomness or
wall-clock reads, no hash-salted iteration feeding a ranking, no
per-row loops over store columns, no swallowed exceptions on merge
paths, and no bare float equality on scores.  This package checks them
statically:

    python -m repro.analysis src/repro

The rules are catalogued in DESIGN.md §10 (and by ``--list-rules``),
along with the ``# reprolint: disable=R00x`` suppression.  R009 and
R011 run on the interprocedural dataflow engine in
:mod:`repro.analysis.flow` (per-function summaries composed over the
project call graph to a fixpoint).
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
from repro.analysis.flow import FlowAnalysis, FlowPolicy, SymbolTable
from repro.analysis.reporters import render_json, render_sarif, render_text
from repro.analysis.rules import DEFAULT_REGISTRY, default_registry

__all__ = [
    "AnalysisConfig",
    "DEFAULT_REGISTRY",
    "Finding",
    "FlowAnalysis",
    "FlowPolicy",
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
