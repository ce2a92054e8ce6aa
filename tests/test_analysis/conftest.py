"""Shared fixtures for the reprolint test suite.

Fixtures live under ``fixtures/rules/R0xx`` — one mini-project per
rule, each mimicking the real package layout (``repro/models``,
``repro/faults``, ...) so path-scoped rules behave exactly as they do
on ``src/repro``.  Rule tests scan only their own directory, so adding
a fixture for one rule can never shift another rule's counts; CLI and
reporter tests scan the combined tree.  Fixture files are parsed by
the linter, never imported.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List

import pytest

from repro.analysis.core import Finding, run_analysis
from repro.analysis.rules import default_registry

RULES_ROOT = Path(__file__).parent / "fixtures" / "rules"
#: the combined tree (every per-rule mini-project), for CLI tests
FIXTURE_ROOT = RULES_ROOT
REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"


@pytest.fixture(scope="session")
def fixture_findings() -> List[Finding]:
    """One analysis run over the combined fixture tree, shared by the
    CLI/reporter tests (the driver is deterministic, so sharing is
    safe)."""
    return run_analysis([RULES_ROOT], default_registry().rules())


@pytest.fixture(scope="session")
def rule_findings() -> Callable[[str], List[Finding]]:
    """Per-rule analysis runs: ``rule_findings("R011")`` scans only
    ``fixtures/rules/R011`` (with the full registry, so unexpected
    cross-rule hits in a fixture are visible)."""
    cache: Dict[str, List[Finding]] = {}

    def get(rule_id: str) -> List[Finding]:
        if rule_id not in cache:
            cache[rule_id] = run_analysis(
                [RULES_ROOT / rule_id], default_registry().rules()
            )
        return cache[rule_id]

    return get


def findings_for(
    findings: List[Finding], rule: str, relpath: str = ""
) -> List[Finding]:
    return [
        f
        for f in findings
        if f.rule == rule and f.path.startswith(relpath)
    ]
