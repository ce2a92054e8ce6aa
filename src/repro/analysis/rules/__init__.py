"""The reprolint rule catalogue.

Importing this package builds :data:`DEFAULT_REGISTRY` — the rules the
CLI runs.  To add a rule: subclass :class:`repro.analysis.core.Rule`
in one of the modules here (or a new one), then register it below.
DESIGN.md §10 documents the workflow end to end.
"""

from __future__ import annotations

from repro.analysis.core import RuleRegistry
from repro.analysis.rules.columnar import ColumnarLoopRule
from repro.analysis.rules.determinism import (
    GlobalNondeterminismRule,
    UnorderedIterationRule,
)
from repro.analysis.rules.floatcmp import FloatEqualityRule
from repro.analysis.rules.exceptions import SwallowedExceptionRule

__all__ = ["DEFAULT_REGISTRY", "default_registry"]


def default_registry() -> RuleRegistry:
    """A fresh registry holding every shipped rule."""
    registry = RuleRegistry()
    registry.register(GlobalNondeterminismRule())
    registry.register(UnorderedIterationRule())
    registry.register(FloatEqualityRule())
    registry.register(ColumnarLoopRule())
    registry.register(SwallowedExceptionRule())
    return registry


DEFAULT_REGISTRY = default_registry()
