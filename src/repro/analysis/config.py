"""Analysis configuration, with optional ``[tool.reprolint]`` support.

Precedence: CLI flags > ``pyproject.toml`` ``[tool.reprolint]`` >
built-in defaults.  The pyproject layer needs :mod:`tomllib`
(Python 3.11+); on older interpreters it is silently skipped and the
CLI flags/defaults carry the full configuration, so the linter itself
stays dependency-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

try:  # Python 3.11+
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - version-dependent
    tomllib = None  # type: ignore[assignment]

__all__ = ["AnalysisConfig", "load_pyproject_config"]


@dataclass
class AnalysisConfig:
    """Everything one analysis run needs."""

    paths: List[Path] = field(default_factory=list)
    select: Optional[List[str]] = None
    ignore: List[str] = field(default_factory=list)
    output_format: str = "text"
    output_file: Optional[Path] = None


def load_pyproject_config(start: Path) -> dict:
    """``[tool.reprolint]`` from the nearest pyproject.toml at/above
    *start* (empty dict when absent or when tomllib is unavailable)."""
    if tomllib is None:
        return {}
    directory = start if start.is_dir() else start.parent
    for candidate in [directory, *directory.parents]:
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            try:
                with pyproject.open("rb") as handle:
                    data = tomllib.load(handle)
            except (OSError, tomllib.TOMLDecodeError):
                return {}
            tool = data.get("tool", {})
            section = tool.get("reprolint", {})
            return section if isinstance(section, dict) else {}
    return {}
