"""The ``python -m repro.analysis`` command line.

Exit codes: 0 clean (after suppressions), 1 findings,
2 usage or configuration error — so CI can distinguish "contract
violated" from "lint run itself broke".
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.config import AnalysisConfig, load_pyproject_config
from repro.analysis.core import Finding, iter_python_files, run_analysis
from repro.analysis.reporters import render_json, render_sarif, render_text
from repro.analysis.rules import DEFAULT_REGISTRY

__all__ = ["main", "build_parser", "run"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "reprolint: AST-based determinism & contract linter for "
            "the reputation stack (rules: --list-rules, DESIGN.md §10)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: from "
        "[tool.reprolint] paths, else src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text); sarif targets GitHub "
        "code scanning",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write the report to FILE (CI artifact)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _split_rules(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def _default_paths(pyproject: dict, cwd: Path) -> List[Path]:
    configured = pyproject.get("paths")
    if isinstance(configured, list) and configured:
        return [cwd / str(p) for p in configured]
    fallback = cwd / "src" / "repro"
    return [fallback if fallback.is_dir() else cwd]


def run(config: AnalysisConfig) -> int:
    """Execute one analysis run; returns the process exit code."""
    for path in config.paths:
        if not path.exists():
            print(
                f"reprolint: no such path: {path}", file=sys.stderr
            )
            return EXIT_USAGE
    try:
        rules = DEFAULT_REGISTRY.rules(
            select=config.select, ignore=config.ignore
        )
    except KeyError as exc:
        print(f"reprolint: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE

    findings: List[Finding] = run_analysis(config.paths, rules)
    files_scanned = len(iter_python_files(config.paths))

    if config.output_format == "sarif":
        report = render_sarif(findings, files_scanned, rules=rules)
    elif config.output_format == "json":
        report = render_json(findings, files_scanned)
    else:
        report = render_text(findings, files_scanned)
    if config.output_file is not None:
        config.output_file.write_text(report, encoding="utf-8")
    print(report, end="")
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in DEFAULT_REGISTRY.ids():
            rule = DEFAULT_REGISTRY.get(rule_id)
            print(f"{rule_id}  {rule.title}")
        return EXIT_CLEAN

    cwd = Path.cwd()
    pyproject = load_pyproject_config(cwd)
    paths = list(args.paths) or _default_paths(pyproject, cwd)

    select = _split_rules(args.select)
    if select is None:
        configured = pyproject.get("select")
        if isinstance(configured, list) and configured:
            select = [str(rule) for rule in configured]
    ignore = _split_rules(args.ignore)
    if ignore is None:
        configured = pyproject.get("ignore")
        ignore = (
            [str(rule) for rule in configured]
            if isinstance(configured, list)
            else []
        )

    config = AnalysisConfig(
        paths=paths,
        select=select,
        ignore=ignore,
        output_format=args.format,
        output_file=args.output,
    )
    return run(config)
