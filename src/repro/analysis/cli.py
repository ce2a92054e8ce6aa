"""The ``python -m repro.analysis`` command line.

Exit codes: 0 clean (after suppressions and baseline), 1 findings,
2 usage or configuration error — so CI can distinguish "contract
violated" from "lint run itself broke".
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.baseline import Baseline, BaselineError
from repro.analysis.config import (
    DEFAULT_BASELINE_NAME,
    AnalysisConfig,
    load_pyproject_config,
    resolve_baseline_path,
)
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
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="baseline file of grandfathered findings "
        "(default: nearest reprolint-baseline.json)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the resolved baseline (default: "
        f"./{DEFAULT_BASELINE_NAME}) from current findings and exit 0",
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

    if config.update_baseline:
        target = config.baseline or Path.cwd() / DEFAULT_BASELINE_NAME
        Baseline.empty().write(target, findings)
        print(
            f"reprolint: baseline updated with {len(findings)} "
            f"finding(s) at {target}"
        )
        return EXIT_CLEAN

    if config.write_baseline:
        if config.baseline is None:
            print(
                "reprolint: --write-baseline needs --baseline FILE "
                "(or a discoverable reprolint-baseline.json)",
                file=sys.stderr,
            )
            return EXIT_USAGE
        Baseline.empty().write(config.baseline, findings)
        print(
            f"reprolint: wrote {len(findings)} finding(s) to "
            f"{config.baseline}"
        )
        return EXIT_CLEAN

    grandfathered = 0
    if config.baseline is not None and config.baseline.exists():
        try:
            baseline = Baseline.load(config.baseline)
        except BaselineError as exc:
            print(f"reprolint: {exc}", file=sys.stderr)
            return EXIT_USAGE
        findings, grandfathered = baseline.filter(findings)

    if config.output_format == "sarif":
        report = render_sarif(
            findings, files_scanned, grandfathered, rules=rules
        )
    elif config.output_format == "json":
        report = render_json(findings, files_scanned, grandfathered)
    else:
        report = render_text(findings, files_scanned, grandfathered)
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

    baseline = resolve_baseline_path(
        explicit=args.baseline,
        no_baseline=args.no_baseline,
        pyproject_value=pyproject.get("baseline"),
        cwd=cwd,
    )
    config = AnalysisConfig(
        paths=paths,
        select=select,
        ignore=ignore,
        baseline=baseline,
        output_format=args.format,
        output_file=args.output,
        write_baseline=args.write_baseline,
        update_baseline=args.update_baseline,
    )
    return run(config)
