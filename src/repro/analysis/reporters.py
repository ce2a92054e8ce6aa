"""Finding reporters: human text, machine JSON, and SARIF 2.1.0.

All formats render findings in their canonical ``(path, line, col,
rule)`` order — the driver sorts, the reporters never re-order — so a
report is byte-stable for identical trees (the property CI relies on
when diffing the uploaded JSON artifact between runs).

The SARIF output targets GitHub code scanning: upload it with
``github/codeql-action/upload-sarif`` and findings appear as inline
annotations on the PR diff.  Finding paths are package-relative (the
linter's stability contract), so the run carries an
``originalUriBaseIds`` entry mapping them back under ``src/repro/``.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, Optional, Sequence

from repro.analysis.core import Finding, Rule

__all__ = ["render_text", "render_json", "render_sarif"]

#: where package-relative finding paths live in this repository
PACKAGE_ROOT_URI = "src/repro/"

_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
_SARIF_VERSION = "2.1.0"


def render_text(findings: List[Finding], files_scanned: int) -> str:
    lines = [
        f"{f.path}:{f.line}:{f.col + 1}: {f.rule} {f.message}"
        for f in findings
    ]
    by_rule = Counter(f.rule for f in findings)
    if findings:
        summary = ", ".join(
            f"{rule}: {count}" for rule, count in sorted(by_rule.items())
        )
        lines.append("")
        lines.append(
            f"{len(findings)} finding(s) in {files_scanned} file(s) "
            f"({summary})"
        )
    else:
        lines.append(f"reprolint: clean ({files_scanned} file(s) scanned)")
    return "\n".join(lines) + "\n"


def render_json(findings: List[Finding], files_scanned: int) -> str:
    by_rule: Dict[str, int] = dict(
        sorted(Counter(f.rule for f in findings).items())
    )
    payload = {
        "files_scanned": files_scanned,
        "total": len(findings),
        "by_rule": by_rule,
        "findings": [f.as_dict() for f in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_sarif(
    findings: List[Finding],
    files_scanned: int,
    rules: Optional[Sequence[Rule]] = None,
) -> str:
    """SARIF 2.1.0 log with one run.

    ``rules`` populates ``tool.driver.rules`` so code-scanning UIs can
    show rule titles; rules that produced no finding are listed too —
    the absence of a result under a listed rule is information.
    """
    rule_entries = [
        {
            "id": rule.rule_id,
            "name": rule.title,
            "shortDescription": {"text": rule.title},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in (rules or [])
    ]
    results = [
        {
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.path,
                            "uriBaseId": "PACKAGEROOT",
                        },
                        "region": {
                            "startLine": max(f.line, 1),
                            "startColumn": f.col + 1,
                        },
                    }
                }
            ],
        }
        for f in findings
    ]
    payload = {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "reprolint",
                        "rules": rule_entries,
                    }
                },
                "originalUriBaseIds": {
                    "PACKAGEROOT": {"uri": PACKAGE_ROOT_URI}
                },
                "results": results,
                "properties": {"filesScanned": files_scanned},
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
