"""The shipped tree must lint clean — the CI gate's exact invocation.

These tests are the acceptance criterion for the linter itself: every
invariant rule passes on ``src/repro`` with no finding, so a
regression in any model/runtime file (or an over-eager new rule) shows
up here before it reaches CI.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.analysis.core import run_analysis
from repro.analysis.rules import default_registry
from tests.test_analysis.conftest import REPO_ROOT, SRC_REPRO


def test_src_repro_lints_clean_in_process():
    findings = run_analysis([SRC_REPRO], default_registry().rules())
    assert findings == [], "\n".join(
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in findings
    )


def test_cli_smoke_exits_zero():
    """``python -m repro.analysis src/repro`` — the CI lint gate."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src/repro",
         "--format", "json"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    payload = json.loads(result.stdout)
    assert payload["total"] == 0
    assert payload["files_scanned"] > 80


def test_list_rules_names_the_catalogue():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--list-rules"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    listed = [line.split()[0] for line in result.stdout.splitlines()]
    assert listed == ["R001", "R002", "R006", "R007", "R011"]
