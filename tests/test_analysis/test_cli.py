"""CLI behaviour: exit codes, reporters, determinism."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.cli import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    run,
)
from repro.analysis.config import AnalysisConfig
from repro.analysis.core import run_analysis
from repro.analysis.rules import default_registry
from tests.test_analysis.conftest import FIXTURE_ROOT


def _config(**overrides) -> AnalysisConfig:
    base = dict(paths=[FIXTURE_ROOT])
    base.update(overrides)
    return AnalysisConfig(**base)


class TestExitCodes:
    def test_findings_exit_one(self, capsys):
        assert run(_config()) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "R001" in out and "finding(s)" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n")
        assert run(_config(paths=[tmp_path])) == EXIT_CLEAN
        assert "clean" in capsys.readouterr().out

    def test_unknown_rule_is_usage_error(self, capsys):
        assert run(_config(select=["R999"])) == EXIT_USAGE
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys):
        assert (
            run(_config(paths=[Path("/nonexistent/nowhere")]))
            == EXIT_USAGE
        )

    def test_select_narrows_rules(self, capsys):
        assert run(_config(select=["R011"])) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "R011" in out
        assert "R001" not in out

    def test_ignore_drops_rules(self, capsys):
        code = run(
            _config(ignore=["R001", "R002", "R006", "R007", "R011"])
        )
        assert code == EXIT_CLEAN
        capsys.readouterr()


class TestJsonReport:
    def test_json_payload_shape(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code = run(
            _config(output_format="json", output_file=out_file)
        )
        assert code == EXIT_FINDINGS
        payload = json.loads(out_file.read_text())
        assert payload["total"] == len(payload["findings"])
        assert payload["by_rule"]["R001"] == 12
        assert set(payload["findings"][0]) == {
            "path", "line", "col", "rule", "message", "content",
        }
        # stdout carries the same report
        assert json.loads(capsys.readouterr().out) == payload

    def test_report_is_deterministic_across_runs(self, capsys):
        rules = default_registry().rules()
        first = run_analysis([FIXTURE_ROOT], rules)
        second = run_analysis([FIXTURE_ROOT], rules)
        assert first == second
        keys = [(f.path, f.line, f.col, f.rule) for f in first]
        assert keys == sorted(keys)
        capsys.readouterr()


class TestSarifReport:
    def test_sarif_payload_shape(self, tmp_path, capsys):
        out_file = tmp_path / "report.sarif"
        code = run(
            _config(output_format="sarif", output_file=out_file)
        )
        assert code == EXIT_FINDINGS
        payload = json.loads(out_file.read_text())
        assert payload["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in payload["$schema"]
        (sarif_run,) = payload["runs"]
        driver = sarif_run["tool"]["driver"]
        assert driver["name"] == "reprolint"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert rule_ids == ["R001", "R002", "R006", "R007", "R011"]
        assert sarif_run["originalUriBaseIds"]["PACKAGEROOT"] == {
            "uri": "src/repro/"
        }
        capsys.readouterr()

    def test_sarif_results_match_findings(self, tmp_path, capsys):
        out_file = tmp_path / "report.sarif"
        run(_config(output_format="sarif", output_file=out_file))
        capsys.readouterr()
        payload = json.loads(out_file.read_text())
        sarif_run = payload["runs"][0]
        findings = run_analysis(
            [FIXTURE_ROOT], default_registry().rules()
        )
        results = sarif_run["results"]
        assert len(results) == len(findings)
        for result, finding in zip(results, findings):
            assert result["ruleId"] == finding.rule
            assert result["level"] == "error"
            assert result["message"]["text"] == finding.message
            (loc,) = result["locations"]
            phys = loc["physicalLocation"]
            assert phys["artifactLocation"] == {
                "uri": finding.path,
                "uriBaseId": "PACKAGEROOT",
            }
            assert phys["region"]["startLine"] == finding.line
            assert phys["region"]["startColumn"] == finding.col + 1
        assert sarif_run["properties"]["filesScanned"] > 0

    def test_clean_tree_emits_empty_results(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n")
        out_file = tmp_path / "report.sarif"
        code = run(
            _config(
                paths=[tmp_path],
                output_format="sarif",
                output_file=out_file,
            )
        )
        assert code == EXIT_CLEAN
        payload = json.loads(out_file.read_text())
        assert payload["runs"][0]["results"] == []
        capsys.readouterr()
