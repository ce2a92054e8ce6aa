"""Core mechanics: suppression parsing, path scoping, registry filters."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.core import (
    RuleRegistry,
    package_relpath,
    parse_module,
    run_analysis,
    suppressed_rules,
)
from repro.analysis.rules import default_registry
from repro.analysis.rules.determinism import GlobalNondeterminismRule


def _module(tmp_path: Path, source: str, name="repro/models/mod.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return parse_module(path)


class TestSuppressions:
    def test_same_line_comment(self, tmp_path):
        module = _module(
            tmp_path,
            "import random\nx = random.random()  "
            "# reprolint: disable=R001\n",
        )
        assert suppressed_rules(module, 2) == {"R001"}

    def test_comment_line_above(self, tmp_path):
        module = _module(
            tmp_path,
            "import random\n# reprolint: disable=R001\n"
            "x = random.random()\n",
        )
        assert suppressed_rules(module, 3) == {"R001"}

    def test_multiple_rules_one_comment(self, tmp_path):
        module = _module(
            tmp_path, "x = 1  # reprolint: disable=R001, R006\n"
        )
        assert suppressed_rules(module, 1) == {"R001", "R006"}

    def test_disable_all(self, tmp_path):
        module = _module(
            tmp_path, "x = 1  # reprolint: disable=all\n"
        )
        assert suppressed_rules(module, 1) == {"all"}

    def test_disable_all_on_comment_line_above(self, tmp_path):
        module = _module(
            tmp_path,
            "import random\n# reprolint: disable=all\n"
            "x = random.random()\n",
        )
        assert suppressed_rules(module, 3) == {"all"}
        assert run_analysis(
            [module.path], [GlobalNondeterminismRule()]
        ) == []

    def test_multiple_ids_with_ragged_whitespace(self, tmp_path):
        module = _module(
            tmp_path,
            "x = 1  #  reprolint:  disable=R001 ,R006,  R009\n",
        )
        assert suppressed_rules(module, 1) == {
            "R001", "R006", "R009",
        }

    def test_suppression_matching_no_finding_is_inert(self, tmp_path):
        """A disable comment for a rule that never fires neither
        errors nor hides other rules' findings."""
        module = _module(
            tmp_path,
            "import random\n"
            "x = random.random()  # reprolint: disable=R008\n",
        )
        assert suppressed_rules(module, 2) == {"R008"}
        findings = run_analysis(
            [module.path], [GlobalNondeterminismRule()]
        )
        assert [f.rule for f in findings] == ["R001"]

    def test_code_line_above_does_not_leak(self, tmp_path):
        """A suppression on a *code* line only covers that line."""
        module = _module(
            tmp_path,
            "import random\n"
            "a = random.random()  # reprolint: disable=R001\n"
            "b = random.random()\n",
        )
        assert suppressed_rules(module, 3) == frozenset()
        findings = run_analysis(
            [module.path], [GlobalNondeterminismRule()]
        )
        assert [f.line for f in findings] == [3]

    def test_unsuppressible_rule_ignores_disable_comments(self, tmp_path):
        """R007 sets ``suppressible = False``: neither its id nor
        ``all`` silences it."""
        module = _module(
            tmp_path,
            "def f(store):\n"
            "    for r in store.iter_rows(0):  # reprolint: disable=R007\n"
            "        pass\n"
            "    # reprolint: disable=all\n"
            "    for r in store.iter_rows(0):\n"
            "        pass\n",
        )
        rules = default_registry().rules(select=["R007"])
        findings = run_analysis([module.path], rules)
        assert [f.line for f in findings] == [2, 5]


class TestPathScoping:
    def test_relpath_strips_to_package_root(self):
        assert (
            package_relpath(Path("src/repro/models/beta.py"))
            == "models/beta.py"
        )
        assert (
            package_relpath(
                Path("tests/fixtures/rules/R002/repro/core/selection.py")
            )
            == "core/selection.py"
        )

    def test_non_package_path_keeps_tail(self):
        assert package_relpath(Path("a/b/c.py")) == "b/c.py"

    def test_scoped_rule_skips_other_trees(self, tmp_path):
        # R006 is scoped to models/; the same comparison elsewhere
        # (services, experiments) must not fire.
        source = "def f(score):\n    return score == 0.5\n"
        in_models = _module(tmp_path, source, "repro/models/a.py")
        elsewhere = _module(tmp_path, source, "repro/services/a.py")
        rules = default_registry().rules(select=["R006"])
        assert len(run_analysis([in_models.path], rules)) == 1
        assert run_analysis([elsewhere.path], rules) == []

    def test_randomness_module_exempt_from_r001(self, tmp_path):
        source = "import numpy as np\nrng = np.random.rand(2)\n"
        blessed = _module(
            tmp_path, source, "repro/common/randomness.py"
        )
        other = _module(tmp_path, source, "repro/common/mathutils.py")
        rule = [GlobalNondeterminismRule()]
        assert run_analysis([blessed.path], rule) == []
        assert len(run_analysis([other.path], rule)) == 1


class TestRegistry:
    def test_five_rules_shipped(self):
        registry = default_registry()
        assert registry.ids() == ["R001", "R002", "R006", "R007", "R011"]

    def test_duplicate_id_rejected(self):
        registry = RuleRegistry()
        registry.register(GlobalNondeterminismRule())
        with pytest.raises(ValueError):
            registry.register(GlobalNondeterminismRule())

    def test_unknown_select_raises(self):
        with pytest.raises(KeyError):
            default_registry().rules(select=["R404"])
