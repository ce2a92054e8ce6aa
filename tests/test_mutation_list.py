"""The mutation list stays applicable: every snippet matches once."""

import pytest

from tests.mutation import MUTANTS, ROOT


@pytest.mark.parametrize(
    "mutant", MUTANTS, ids=[m.old[:40] for m in MUTANTS]
)
def test_snippet_occurs_exactly_once(mutant):
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.gate for m in MUTANTS])
def test_gate_names_an_existing_test(mutant):
    path, *names = mutant.gate.split("::")
    source = (ROOT / path).read_text(encoding="utf-8")
    assert f"def {names[-1]}(" in source
    for cls in names[:-1]:
        assert f"class {cls}" in source


def test_list_size():
    """The list only grows by intent: a mutant dropped by accident (a
    bad merge, a deleted entry) shows here."""
    assert len(MUTANTS) == 62
