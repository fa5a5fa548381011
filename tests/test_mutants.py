"""The committed mutants still apply to the source; ``tests/mutants/run.py``
runs them, outside the normal test run."""

import importlib.util
from pathlib import Path

import pytest

RUNNER = Path(__file__).parent / "mutants" / "run.py"
spec = importlib.util.spec_from_file_location("mutants_run", RUNNER)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_mutant_names_are_unique():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_every_snippet_occurs_exactly_once(mutant):
    source = (mutants.SOURCE / mutant.file).read_text(encoding="utf-8")
    assert source.count(mutant.snippet) == 1
    assert mutants.mutated(mutant, source) != source


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_every_test_id_names_a_test(mutant):
    for test_id in mutant.tests:
        path, *names = test_id.split("::")
        text = (mutants.ROOT / path).read_text(encoding="utf-8")
        assert all(f" {name}(" in text or f" {name}:" in text for name in names), test_id
