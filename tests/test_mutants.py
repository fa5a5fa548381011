"""The committed mutants still apply to the source, and a mutated module
defines every name it reads, so that a mutant is killed by what it changes
and not by a ``NameError``; ``tests/mutants/run.py`` runs them, outside the
normal test run."""

import builtins
import importlib.util
import symtable
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


def undefined_names(source, filename):
    """The names a module reads as globals, or at module scope, that it never
    assigns or imports and that are not builtins."""
    module = symtable.symtable(source, filename, "exec")
    tables, read, defined = [module], set(), set(dir(builtins)) | {"__file__"}
    while tables:
        table = tables.pop()
        tables.extend(table.get_children())
        for symbol in table.get_symbols():
            if symbol.is_assigned() and (table is module or symbol.is_declared_global()):
                defined.add(symbol.get_name())
            elif symbol.is_imported():
                defined.add(symbol.get_name())
            if symbol.is_referenced() and (table is module or symbol.is_global()):
                read.add(symbol.get_name())
    return read - defined


def test_the_name_check_finds_a_name_that_nothing_defines():
    source = ("import os\nfrom math import fsum as total\nLIMIT = 1\n"
              "def f(values):\n    global seen\n    seen = True\n"
              "    return _gone(values) + total(values) + len(os.sep) + LIMIT + seen\n"
              "class C:\n    size = LIMIT\n    def m(self):\n        return size\n"
              "print([v for v in missing])\n")
    assert undefined_names(source, "m.py") == {"_gone", "size", "missing"}


@pytest.mark.parametrize("path", sorted(mutants.SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_every_module_defines_every_name_it_reads(path):
    assert undefined_names(path.read_text(encoding="utf-8"), path.name) == set()


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_every_mutant_defines_every_name_it_reads(mutant):
    source = (mutants.SOURCE / mutant.file).read_text(encoding="utf-8")
    assert undefined_names(mutants.mutated(mutant, source), mutant.file) == set()
