"""Each module of the package imports only the modules below it.

The layers, lowest first: ``model``; ``metaeval``, ``paragraphs``, ``noise``
and ``sampling``, which read the model alone; ``fileio`` and ``metrics``,
which also read ``paragraphs``; and the entry points ``cli``, ``__init__``
and ``__main__``, which may import any module. An import anywhere in a file,
a function body included, counts.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "paraeval"
ANY = None
# The package modules that each module may import.
ALLOWED = {
    "model": set(),
    "metaeval": {"model"},
    "paragraphs": {"model"},
    "noise": {"model"},
    "sampling": {"model"},
    "fileio": {"model", "paragraphs"},
    "metrics": {"model", "paragraphs"},
    "cli": ANY,
    "__init__": ANY,
    "__main__": ANY,
}


def package_imports(source: str) -> set[str]:
    """The package modules that a module's source imports; a name taken from
    the package itself (``from . import x`` where x is no module) is ``__init__``."""
    def module_of(name):
        return name if (SOURCE / f"{name}.py").exists() else "__init__"

    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                package, _, rest = alias.name.partition(".")
                if package == "paraeval":
                    found.add(module_of(rest.partition(".")[0]) if rest else "__init__")
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif (node.module or "").partition(".")[0] == "paraeval":
                module = node.module.partition(".")[2]
            else:
                continue
            if module:
                found.add(module_of(module.partition(".")[0]))
            else:
                found.update(module_of(alias.name) for alias in node.names)
    return found


def test_every_module_has_a_layer():
    assert {path.stem for path in SOURCE.glob("*.py")} == set(ALLOWED)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_a_module_imports_only_the_layers_below_it(module):
    allowed = ALLOWED[module]
    if allowed is ANY:
        return
    imported = package_imports((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    assert imported - {module} <= allowed, (
        f"{module} imports {sorted(imported - {module} - allowed)}, outside its layer")


@pytest.mark.parametrize("source, modules", [
    ("from .metaeval import _scaled", {"metaeval"}),
    ("from . import fileio, metaeval", {"fileio", "metaeval"}),
    ("def f():\n    from paraeval.metrics import tokenize", {"metrics"}),
    ("import paraeval.noise as noise", {"noise"}),
    ("import paraeval", {"__init__"}),
    ("from paraeval import ParagraphInstance", {"__init__"}),
    ("import math\nfrom json import loads\nfrom typing import IO", set()),
])
def test_every_form_of_package_import_is_found(source, modules):
    assert package_imports(source) == modules
