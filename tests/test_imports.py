"""Every name a ``vloc`` module imports is used in that module, so removing
code cannot leave a dead import behind. The package ``__init__`` imports
to re-export: a name it lists in ``__all__`` counts as used."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "vloc"


def imported_names(tree):
    """(name, line) of every name the module's imports bind, ``__future__``
    imports left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Every name the module reads; with postponed annotations an annotation
    is still parsed, so a name used only in one counts."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def exported_names(tree):
    """The string entries of a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


MODULES = sorted(SRC.glob("*.py"))


def test_the_package_is_scanned():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "pipeline.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree) | exported_names(tree)
    unused = [f"{path.name}:{line}: {name}"
              for name, line in imported_names(tree) if name not in used]
    assert not unused, "imported but unused: " + ", ".join(unused)
