"""Every name a ``vloc`` module imports is used in that module, every
module-level constant and every underscore-named function or method is read
by some module of the package, every public module-level function and class
is read by the package, the benchmark or a demo, and every error class is
imported by some other module, so removing code cannot leave a dead import,
a dead constant, a dead helper or an error nothing raises behind. The
package ``__init__`` imports to re-export: a name it lists in ``__all__``
counts as used. A ``cached_property`` computes its value and nothing else:
it sets, deletes and pops no attribute of ``self``, so no read order of an
object's cached members can matter."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vloc"


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


def constant_names(tree):
    """(name, line) of every module-level constant: an UPPER_CASE name,
    with or without a leading underscore, bound by a top-level assignment."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name.id):
                    yield name.id, node.lineno


def private_functions(tree):
    """(name, line) of every function or method, nested ones included, whose
    name starts with an underscore; dunder methods, which Python calls by
    protocol, are left out."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name.startswith("_") \
                and not (node.name.startswith("__") and node.name.endswith("__")):
            yield node.name, node.lineno


def read_names(tree):
    """Every name the module reads, bare or as an attribute (``mod.NAME``)."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


MODULES = sorted(SRC.glob("*.py"))


def package_trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in MODULES}


def test_the_package_is_scanned():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "pipeline.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree) | exported_names(tree)
    unused = [f"{path.name}:{line}: {name}"
              for name, line in imported_names(tree) if name not in used]
    assert not unused, "imported but unused: " + ", ".join(unused)


def test_every_constant_is_read():
    trees = package_trees()
    read = set().union(*(read_names(tree) | exported_names(tree)
                         for tree in trees.values()))
    unread = [f"{name}:{line}: {constant}" for name, tree in trees.items()
              for constant, line in constant_names(tree) if constant not in read]
    assert not unread, "constant read by no module: " + ", ".join(unread)


def test_every_error_class_is_imported_elsewhere():
    # with every import used, each class is raised, caught or subclassed
    errors = SRC / "errors.py"
    defined = {node.name for node in ast.parse(errors.read_text()).body
               if isinstance(node, ast.ClassDef)}
    imported = {alias.name for path in MODULES if path != errors
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "errors"
                and node.level == 1
                for alias in node.names}
    assert defined >= {"VlocError", "NotLocalized"}
    assert not defined - imported, \
        "error class no other module imports: " + ", ".join(sorted(defined - imported))


def test_every_private_function_is_read():
    trees = package_trees()
    read = set().union(*map(read_names, trees.values()))
    defined = [(name, function, line) for name, tree in trees.items()
               for function, line in private_functions(tree)]
    assert {"_quartic_roots", "_apply_fix"} <= {f for _, f, _ in defined}
    unread = [f"{name}:{line}: {function}" for name, function, line in defined
              if function not in read]
    assert not unread, "private function read by no module: " + ", ".join(unread)


def test_every_public_function_and_class_is_read():
    trees = package_trees()
    read = set().union(*(read_names(tree) | exported_names(tree)
                         for tree in trees.values()))
    for path in sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("demos/*.py")]):
        tree = ast.parse(path.read_text(), filename=str(path))
        read |= read_names(tree)
        if path.parent.name == "perfbench":
            # the benchmark names the functions it traces as strings
            read |= {node.value for node in ast.walk(tree)
                     if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    defined = [(name, node.name, node.lineno) for name, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    assert {"make_preset", "Pipeline"} <= {f for _, f, _ in defined}
    unread = [f"{name}:{line}: {function}" for name, function, line in defined
              if function not in read]
    assert not unread, "public function or class read by no source: " + ", ".join(unread)


def is_self(node):
    return isinstance(node, ast.Name) and node.id == "self"


def self_writes(function):
    """(what, line) of every attribute of ``self`` the function's body sets
    or deletes, and of every ``pop`` on something of ``self``'s, such as
    ``vars(self)`` or ``self.__dict__``."""
    for node in ast.walk(function):
        if isinstance(node, ast.Attribute) and is_self(node.value) \
                and isinstance(node.ctx, (ast.Store, ast.Del)):
            yield f"self.{node.attr}", node.lineno
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "pop" and any(map(is_self, ast.walk(node.func.value))):
            yield "pop", node.lineno


def cached_properties(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and any(
                (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None))
                == "cached_property" for d in node.decorator_list):
            yield node


def test_no_cached_property_writes_to_self():
    trees = package_trees()
    found = [(name, prop) for name, tree in trees.items()
             for prop in cached_properties(tree)]
    assert {"_observation", "_texel_table"} <= {prop.name for _, prop in found}
    writes = [f"{name}:{line}: {prop.name} writes {what}" for name, prop in found
              for what, line in self_writes(prop)]
    assert not writes, "cached_property with a side effect: " + ", ".join(writes)
