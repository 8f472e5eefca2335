"""Tests of the package's public namespace, its module layers and their imports."""

import ast
import types
from pathlib import Path

import zenosim

PACKAGE = Path(zenosim.__file__).parent


def test_all_lists_every_public_name():
    public = {
        name for name, value in vars(zenosim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(zenosim.__all__) == sorted(public)
    namespace: dict = {}
    exec("from zenosim import *", namespace)
    assert set(namespace) - {"__builtins__"} == public


def relative_imports(module: str) -> set:
    """The sibling modules that ``zenosim.<module>`` imports from, function-level imports included."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [alias.name for alias in node.names])
    return found


def test_modules_import_one_way():
    # errors -> states -> ion -> dynamics: the two-level ion needs nothing of the three-level engine
    assert relative_imports("states") <= {"errors"}
    assert relative_imports("ion") <= {"errors", "states"}
    for module in ("errors", "states", "ion", "neutron"):
        assert "dynamics" not in relative_imports(module), module
    assert zenosim.dynamics.IonConfig is zenosim.ion.IonConfig


def unused_imports(source: str) -> set:
    """Names that ``source`` imports and never reads; a name in a quoted annotation is read."""
    imported, used = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                quoted = ast.walk(ast.parse(annotation.value, mode="eval"))
                used.update(name.id for name in quoted if isinstance(name, ast.Name))
    return imported - used


def test_unused_imports_found():
    source = 'import os, sys\nfrom math import pi, tau\nimport a.b as c\ndef f(x: "np.ndarray") -> "tau": ...\n'
    assert unused_imports(source + "import numpy as np\n") == {"os", "sys", "pi", "c"}


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export; every other module imports only what it uses
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            assert unused_imports(path.read_text(encoding="utf-8")) == set(), path.name
