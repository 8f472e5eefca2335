"""Tests of the package's public namespace and of its module layers."""

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
