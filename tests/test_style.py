"""Source checks that keep the library's conventions."""

import ast
import importlib
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "fairclf").glob("*.py"))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "cli.py"], ids=lambda p: p.name)
def test_library_logs_instead_of_printing(path):
    # only the command-line front end writes to stdout; library modules log
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
    ]
    assert not calls, f"{path.name} calls print on lines {calls}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_exported_names_exist(path):
    # a deleted name must not linger in a module's __all__
    name = "fairclf" if path.stem == "__init__" else f"fairclf.{path.stem}"
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names {missing}, which it does not define"


def test_private_helpers_are_used():
    # a module-level _helper that no code in the package names is dead
    defined, used = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [
            f"{path.name}:{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = [name for name in defined if name.split(":")[1] not in used]
    assert not unused, f"defined but never referenced: {unused}"
