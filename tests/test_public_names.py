"""The package's public names: each module's ``__all__`` is the one list of
its names, the package exports exactly their concatenation, and every name
has a caller outside the tests."""

import ast
import importlib
from pathlib import Path

import smilecal

MODULES = ("adiabatic", "bs_core", "density", "errors", "smile")
ROOT = Path(__file__).resolve().parents[1]
# paper criterion 6, the square-well closed form: ROADMAP item 5 either
# gives it a demo or removes it
CALLED_BY_TESTS_ONLY = {"square_well_critical_x"}


def test_package_exports_the_module_lists():
    modules = [importlib.import_module(f"smilecal.{name}") for name in MODULES]
    assert smilecal.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(smilecal.__all__)) == len(smilecal.__all__)
    for m in modules:
        for name in m.__all__:
            assert getattr(smilecal, name) is getattr(m, name)


def _used_names(tree: ast.AST) -> set[str]:
    """Names read and attributes in ``tree``, less each use of a function's
    or class's name inside its own definition. Imports, comments and
    strings, ``__all__`` entries among them, are not uses."""
    used = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None and name not in enclosing:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    # the package, the demos, the benchmark and the tools count as callers
    used = set()
    for folder in ("src", "demos", "bench", "tools"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            used |= _used_names(ast.parse(path.read_text(encoding="utf-8")))
    assert [n for n in smilecal.__all__ if n not in used | CALLED_BY_TESTS_ONLY] == []
    assert CALLED_BY_TESTS_ONLY <= set(smilecal.__all__) - used
