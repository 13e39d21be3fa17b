"""The package's public names: each module's ``__all__`` is the one list of
its names, the package exports exactly their concatenation, and every name
has a caller outside the tests. The tools read only names the package has,
and patch none of them."""

import ast
import importlib
import pkgutil
from pathlib import Path

import smilecal

MODULES = ("adiabatic", "bs_core", "density", "errors", "smile")
ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = {f"smilecal.{m.name}" for m in pkgutil.iter_modules(smilecal.__path__)}
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


def _tool_trees(path: Path) -> list[ast.AST]:
    """A tool's syntax tree, and those of the Python sources it holds as
    strings for child interpreters (those that import smilecal)."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))]
    for node in ast.walk(trees[0]):
        if isinstance(node, ast.Constant) and "import smilecal" in str(node.value):
            try:
                trees.append(ast.parse(node.value))
            except SyntaxError:  # prose, a docstring
                pass
    return trees


def _module_attributes(tree: ast.AST) -> list[tuple[str, ast.Attribute]]:
    """``(module, node)`` for each attribute of a smilecal module in ``tree``,
    read, written or deleted. A name bound to a module by any import in the
    tree counts throughout it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "smilecal":
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["smilecal"] = "smilecal"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "smilecal":
            for alias in node.names:
                if f"{node.module}.{alias.name}" in SUBMODULES:
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def module_of(node) -> str | None:
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute) and (parent := module_of(node.value)):
            name = f"{parent}.{node.attr}"
            return name if name in SUBMODULES else None
        return None

    return [(module, node) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and (module := module_of(node.value))]


def _module_reads(tree: ast.AST) -> list[tuple[str, str]]:
    """``(module, name)`` for each name that ``tree`` imports from a smilecal
    module or reads, writes or deletes as an attribute of one."""
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "smilecal" for alias in node.names]
    return imported + [(module, node.attr) for module, node in _module_attributes(tree)]


def test_tools_read_only_names_the_package_has():
    # no test runs the tools, so a renamed or deleted private helper would
    # break them unseen
    reads = {(module, name) for path in sorted((ROOT / "tools").glob("*.py"))
             for tree in _tool_trees(path) for module, name in _module_reads(tree)}
    missing = [f"{module}.{name}" for module, name in sorted(reads)
               if not (hasattr(importlib.import_module(module), name)
                       or f"{module}.{name}" in SUBMODULES)]
    assert missing == []
    for name in ("_reduced", "_fold_point", "_sweep_one", "stationary_points"):
        assert ("smilecal.adiabatic", name) in reads
    assert {("smilecal.density", "_window_curve"), ("smilecal.cli", "main"),
            ("smilecal.cli", "__file__")} <= reads


def test_no_tool_patches_the_package():
    # a tool that assigns or deletes an attribute of a package module times
    # or compares a program other than the one it names; this covers the
    # sources the tools hold for child interpreters too
    patched = [f"{path.name}:{node.lineno} {module}.{node.attr}"
               for path in sorted((ROOT / "tools").glob("*.py"))
               for tree in _tool_trees(path)
               for module, node in _module_attributes(tree)
               if isinstance(node.ctx, (ast.Store, ast.Del))]
    assert patched == []
