"""Every module-level import of the package is used in its module, and every
module-level function and class, and every method, is referenced somewhere.

No linter is part of the toolchain, so these tests are the check.  They parse
the sources with the standard `ast` module.  The import check reads each
module of src/varcurves (except the re-exports of __init__.py) and fails on a
module-level import whose name never appears in the module; `from __future__`
imports are skipped.  The reference check fails on a module-level function or
class of src/varcurves, or a method of such a class other than a dunder, whose
name appears nowhere in src, tests or perfbench outside its own definition.  A
name counts as referenced where it is read, an attribute, an imported name or
a whole string constant, so the entries of `__all__` and the tracer's target
tables count.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "varcurves"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(p for d in (SRC, ROOT / "tests", ROOT / "perfbench") for p in d.glob("*.py"))


def _imports(tree: ast.Module):
    """(bound name, line) of every module-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_helpers_find_an_unused_import():
    tree = ast.parse("import os.path\nfrom a import b, c as d\n"
                     "def f(x: d) -> None:\n    return os.sep\n")
    used = _used(tree)
    assert [name for name, _ in _imports(tree) if name not in used] == ["b"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imports(tree) if name not in used]
    assert not unused, f"{module}: unused imports {', '.join(unused)}"


def _references(tree: ast.AST) -> Counter:
    """How often each name is referenced in tree."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs[node.value] += 1
    return refs


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree: ast.Module):
    """Module-level functions and classes of tree, and the methods of those
    classes except dunders."""
    for node in tree.body:
        if isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, _FUNCTIONS)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def _unreferenced(tree: ast.Module, refs: Counter) -> list:
    """Definitions of tree referenced only inside their own definition."""
    return [node.name for node in _definitions(tree)
            if refs[node.name] <= _references(node)[node.name]]


def test_helpers_find_an_unreferenced_definition():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n"
                     "def g():\n    pass\n"
                     "class C:\n    pass\n"
                     "def h():\n    return C\n"
                     "__all__ = ['h']\n")
    assert _unreferenced(tree, _references(tree)) == ["f", "g"]


def test_helpers_find_an_unreferenced_method():
    tree = ast.parse("class C:\n"
                     "    def __init__(self):\n        self.a = self.used()\n"
                     "    def used(self):\n        return 1\n"
                     "    @property\n    def stale(self):\n        return self.stale\n"
                     "    def later(self):\n        pass\n"
                     "C().later()\n")
    assert _unreferenced(tree, _references(tree)) == ["stale"]


@pytest.fixture(scope="module")
def all_references() -> Counter:
    refs = Counter()
    for path in SOURCES:
        refs += _references(ast.parse(path.read_text(encoding="utf-8")))
    return refs


@pytest.mark.parametrize("module", MODULES)
def test_no_unreferenced_definitions(module, all_references):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    unused = _unreferenced(tree, all_references)
    assert not unused, f"{module}: never referenced {', '.join(unused)}"
