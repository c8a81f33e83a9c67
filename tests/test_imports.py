"""Every module-level import of the package is used in its module.

No linter is part of the toolchain, so this test is the check: it parses each
module of src/varcurves (except the re-exports of __init__.py) with the
standard `ast` module and fails on a module-level import whose name never
appears in the module.  `from __future__` imports are skipped.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "varcurves"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


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
