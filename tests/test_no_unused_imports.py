"""No dead imports: every name a package module imports is read somewhere
in that module. A name counts as read when it appears as a name anywhere
in the module's code (a name inside a quoted annotation is not seen; with
postponed annotations none needs quotes), or when ``__all__`` lists it:
the package root imports names only to re-export them. ``from __future__``
imports are directives, not names, and are skipped."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sigma_convolve"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Each imported name that the module never reads, as 'line: name'."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda i: i[::-1])
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_unused_imports():
    assert {"__init__.py", "qseries.py", "eta.py"} <= {p.name for p in MODULES}
    source = '''
from __future__ import annotations
import os.path
import json as js
from typing import Iterable, Sequence
from .qseries import QSeries, OutOfRange
from .arith import sigma
__all__ = ["sigma"]
def f(xs: Iterable[int]) -> QSeries:
    return os.path.join(*xs)
'''
    assert unused_imports(source) == ["4: js", "5: Sequence", "6: OutOfRange"]
