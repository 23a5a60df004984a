"""One holder of module-wide state: only ``eta``, which keeps the cusp
coefficient store, may rebind a module global from inside a function. A
``global`` statement anywhere else would be a second cache holder (the
sigma tables of ``arith`` live in a dict that is filled, never rebound),
so the check parses every module of the package and reports each one."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sigma_convolve"
HOLDER = "eta.py"
MODULES = sorted(PACKAGE.glob("*.py"))


def global_statements(source: str) -> list[str]:
    """Each ``global`` statement in one module's source, as 'line: names'."""
    return [f"{node.lineno}: {', '.join(node.names)}"
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Global)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != HOLDER],
                         ids=lambda p: p.name)
def test_module_rebinds_no_global(path):
    assert global_statements(path.read_text()) == []


def test_the_holder_is_the_one_module_with_global_state():
    assert global_statements((PACKAGE / HOLDER).read_text()) != []


def test_the_check_finds_global_statements():
    source = """
_table = None
def grow():
    global _table
    def inner():
        global _a, _b
"""
    assert global_statements(source) == ["4: _table", "6: _a, _b"]
