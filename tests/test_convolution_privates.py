"""``convolution`` keeps its underscore names to itself: the evaluator
kernel, the labels and the unchecked oracle are reached through its public
functions, never imported by another module of the package. A closed form
that needs them belongs in a ``TermTable`` summed by ``evaluate``, so the
check parses every other module and reports each such import."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sigma_convolve"
OWNER = "convolution"
MODULES = sorted(PACKAGE.glob("*.py"))


def private_imports(source: str) -> list[str]:
    """Each underscore name one module's source imports from ``convolution``,
    as 'line: name'."""
    return [f"{node.lineno}: {alias.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and node.module in (OWNER, f"sigma_convolve.{OWNER}")
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != OWNER],
                         ids=lambda p: p.name)
def test_module_imports_no_private_name_of_convolution(path):
    assert private_imports(path.read_text()) == []


def test_the_check_finds_private_imports():
    source = """
from .convolution import FORMULAS, _evaluate
from sigma_convolve.convolution import (
    _LABELS,
    evaluate,
)
from .eta import _cusp_series
"""
    assert private_imports(source) == ["2: _evaluate", "3: _LABELS"]
