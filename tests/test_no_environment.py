"""No hidden settings: every size and order the package uses comes from its
arguments or the command line, so no module of the package may read or
write the process environment through ``os.environ``, ``os.getenv`` or
``os.putenv``. The check parses every module and reports each access, by
attribute on an ``os`` import (under any alias) or by ``from os import``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sigma_convolve"
MODULES = sorted(PACKAGE.glob("*.py"))
ENVIRONMENT = {"environ", "getenv", "putenv"}


def environment_accesses(source: str) -> list[str]:
    """Each environment access in one module's source, as 'line: os.name'."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "os"}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend((node.lineno, a.name) for a in node.names if a.name in ENVIRONMENT)
    return [f"{line}: os.{name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_no_environment(path):
    assert environment_accesses(path.read_text()) == []


def test_the_check_finds_environment_accesses():
    source = """
import os
import os as system
from os import getenv, path
value = os.environ.get("X")
system.putenv("X", "1")
os.path.join("a", "b")
"""
    assert environment_accesses(source) == ["4: os.getenv", "5: os.environ", "6: os.putenv"]
