"""Each entry point loads only the package modules it runs. Every case runs
in a fresh interpreter and compares the ``sigma_convolve`` entries of
``sys.modules`` with an exact set: the package root loads no submodule,
the CLI module loads ``arith`` and ``errors``, and the commands that print
only the table oracles add ``qseries`` and ``tables``, so they load no
closed form, eta quotient or modular form. The table module's imports are
checked in its source too, which makes the oracles' independence from
the closed forms a property of the code, not of one run."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
TABLES = SRC / "sigma_convolve" / "tables.py"
CLI = {"sigma_convolve", "sigma_convolve.cli", "sigma_convolve.arith", "sigma_convolve.errors"}
ORACLES = CLI | {"sigma_convolve.qseries", "sigma_convolve.tables"}


def loaded_modules(code: str) -> set[str]:
    """The package modules a fresh interpreter holds after running ``code``."""
    probe = (f"import contextlib, io, sys\n"
             f"with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    {code}\n"
             f"print(' '.join(m for m in sys.modules if m.split('.')[0] == 'sigma_convolve'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("code, expected", [
    ("import sigma_convolve", {"sigma_convolve"}),
    ("import sigma_convolve.cli", CLI),
    ("from sigma_convolve.cli import main; assert main("
     "['wab', '--a', '4', '--b', '5', '--n-max', '300', '--mode', 'brute']) == 0", ORACLES),
    ("from sigma_convolve.cli import main; assert main("
     "['r7', '--n-max', '300', '--mode', 'enumerate']) == 0", ORACLES),
], ids=["package", "cli", "wab-brute", "r7-enumerate"])
def test_entry_point_loads_only_what_it_runs(code, expected):
    assert loaded_modules(code) == expected


def package_imports(source: str) -> set[str]:
    """The package modules one module's source imports, by relative or
    absolute import; standard-library imports are left out."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                found.update([node.module] if node.module else [a.name for a in node.names])
            elif node.module.split(".")[0] == "sigma_convolve":
                found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] == "sigma_convolve")
    return found


def test_the_table_oracles_import_only_arith_errors_and_qseries():
    assert package_imports(TABLES.read_text()) <= {"arith", "errors", "qseries"}


def test_the_check_finds_package_imports():
    source = """
from math import isqrt
import json
from . import eta
from .convolution import w_brute
from .qseries import product
import sigma_convolve.modforms
from sigma_convolve.deltaforms import delta_series
def f():
    from .representations import r7_closed
"""
    assert package_imports(source) == {
        "eta", "convolution", "qseries", "sigma_convolve.modforms",
        "sigma_convolve.deltaforms", "representations"}
