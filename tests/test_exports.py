"""The package root's public surface. The root imports no module; each name
of ``__all__`` is looked up in the module that defines it on first use, so
these tests check that every name still resolves, to the very object its
module defines, and that the usual ways of reading a module still work."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sigma_convolve

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "sigma_convolve"


def defined_names(source: str) -> set[str]:
    """The names a module binds at top level by def, class or assignment;
    imported names are not among them."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


DEFINED = {path.stem: defined_names(path.read_text())
           for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}


def test_every_exported_name_resolves():
    missing = [name for name in sigma_convolve.__all__ if not hasattr(sigma_convolve, name)]
    assert missing == []
    assert len(set(sigma_convolve.__all__)) == len(sigma_convolve.__all__)


@pytest.mark.parametrize("name", sigma_convolve.__all__)
def test_exported_name_is_the_object_its_module_defines(name):
    owners = [module for module, names in DEFINED.items() if name in names]
    assert len(owners) == 1, owners
    module = importlib.import_module(f"sigma_convolve.{owners[0]}")
    assert getattr(sigma_convolve, name) is getattr(module, name)


def test_star_import_binds_all_of_all_in_a_fresh_process():
    probe = ("from sigma_convolve import *\n"
             "print(' '.join(sorted(k for k in dict(globals()) if not k.startswith('__'))))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == sorted(sigma_convolve.__all__)


def test_dir_lists_all():
    listed = dir(sigma_convolve)
    assert set(sigma_convolve.__all__) <= set(listed)
    assert "__version__" in listed
    assert listed == sorted(listed)


@pytest.mark.parametrize("name", ["no_such_name", "_evaluate", "check_int"])
def test_an_unknown_name_raises_attribute_error(name):
    # private and unexported names of the modules are not exports either
    with pytest.raises(AttributeError, match=f"^module 'sigma_convolve' has no attribute '{name}'$"):
        getattr(sigma_convolve, name)
    assert not hasattr(sigma_convolve, name)
