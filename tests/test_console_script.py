"""The ``[project.scripts]`` entry of ``pyproject.toml``, resolved by import
and run in a fresh interpreter the way an installed ``sigma-convolve``
script runs it: ``sys.exit(main())`` with the arguments in ``sys.argv``.
Every CLI call pays the import of the package in a fresh process, so that
import is checked here too."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_console_script_entry_runs_verify():
    # read without tomllib, which needs Python 3.11; the package supports 3.10
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    scripts = dict(re.findall(r'^([\w-]+) = "([^"]*)"$', section, re.M))
    assert scripts == {"sigma-convolve": "sigma_convolve.cli:main"}
    module, _, name = scripts["sigma-convolve"].partition(":")
    assert callable(getattr(importlib.import_module(module), name))
    runner = (f"import sys; from {module} import {name}; "
              f"sys.argv[0] = 'sigma-convolve'; sys.exit({name}())")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", runner, "verify", "--order", "40"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(" identities verified\n")
    assert "FAIL" not in proc.stdout


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses imports inspect, about a fifth of the CLI's import time;
    # -S keeps site-packages hooks from importing either one first
    probe = ("import sys, sigma_convolve.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
