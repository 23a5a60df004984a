"""The no-floats rule, checked on the source: nothing in the package may
compute inexactly, so its modules hold no float or complex literal, call
neither ``float`` nor ``complex``, take from ``math`` only integer
functions (and never ``from math import *``), and import no ``decimal``,
``cmath`` or ``statistics``.

True division ``/`` is out of this check's reach: between Fractions it is
exact and needed, and the operand types are not known from the source. An
int / int slip, say in the slot width of ``qseries._kronecker_product``,
is caught by the differential tests instead (``test_mul_at_the_slot_bound``
and ``test_mul_matches_schoolbook`` compare against the exact double
loop)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sigma_convolve"
MATH_ALLOWED = {"gcd", "isqrt", "lcm"}
BANNED_MODULES = {"decimal", "cmath", "statistics"}
BANNED_CALLS = {"float", "complex"}
MODULES = sorted(PACKAGE.glob("*.py"))


def float_findings(source: str) -> list[str]:
    """Each breach of the rule in one module's source, as 'line: what',
    sorted by line."""
    tree = ast.parse(source)
    math_aliases = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in BANNED_MODULES:
                    found.append(f"{node.lineno}: import {alias.name}")
                elif root == "math":
                    math_aliases.add(alias.asname or "math")
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if node.level == 0 and root in BANNED_MODULES:
                found.append(f"{node.lineno}: from {node.module} import")
            elif node.level == 0 and node.module == "math":
                found.extend(f"{node.lineno}: from math import *" if alias.name == "*"
                             else f"{node.lineno}: math.{alias.name}"
                             for alias in node.names if alias.name not in MATH_ALLOWED)
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{node.lineno}: literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in BANNED_CALLS):
            found.append(f"{node.lineno}: {node.func.id}()")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in math_aliases and node.attr not in MATH_ALLOWED):
            found.append(f"{node.lineno}: math.{node.attr}")
    return sorted(found, key=lambda f: (int(f.split(":")[0]), f))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_module_has_no_floats(path):
    assert float_findings(path.read_text()) == []


def test_the_check_finds_every_banned_form():
    assert {"qseries.py", "modforms.py", "arith.py"} <= {p.name for p in MODULES}
    source = """
import math
import math as m
import cmath
import decimal.context
from statistics import mean
from math import gcd, log2
from math import *
x = 0.5 + 2j + 1e3
y = float(3) + complex(1, 2)
z = math.log2(8) + m.sqrt(2) + math.isqrt(9) + math.lcm(2, 3)
"""
    assert float_findings(source) == [
        "4: import cmath",
        "5: import decimal.context",
        "6: from statistics import",
        "7: math.log2",
        "8: from math import *",
        "9: literal 0.5",
        "9: literal 1000.0",
        "9: literal 2j",
        "10: complex()",
        "10: float()",
        "11: math.log2",
        "11: math.sqrt",
    ]
    assert float_findings("from math import gcd, isqrt, lcm\nn = 7 // 2\n") == []
