"""The convolution sum W_{a,b}(n) = sum of sigma(l)*sigma(m) over positive
(l, m) with a*l + b*m = n: brute-force oracle, gcd reduction, and the one
evaluator behind every closed form in the package.

Each closed form (the five W_{a,b} formulas here, the level-7 and level-14
formulas in ``deltaforms``, and both R_7 forms in ``representations``) is a
tuple of ``Term``s: a rational combination of sigma_3(n/d),
(const + slope*n)*sigma(n/d) and cusp coefficients c_j(n/d), each zero
unless d divides n. The coefficient tables are data, one literal per
published coefficient, so they can be audited line by line. Terms on the
lower-level forms of ``DELTA_FORMS`` are expanded into generator terms when
the table is built.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .arith import sigma
from .errors import NonIntegralResult
from .eta import CuspTable

Pair = tuple[int, int]


class Term(NamedTuple):
    """One summand, zero unless d | n. kind "sigma3": const*sigma_3(n/d);
    "sigma1": (const + slope*n)*sigma(n/d); "form": const*c_form(n/d)."""

    kind: str
    form: int
    d: int
    const: Fraction
    slope: Fraction = Fraction(0)


# The level-7 and level-14 forms as combinations of the generators C_j.
DELTA_FORMS: dict[str, dict[int, int]] = {
    "4,7": {1: 1, 2: 4},
    "4,14,1": {3: -1, 4: 1},
    "4,14,2": {2: -4, 3: 1, 4: 1},
}


def sigma3_terms(coefs: dict[int, str]) -> tuple[Term, ...]:
    """{d: coef} -> coef*sigma_3(n/d) terms."""
    return tuple(Term("sigma3", 0, d, Fraction(c)) for d, c in coefs.items())


def sigma1_terms(coefs: dict[int, tuple[str, str]]) -> tuple[Term, ...]:
    """{d: (const, slope)} -> (const + slope*n)*sigma(n/d) terms."""
    return tuple(
        Term("sigma1", 0, d, Fraction(c), Fraction(s)) for d, (c, s) in coefs.items()
    )


def form_terms(coefs: dict[int | str, str], d: int = 1) -> tuple[Term, ...]:
    """{j or DELTA_FORMS name: coef} -> coef*c_j(n/d) terms, with each named
    form expanded into its generators."""
    out: list[Term] = []
    for form, c in coefs.items():
        combo = DELTA_FORMS[form] if isinstance(form, str) else {form: 1}
        out.extend(Term("form", j, d, Fraction(c) * k) for j, k in combo.items())
    return tuple(out)


FORMULAS: dict[Pair, tuple[Term, ...]] = {
    (1, 28): (
        *sigma3_terms({1: "1/2400", 2: "1/800", 4: "1/150",
                       7: "49/2400", 14: "49/800", 28: "49/150"}),
        *sigma1_terms({1: ("1/24", "-1/112"), 28: ("1/24", "-1/4")}),
        *form_terms({1: "1121/67200", 2: "2389/22400", 3: "-1/128",
                     4: "-3349/67200", 5: "-101/200", 6: "-17/40",
                     7: "13/200", 8: "-433/150", 9: "-254/75"}),
    ),
    (4, 7): (
        *sigma3_terms({1: "1/2400", 2: "1/800", 4: "1/150",
                       7: "49/2400", 14: "49/800", 28: "49/150"}),
        *sigma1_terms({4: ("1/24", "-1/28"), 7: ("1/24", "-1/16")}),
        *form_terms({1: "697/470400", 2: "139/22400", 3: "-9/896",
                     4: "-893/470400", 5: "43/1400", 6: "-7/40",
                     7: "241/1400", 8: "-881/1050", 9: "-178/525"}),
    ),
    (1, 14): (
        *sigma3_terms({1: "1/600", 2: "1/150", 7: "49/600", 14: "49/150"}),
        *sigma1_terms({1: ("1/24", "-1/56"), 14: ("1/24", "-1/4")}),
        *form_terms({2: "2/175", 3: "-1/600", 4: "-107/4200"}),
    ),
    (2, 7): (
        *sigma3_terms({1: "1/600", 2: "1/150", 7: "49/600", 14: "49/150"}),
        *sigma1_terms({2: ("1/24", "-1/28"), 7: ("1/24", "-1/8")}),
        *form_terms({2: "2/175", 3: "-107/4200", 4: "-1/600"}),
    ),
    (1, 7): (
        *sigma3_terms({1: "1/120", 7: "49/120"}),
        *sigma1_terms({1: ("1/24", "-1/28"), 7: ("1/24", "-1/4")}),
        *form_terms({1: "-1/70", 2: "-2/35"}),
    ),
}

CLOSED_FORM_PAIRS: tuple[Pair, ...] = tuple(FORMULAS)

_shared_table: CuspTable | None = None


def shared_cusp_table(min_order: int) -> CuspTable:
    """Module-wide cusp table, regrown monotonically as larger n arrive."""
    global _shared_table
    if _shared_table is None or _shared_table.order < min_order:
        current = 0 if _shared_table is None else _shared_table.order
        _shared_table = CuspTable(max(min_order, 2 * current, 64))
    return _shared_table


def evaluate(terms: tuple[Term, ...], n: int, cusp: CuspTable | None, label: str) -> int:
    """A closed form at n, verbatim in exact rationals.

    Form coefficients come from `cusp`, or from the shared table when it is
    None. A non-integer total means a corrupted coefficient table and
    raises NonIntegralResult.
    """
    if n < 1:
        raise ValueError(f"{label} needs n >= 1, got {n}")
    table = cusp if cusp is not None else shared_cusp_table(n)
    total = Fraction(0)
    for kind, form, d, const, slope in terms:
        if n % d:
            continue
        if kind == "form":
            total += const * table.c(form, n // d)
        elif kind == "sigma3":
            total += const * sigma(3, n // d)
        else:
            total += (const + slope * n) * sigma(1, n // d)
    if total.denominator != 1:
        raise NonIntegralResult(f"{label}({n}) evaluated to {total}")
    return total.numerator


def w_brute(a: int, b: int, n: int) -> int:
    """Direct evaluation of the convolution sum; the oracle everything else
    is judged against."""
    if a < 1 or b < 1 or n < 1:
        raise ValueError(f"w_brute needs a, b, n >= 1, got {a}, {b}, {n}")
    total = 0
    for m in range(1, (n - a) // b + 1):
        rest = n - b * m
        if rest % a == 0:
            total += sigma(1, rest // a) * sigma(1, m)
    return total


def w_formula(pair: Pair, n: int, cusp: CuspTable | None = None) -> int:
    """Closed-form W for one of the five supported pairs."""
    if pair not in FORMULAS:
        raise ValueError(f"no closed form for pair {pair}")
    return evaluate(FORMULAS[pair], n, cusp, f"W{pair}")


def w_reduce(a: int, b: int, n: int, cusp: CuspTable | None = None) -> int:
    """W for any pair: divide out gcd(a, b) (zero unless it divides n),
    then use the closed form when the reduced pair has one, else brute force."""
    if a < 1 or b < 1 or n < 1:
        raise ValueError(f"w_reduce needs a, b, n >= 1, got {a}, {b}, {n}")
    g = gcd(a, b)
    if n % g != 0:
        return 0
    a, b, n = a // g, b // g, n // g
    if a > b:
        a, b = b, a
    if (a, b) in FORMULAS:
        return w_formula((a, b), n, cusp)
    return w_brute(a, b, n)
