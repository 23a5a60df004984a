"""Level-7 and level-14 weight-4 cusp forms built two independent ways,
and the classical convolution formulas they feed.

The level-7 form comes from a cube root of a sum of three eta products
and, separately, as C_1 + 4 C_2; the two level-14 forms are combinations
of C_2, C_3, C_4. All three combinations live in one table,
``DELTA_FORMS``. The published W_{1,7} and W_{1,14} formulas are term data
on those forms, evaluated through the cusp table by the shared evaluator
and cross-checked against brute force, which validates the
identifications without any external coefficient tables.
"""

from __future__ import annotations

from .arith import check_int
from .convolution import (
    DELTA_FORMS,
    TermTable,
    evaluate,
    form_terms,
    scaled,
    sigma1_terms,
    sigma3_terms,
)
from .eta import CuspTable, EtaQuotientSpec, c_series, expand
from .qseries import QSeries

# the three weight-12 eta products whose weighted sum has a cube root
CUBE_BRACKET_LEVEL = 7
CUBE_BRACKET_TERMS: tuple[tuple[int, dict[int, int]], ...] = (
    (1, {1: 16, 7: 8}),    # leading exponent (16 + 56)/24 = 3
    (13, {1: 12, 7: 12}),  # leading exponent (12 + 84)/24 = 4
    (49, {1: 8, 7: 16}),   # leading exponent (8 + 112)/24 = 5
)


def cube_bracket(order: int) -> QSeries:
    """The weighted sum of the three eta products; leading term q^3."""
    check_int("cube_bracket", "order", order, 0)
    return QSeries.linear_combination(
        ((expand(EtaQuotientSpec(CUBE_BRACKET_LEVEL, exps), order), weight)
         for weight, exps in CUBE_BRACKET_TERMS),
        order,
    )


def delta_4_7_cuberoot(order: int) -> QSeries:
    """The level-7 cusp form as the cube root of the bracket.

    The bracket is expanded two indices past the requested order so the
    root (valuation 3, hence a 2-index truncation loss) still carries
    every coefficient up to `order`.
    """
    check_int("delta_4_7_cuberoot", "order", order, 3)
    return cube_bracket(order + 2).cube_root()


def delta_series(form: str, order: int) -> QSeries:
    """The named form of DELTA_FORMS as its generator combination."""
    check_int("delta_series", "order", order, 0)
    if form not in DELTA_FORMS:
        raise ValueError(f"unknown form {form!r}, expected one of {', '.join(DELTA_FORMS)}")
    return QSeries.linear_combination(
        ((c_series(j, order), coef) for j, coef in DELTA_FORMS[form].items()), order
    )


# bench/tracer.py looks up TauTables.at_order by name and fails when the
# name is missing; drop this alias once the tracer skips absent owners.
TauTables = CuspTable

# W_{1,14}: the t47(n/2) term of the published formula is "4,7" at d = 2
ROYER_1_14 = TermTable((
    *sigma3_terms({1: "1/600", 2: "1/150", 7: "49/600", 14: "49/150"}),
    *sigma1_terms({1: ("1/24", "-1/56"), 14: ("1/24", "-1/4")}),
    *form_terms({"4,7": "-3/350", "4,14,1": "-1/84", "4,14,2": "-1/200"}),
    *scaled(form_terms({"4,7": "-6/175"}), t=2),
))

LEMIRE_1_7 = TermTable((
    *sigma3_terms({1: "1/120", 7: "49/120"}),
    *sigma1_terms({1: ("1/24", "-1/28"), 7: ("1/24", "-1/4")}),
    *form_terms({"4,7": "-1/70"}),
))


def w_1_14_royer(n: int) -> int:
    """W_{1,14}(n) by the published level-14 formula."""
    return evaluate(ROYER_1_14, n, "W(1,14)")


def w_1_7_lemire(n: int) -> int:
    """W_{1,7}(n) by the published level-7 formula."""
    return evaluate(LEMIRE_1_7, n, "W(1,7)")
