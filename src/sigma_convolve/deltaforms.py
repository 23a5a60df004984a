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

from .convolution import DELTA_FORMS, evaluate, form_terms, sigma1_terms, sigma3_terms
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
    acc = QSeries.zero(order)
    for weight, exps in CUBE_BRACKET_TERMS:
        acc = acc + weight * expand(EtaQuotientSpec(CUBE_BRACKET_LEVEL, exps), order)
    return acc


def delta_4_7_cuberoot(order: int) -> QSeries:
    """The level-7 cusp form as the cube root of the bracket.

    The bracket is expanded two indices past the requested order so the
    root (leading index 3, hence a 2-index truncation loss) still carries
    every coefficient up to `order`.
    """
    if order < 3:
        raise ValueError(f"order must be >= 3, got {order}")
    return cube_bracket(order + 2).cube_root(3)


def delta_series(form: str, order: int) -> QSeries:
    """The named form of DELTA_FORMS as its generator combination."""
    acc = QSeries.zero(order)
    for j, coef in DELTA_FORMS[form].items():
        acc = acc + coef * c_series(j, order)
    return acc


def delta_4_7_eta(order: int) -> QSeries:
    """The level-7 form as the eta-quotient combination C_1 + 4 C_2."""
    return delta_series("4,7", order)


def delta_4_14(which: int, order: int) -> QSeries:
    """The two level-14 forms: 1 -> -C_3 + C_4, 2 -> -4 C_2 + C_3 + C_4."""
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which}")
    return delta_series(f"4,14,{which}", order)


# bench/tracer.py looks up TauTables.at_order by name and fails when the
# name is missing; drop this alias once the tracer skips absent owners.
TauTables = CuspTable

# W_{1,14}: the t47(n/2) term of the published formula is "4,7" at d = 2
ROYER_1_14 = (
    *sigma3_terms({1: "1/600", 2: "1/150", 7: "49/600", 14: "49/150"}),
    *sigma1_terms({1: ("1/24", "-1/56"), 14: ("1/24", "-1/4")}),
    *form_terms({"4,7": "-3/350", "4,14,1": "-1/84", "4,14,2": "-1/200"}),
    *form_terms({"4,7": "-6/175"}, d=2),
)

LEMIRE_1_7 = (
    *sigma3_terms({1: "1/120", 7: "49/120"}),
    *sigma1_terms({1: ("1/24", "-1/28"), 7: ("1/24", "-1/4")}),
    *form_terms({"4,7": "-1/70"}),
)


def w_1_14_royer(n: int, cusp: CuspTable | None = None) -> int:
    """W_{1,14}(n) by the published level-14 formula."""
    return evaluate(ROYER_1_14, n, cusp, "W(1,14)")


def w_1_7_lemire(n: int, cusp: CuspTable | None = None) -> int:
    """W_{1,7}(n) by the published level-7 formula."""
    return evaluate(LEMIRE_1_7, n, cusp, "W(1,7)")
