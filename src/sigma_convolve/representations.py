"""Representation counts: r4(n) for four squares and R7(n) for the
eight-variable form x1^2+x2^2+x3^2+x4^2 + 7(x5^2+x6^2+x7^2+x8^2).

R7 is computed three independent ways: lattice enumeration (the oracle,
which counts four-square representations through two-square counts),
the convolution-sum formula ``R7_VIA_W`` (built from ``FORMULAS``), and
the closed form in sigma_3 and cusp coefficients (simplified and raw):
three term tables for the evaluator in ``convolution``. Their pointwise
agreement is the package's strongest end-to-end check.

Enumeration comes in two shapes. The point oracles ``r4_enumerate`` and
``r7_enumerate`` walk the disc x^2 + y^2 <= n once per call into the
two-square counts r2(0..n) (``tables._r2_table``) and sum dot products
over them; they keep no cache and share no code with ``qseries``. The
table oracle ``tables.r7_table`` walks the disc once and forms the series
r4 = r2 * r2 and R7 = r4(q) * r4(q^7) by the product engine of
``qseries``; the tests check it against ``r7_enumerate`` at every n.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .arith import check_int, check_size, over_common_denominator, sigma, sigma_scaled
from .convolution import (
    FORMULAS,
    TermTable,
    evaluate,
    form_terms,
    scaled,
    sigma1_terms,
    sigma3_terms,
)
from .deltaforms import delta_series
from .eta import c_series
from .modforms import sturm_bound
from .qseries import QSeries
from .tables import _r2_table


def r4_jacobi(n: int) -> int:
    """Four-squares count by the divisor-sum formula: 8*sigma(n) - 32*sigma(n/4),
    with r4(0) = 1 and zero off the nonnegative integers."""
    check_int("r4_jacobi", "n", n)
    if n < 0:
        return 0
    if n == 0:
        return 1
    return 8 * sigma(1, n) - 32 * sigma_scaled(1, n, 4)


def _r4_at(r2: list[int], k: int) -> int:
    """r4(k) from r2 covering 0..k: a point of Z^4 on the sphere of norm k
    splits into two planar points of norms i and k - i."""
    return sum(map(mul, r2, r2[k::-1]))


def r4_enumerate(n: int) -> int:
    """Four-squares count by lattice enumeration: r2(0..n) from the disc of
    radius sqrt(n), then r4(n) = sum over k of r2(k) * r2(n - k). Nothing
    is cached; n must be at most ``arith.MAX_ORDER``."""
    check_int("r4_enumerate", "n", n)
    if n < 0:
        return 0
    check_size("r4_enumerate", n)
    return _r4_at(_r2_table(n), n)


def r7_enumerate(n: int) -> int:
    """R7 by enumeration, split over n = l + 7m: sum of r4(l)*r4(m). One
    disc walk gives r2(0..n); each r4 is a dot product over it."""
    check_int("r7_enumerate", "n", n)
    if n < 0:
        return 0
    check_size("r7_enumerate", n)
    r2 = _r2_table(n)
    return sum(_r4_at(r2, n - 7 * m) * _r4_at(r2, m) for m in range(n // 7 + 1))


# R_7 = 8 sigma(n) - 32 sigma(n/4) + 8 sigma(n/7) - 32 sigma(n/28) + 64 W_{1,7}(n)
#       + 1024 W_{1,7}(n/4) - 256 (W_{4,7}(n) + W_{1,28}(n))
R7_VIA_W = TermTable((
    *sigma1_terms({1: (8, 0), 4: (-32, 0), 7: (8, 0), 28: (-32, 0)}),
    *scaled(FORMULAS[1, 7], 64),
    *scaled(FORMULAS[1, 7], 1024, 4),
    *scaled(FORMULAS[4, 7], -256),
    *scaled(FORMULAS[1, 28], -256),
))


def r7_via_w(n: int) -> int:
    """R7 by the convolution-sum formula, summed as the one table R7_VIA_W."""
    return evaluate(R7_VIA_W, n, "r7_via_w")


R7_CLOSED = TermTable((
    *sigma3_terms({1: "8/25", 2: "-16/25", 4: "128/25",
                   7: "392/25", 14: "-784/25", 28: "6272/25"}),
    *form_terms({1: "-928/175", 2: "-768/25", 3: "32/5",
                 4: "2272/175", 5: "2304/25", 6: "768/5",
                 7: "-1152/25", 8: "24576/25", 9: "24576/25"}),
))

# pre-simplification variant: the same sigma_3 terms, different cusp
# coefficients, and a dilated (C_1 + 4 C_2)(q^4) tail that the final form
# absorbs
R7_CLOSED_RAW = TermTable((
    *(t for t in R7_CLOSED if t.kind == "sigma3"),
    *form_terms({1: "-6816/1225", 2: "-5696/175", 3: "32/7",
                 4: "16224/1225", 5: "21248/175", 6: "768/5",
                 7: "-10624/175", 8: "166912/175", 9: "166912/175"}),
    *scaled(form_terms({"4,7": "-512/35"}), t=4),
))


def r7_closed(n: int) -> int:
    """R7 by the closed form: six sigma_3 terms plus nine cusp terms."""
    return evaluate(R7_CLOSED, n, "R7")


def r7_closed_raw(n: int) -> int:
    """R7 by the unsimplified closed form, whose cusp tail still references
    the dilated coefficients c_1(n/4) and c_2(n/4)."""
    return evaluate(R7_CLOSED_RAW, n, "R7_raw")


# Δ_{4,7}(q^4) = C_1(q^4) + 4 C_2(q^4) re-expressed in the undilated generators
SHIFT_IDENTITY_COEFFS: dict[int, Fraction] = {
    1: Fraction(-1, 56), 2: Fraction(-1, 8), 3: Fraction(-1, 8),
    4: Fraction(1, 56), 5: Fraction(2), 7: Fraction(-1),
    8: Fraction(-2), 9: Fraction(-2),
}

SHIFT_IDENTITY_LEVEL = 56  # the dilated forms live at level 56


def verify_cusp_shift_identity(order: int) -> bool:
    """Check Δ_{4,7}(q^4), DELTA_FORMS["4,7"] at q^4, against its
    nine-generator expression at the given order, which must reach the
    level-56 Sturm bound. Both sides are compared times the coefficients'
    denominator, so a non-integral slip reads as False, not as an error."""
    check_int("verify_cusp_shift_identity", "order", order, sturm_bound(SHIFT_IDENTITY_LEVEL))
    lhs = delta_series("4,7", order).substitute_power(4)
    nums, den = over_common_denominator(SHIFT_IDENTITY_COEFFS.values())
    rhs = QSeries.linear_combination(
        ((c_series(j, order), k) for j, k in zip(SHIFT_IDENTITY_COEFFS, nums)), order
    )
    return (den * lhs).equal_up_to(rhs, order)
