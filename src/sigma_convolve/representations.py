"""Representation counts: r4(n) for four squares and R7(n) for the
eight-variable form x1^2+x2^2+x3^2+x4^2 + 7(x5^2+x6^2+x7^2+x8^2).

R7 is computed three independent ways: lattice enumeration (the oracle),
the divisor-sum-plus-convolution formula, and the closed form in sigma_3
and cusp coefficients (simplified and raw, both term data for the
evaluator in ``convolution``). Their pointwise agreement is the package's
strongest end-to-end check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .arith import sigma, sigma_scaled
from .convolution import evaluate, form_terms, sigma3_terms, w_formula
from .eta import CuspTable, c_series


def r4_jacobi(n: int) -> int:
    """Four-squares count by the divisor-sum formula: 8*sigma(n) - 32*sigma(n/4),
    with r4(0) = 1 and zero off the nonnegative integers."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    return 8 * sigma(1, n) - 32 * sigma_scaled(1, n, 4)


@lru_cache(maxsize=None)
def r4_enumerate(n: int) -> int:
    """Four-squares count by direct lattice enumeration.

    Walks the nonnegative octant with weight 2 per nonzero coordinate; the
    fourth coordinate is resolved by a perfect-square test.
    """
    if n < 0:
        return 0
    total = 0
    ra = isqrt(n)
    for a in range(ra + 1):
        wa = 2 if a else 1
        na = n - a * a
        rb = isqrt(na)
        for b in range(rb + 1):
            wb = wa * (2 if b else 1)
            nb = na - b * b
            rc = isqrt(nb)
            for c in range(rc + 1):
                rem = nb - c * c
                d = isqrt(rem)
                if d * d == rem:
                    total += wb * (2 if c else 1) * (2 if d else 1)
    return total


def r7_enumerate(n: int) -> int:
    """R7 by enumeration, split over n = l + 7m: sum of r4(l)*r4(m)."""
    if n < 0:
        return 0
    return sum(r4_enumerate(n - 7 * m) * r4_enumerate(m) for m in range(n // 7 + 1))


def r7_via_w(n: int, cusp: CuspTable | None = None) -> int:
    """R7 by the divisor-sum and convolution-sum formula:
    8 sigma(n) - 32 sigma(n/4) + 8 sigma(n/7) - 32 sigma(n/28)
    + 64 W_{1,7}(n) + 1024 W_{1,7}(n/4) - 256 (W_{4,7}(n) + W_{1,28}(n))."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    total = (
        8 * sigma(1, n)
        - 32 * sigma_scaled(1, n, 4)
        + 8 * sigma_scaled(1, n, 7)
        - 32 * sigma_scaled(1, n, 28)
    )
    total += 64 * w_formula((1, 7), n, cusp)
    if n % 4 == 0:
        total += 1024 * w_formula((1, 7), n // 4, cusp)
    total -= 256 * (w_formula((4, 7), n, cusp) + w_formula((1, 28), n, cusp))
    return total


R7_CLOSED = (
    *sigma3_terms({1: "8/25", 2: "-16/25", 4: "128/25",
                   7: "392/25", 14: "-784/25", 28: "6272/25"}),
    *form_terms({1: "-928/175", 2: "-768/25", 3: "32/5",
                 4: "2272/175", 5: "2304/25", 6: "768/5",
                 7: "-1152/25", 8: "24576/25", 9: "24576/25"}),
)

# pre-simplification variant: the same sigma_3 terms, different cusp
# coefficients, and a dilated (C_1 + 4 C_2)(q^4) tail that the final form
# absorbs
R7_CLOSED_RAW = (
    *(t for t in R7_CLOSED if t.kind == "sigma3"),
    *form_terms({1: "-6816/1225", 2: "-5696/175", 3: "32/7",
                 4: "16224/1225", 5: "21248/175", 6: "768/5",
                 7: "-10624/175", 8: "166912/175", 9: "166912/175"}),
    *form_terms({"4,7": "-512/35"}, d=4),
)


def r7_closed(n: int, cusp: CuspTable | None = None) -> int:
    """R7 by the closed form: six sigma_3 terms plus nine cusp terms."""
    return evaluate(R7_CLOSED, n, cusp, "R7")


def r7_closed_raw(n: int, cusp: CuspTable | None = None) -> int:
    """R7 by the unsimplified closed form, whose cusp tail still references
    the dilated coefficients c_1(n/4) and c_2(n/4)."""
    return evaluate(R7_CLOSED_RAW, n, cusp, "R7_raw")


# C_1(q^4) + 4 C_2(q^4) re-expressed in the undilated generators
SHIFT_IDENTITY_COEFFS: dict[int, Fraction] = {
    1: Fraction(-1, 56), 2: Fraction(-1, 8), 3: Fraction(-1, 8),
    4: Fraction(1, 56), 5: Fraction(2), 7: Fraction(-1),
    8: Fraction(-2), 9: Fraction(-2),
}

SHIFT_IDENTITY_LEVEL = 56  # the dilated forms live at level 56; Sturm bound 32


def verify_cusp_shift_identity(order: int) -> bool:
    """Check C_1(q^4) + 4 C_2(q^4) against its nine-generator expression,
    both at the level-56 Sturm bound (32) and at the full given order."""
    if order < 32:
        raise ValueError(f"order must be >= 32, got {order}")
    lhs = c_series(1, order).substitute_power(4) + 4 * c_series(2, order).substitute_power(4)
    rhs = None
    for j, coef in SHIFT_IDENTITY_COEFFS.items():
        term = c_series(j, order) * coef
        rhs = term if rhs is None else rhs + term
    assert rhs is not None
    return lhs.equal_up_to(rhs, 32) and lhs.equal_up_to(rhs, order)
