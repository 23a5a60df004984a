"""Weight-2 and weight-4 Eisenstein series and their dilations.

L(q) = 1 - 24 sum sigma(n) q^n and M(q) = 1 + 240 sum sigma_3(n) q^n.
"""

from __future__ import annotations

from .arith import check_int, sigma_table
from .qseries import QSeries


def l_series(order: int) -> QSeries:
    """1 - 24 sum_{n>=1} sigma(n) q^n."""
    check_int("l_series", "order", order, 0)
    return QSeries([1] + [-24 * s for s in sigma_table(1, order)[1 : order + 1]], order)


def m_series(order: int) -> QSeries:
    """1 + 240 sum_{n>=1} sigma_3(n) q^n."""
    check_int("m_series", "order", order, 0)
    return QSeries([1] + [240 * s for s in sigma_table(3, order)[1 : order + 1]], order)


def l_combination(a: int, b: int, order: int) -> QSeries:
    """a*L(q^a) - b*L(q^b); constant term a - b. Squaring this yields the
    left-hand side of each convolution decomposition."""
    check_int("l_combination", "a", a, 1, "b", b, 1, "order", order, 0)
    base = l_series(order)
    return a * base.substitute_power(a) - b * base.substitute_power(b)
