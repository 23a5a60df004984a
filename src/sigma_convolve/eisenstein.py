"""Weight-2 and weight-4 Eisenstein series and their dilations.

L(q) = 1 - 24 sum sigma(n) q^n and M(q) = 1 + 240 sum sigma_3(n) q^n.
"""

from __future__ import annotations

from .arith import sigma_table
from .qseries import QSeries


def l_series(order: int) -> QSeries:
    """1 - 24 sum_{n>=1} sigma(n) q^n."""
    return QSeries([1] + [-24 * s for s in sigma_table(1, order)[1 : order + 1]], order)


def m_series(order: int) -> QSeries:
    """1 + 240 sum_{n>=1} sigma_3(n) q^n."""
    return QSeries([1] + [240 * s for s in sigma_table(3, order)[1 : order + 1]], order)


def l_combination(a: int, b: int, order: int) -> QSeries:
    """a*L(q^a) - b*L(q^b); constant term a - b. Squaring this yields the
    left-hand side of each convolution decomposition."""
    if a < 1 or b < 1:
        raise ValueError(f"dilation factors must be >= 1, got {a}, {b}")
    base = l_series(order)
    return a * base.substitute_power(a) - b * base.substitute_power(b)
