"""The whole-table oracles: W_{a,b}(0..N) and R7(0..N) as series products.

``w_table`` and ``r7_table`` compute their tables from the definitions,
with no closed form, eta quotient or modular form in sight: a sigma sieve
from ``arith`` or the two-square counts of one disc walk, multiplied by
the product engine of ``qseries``. This module imports nothing else of
the package, so a command that prints only these tables loads no closed
form, and the oracles' independence from the closed forms is a fact of
the imports. The point oracles (``convolution.w_brute``,
``representations.r4_enumerate`` and ``r7_enumerate``) stay beside the
closed forms they check, and the enumerations share ``_r2_table``.
"""

from __future__ import annotations

from math import isqrt

from .arith import check_int, check_size, sigma_table
from .qseries import Dense, product


def w_table(a: int, b: int, n_max: int) -> list[int]:
    """W_{a,b}(0), ..., W_{a,b}(n_max) as one list, with W(0) = 0: the
    whole-table oracle.

    The sum over a*l + b*m = n is the q^n coefficient of
    (sum sigma(l) q^(a*l)) (sum sigma(m) q^(b*m)), so the table is the
    product of two dense factors, one sigma table in q^a and in q^b. The
    engine divides out gcd(a, b) and joins each residue class of one side
    with one of the other: ab / gcd(a, b)^2 Kronecker products of about
    n_max gcd(a, b) / (ab) coefficients, or only the n_max / gcd(a, b) + 1
    classes that start at or below n_max when that is fewer. n_max must be
    at most ``arith.MAX_ORDER``.
    """
    check_int("w_table", "a", a, 1, "b", b, 1, "n_max", n_max, 0)
    check_size("w_table", n_max)
    s = sigma_table(1, n_max // min(a, b))
    return product(n_max, [Dense(s, a), Dense(s, b)])


def _r2_table(n: int) -> list[int]:
    """The two-square counts r2(0), ..., r2(n) for n >= 0, from the lattice
    points of the disc x^2 + y^2 <= n: the nonnegative quadrant is walked
    with weight 2 per nonzero coordinate."""
    r2 = [0] * (n + 1)
    for x in range(isqrt(n) + 1):
        wx, x2 = (2 if x else 1), x * x
        for y in range(isqrt(n - x2) + 1):
            r2[x2 + y * y] += wx * (2 if y else 1)
    return r2


def r7_table(n_max: int) -> list[int]:
    """R7(0), ..., R7(n_max) as one list, with R7(0) = 1: the whole-table
    oracle. r4 = r2 * r2 and R7 = r4(q) * r4(q^7) as series over one disc
    walk: one Kronecker square, then seven joins of one residue class of
    r4 mod 7 with r4(q^7). n_max must be at most ``arith.MAX_ORDER``."""
    check_int("r7_table", "n_max", n_max, 0)
    check_size("r7_table", n_max)
    r2 = _r2_table(n_max)
    r4 = product(n_max, [Dense(r2), Dense(r2)])
    return product(n_max, [Dense(r4), Dense(r4, 7)])
