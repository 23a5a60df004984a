"""Exact integer and rational arithmetic plus divisor-sum functions.

Rationals are ``fractions.Fraction`` (arbitrary precision, always canonical).
Values that happen to be integers are normalized back to ``int`` so that
integer-only computations stay on the fast native path; ``int`` and
``Fraction`` mix freely and compare equal when they should.

Divisor sums come from one module-wide table per power k, sigma_k(0..m),
built by a divisor-accumulation sieve and regrown by doubling
(``sigma_table``). Code that reads many values takes the table; scalar
``sigma`` reads it when it already covers n and falls back to trial
division otherwise, so a single large argument never builds a table.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import isqrt
from operator import add


def normalize(value: int | Fraction) -> int | Fraction:
    """Canonicalize an exact number: Fraction with denominator 1 becomes int.

    Floats are rejected: nothing in this package may compute inexactly.
    """
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"exact number required, got {type(value).__name__}")


def exact_div(a: int | Fraction, b: int | Fraction) -> int | Fraction:
    """Exact quotient a/b, normalized. Never produces a float."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    return normalize(Fraction(a) / Fraction(b))


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1, by trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, by trial division."""
    if n < 1:
        raise ValueError(f"prime_factors requires n >= 1, got {n}")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_int(value: object) -> bool:
    """True for an int that is not a bool (bool subclasses int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_sigma_args(name: str, k: object, n: object) -> None:
    if not is_int(k) or k < 1:
        raise ValueError(f"{name} requires an integer k >= 1, got {k!r}")
    if not is_int(n):
        raise ValueError(f"{name} requires an integer n, got {n!r}")


# k -> (sigma_k(0), ..., sigma_k(m)), sigma_k(0) = 0
_sigma_tables: dict[int, tuple[int, ...]] = {}


def sigma_table(k: int, n: int) -> tuple[int, ...]:
    """The shared table sigma_k(0..m) for some m >= n, with sigma_k(0) = 0.

    When n is past its end the table is rebuilt by a divisor-accumulation
    sieve to m = max(n, twice its old m, 64). The tuple is never mutated,
    so callers may keep and slice it.
    """
    _check_sigma_args("sigma_table", k, n)
    table = _sigma_tables.get(k, ())
    if n >= len(table):
        top = max(n, 2 * (len(table) - 1), 64)
        sieve = [0] * (top + 1)
        for d in range(1, top + 1):
            sieve[d::d] = map(add, sieve[d::d], repeat(d**k))
        table = _sigma_tables[k] = tuple(sieve)
    return table


def sigma(k: int, n: int) -> int:
    """Sum of k-th powers of the positive divisors of n; 0 for n <= 0.

    The zero extension off the positive integers is applied uniformly so
    formula evaluators never need to branch on divisibility themselves.
    Reads the shared table when it covers n, else uses trial division; it
    never grows the table.
    """
    _check_sigma_args("sigma", k, n)
    if n <= 0:
        return 0
    table = _sigma_tables.get(k, ())
    if n < len(table):
        return table[n]
    return sum(d**k for d in divisors(n))


def sigma_scaled(k: int, n: int, d: int) -> int:
    """sigma(k, n/d) when d divides n, else 0 (the sigma(n/d) idiom)."""
    if d < 1:
        raise ValueError(f"sigma_scaled requires d >= 1, got {d}")
    return sigma(k, n // d) if n % d == 0 else 0
