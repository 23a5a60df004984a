"""Exact integer and rational arithmetic plus divisor-sum functions.

Rationals are ``fractions.Fraction`` (arbitrary precision, always canonical).
Values that happen to be integers are normalized back to ``int`` so that
integer-only computations stay on the fast native path; ``int`` and
``Fraction`` mix freely and compare equal when they should.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt


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


@lru_cache(maxsize=None)
def sigma(k: int, n: int) -> int:
    """Sum of k-th powers of the positive divisors of n; 0 for n <= 0.

    The zero extension off the positive integers is applied uniformly so
    formula evaluators never need to branch on divisibility themselves.
    """
    if k < 1:
        raise ValueError(f"sigma requires k >= 1, got {k}")
    if n <= 0:
        return 0
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d**k
            e = n // d
            if e != d:
                total += e**k
    return total


def sigma_scaled(k: int, n: int, d: int) -> int:
    """sigma(k, n/d) when d divides n, else 0 (the sigma(n/d) idiom)."""
    if d < 1:
        raise ValueError(f"sigma_scaled requires d >= 1, got {d}")
    return sigma(k, n // d) if n % d == 0 else 0
