"""Exact integer and rational arithmetic plus divisor-sum functions.

Series coefficients are ints. Rationals, as ``fractions.Fraction``, appear
only as coordinates and formula coefficients: ``exact_fraction`` reads one
from an int, a Fraction or a string and rejects a float, ``normalize``
turns one with denominator 1 back into an ``int``, and
``over_common_denominator`` puts a list of them over one denominator, so
sums of them run in integers and are divided once at the end.

Every table the package builds is bounded by one constant, ``MAX_ORDER``:
a table, series or store indexed up to n allocates O(n) ints at once, so
``check_size`` and ``grown_size`` raise ``OutOfRange`` past it before
anything is allocated.

Divisor sums come from one module-wide table per power k, sigma_k(0..m),
built by a divisor-accumulation sieve and regrown by doubling
(``sigma_table``). Code that reads many values takes the table; scalar
``sigma`` reads it when it already covers n and falls back to trial
division otherwise, so a single large argument never builds a table.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import isqrt, lcm
from operator import add
from typing import Iterable

from .errors import OutOfRange

# The largest index any table is built to: the sigma tables, the cusp
# store, the oracle tables of ``convolution`` and ``representations``, and
# the CLI's --n-max, --terms and --order. Past it a build would take
# minutes and hundreds of MiB, so it raises OutOfRange instead.
MAX_ORDER = 10**6


def normalize(value: int | Fraction) -> int | Fraction:
    """Canonicalize an exact number: Fraction with denominator 1 becomes int.

    Floats are rejected: nothing in this package may compute inexactly.
    """
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"exact number required, got {type(value).__name__}")


def exact_fraction(value: int | Fraction | str) -> Fraction:
    """An int, a Fraction or a literal such as "-3/350" as a Fraction.

    Floats, and every other type, are rejected: Fraction(0.1) would keep
    the float's binary expansion, 3602879701896397/36028797018963968.
    """
    if not isinstance(value, (int, Fraction, str)):
        raise TypeError(f"exact number required, got {type(value).__name__}")
    return Fraction(value)


def over_common_denominator(values: Iterable[int | Fraction]) -> tuple[list[int], int]:
    """(the values times L, L), with L the lcm of the values' denominators:
    integer numerators of every value over one shared denominator."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1, by trial division up to sqrt(n)."""
    check_int("divisors", "n", n, 1)
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, by trial division."""
    check_int("prime_factors", "n", n, 1)
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


def check_int(who: str, name: str, value: object, least: int | None = None,
              *more: object) -> None:
    """The one argument rule: value is an int, not a bool, and at least
    ``least`` unless that is None. Otherwise raise ValueError naming the
    caller ``who`` and the argument ``name``. ``more`` repeats name, value,
    least for further arguments, so one call checks them all."""
    i = 0
    while True:
        if not (value.__class__ is int or is_int(value)) or (least is not None and value < least):
            bound = "" if least is None else f" >= {least}"
            raise ValueError(f"{who} needs an integer {name}{bound}, got {value!r}")
        if i == len(more):
            return
        name, value, least = more[i], more[i + 1], more[i + 2]
        i += 3


def check_size(who: str, n: int) -> None:
    """The one size rule: a table indexed up to n needs n <= MAX_ORDER, or
    OutOfRange names the caller ``who``."""
    if n > MAX_ORDER:
        raise OutOfRange(f"{who} needs an order <= {MAX_ORDER}, got {n}")


def grown_size(have: int, need: int) -> int:
    """The size a module-wide table of size ``have`` regrows to when a read
    needs ``need`` past it: max(need, 2 * have, 64), capped at MAX_ORDER,
    so ever larger reads rebuild it a logarithmic number of times. A
    ``need`` past MAX_ORDER raises OutOfRange. Both the sigma tables and
    the cusp store of ``eta`` grow by it."""
    check_size("a shared table", need)
    return min(max(need, 2 * have, 64), MAX_ORDER)


# k -> (sigma_k(0), ..., sigma_k(m)), sigma_k(0) = 0
_sigma_tables: dict[int, tuple[int, ...]] = {}


def sigma_table(k: int, n: int) -> tuple[int, ...]:
    """The shared table sigma_k(0..m) for some m >= n, with sigma_k(0) = 0.

    When n is past its end the table is rebuilt by a divisor-accumulation
    sieve to m = grown_size(old m, n). The tuple is never mutated,
    so callers may keep and slice it.
    """
    check_int("sigma_table", "k", k, 1, "n", n, 0)
    table = _sigma_tables.get(k, ())
    if n >= len(table):
        top = grown_size(len(table) - 1, n)
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
    check_int("sigma", "k", k, 1, "n", n, None)
    if n <= 0:
        return 0
    table = _sigma_tables.get(k, ())
    if n < len(table):
        return table[n]
    return sum(d**k for d in divisors(n))


def sigma_scaled(k: int, n: int, d: int) -> int:
    """sigma(k, n/d) when d divides n, else 0 (the sigma(n/d) idiom)."""
    check_int("sigma_scaled", "k", k, 1, "n", n, None, "d", d, 1)
    return sigma(k, n // d) if n % d == 0 else 0
