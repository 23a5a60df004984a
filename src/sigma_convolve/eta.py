"""Eta-quotient expansions, the modularity criterion, and the nine
level-28 cusp generators with their coefficient tables.

An eta quotient is a finite product prod eta(delta*z)^{r_delta} over
divisors delta of a level N, where eta is the weight-1/2 product
q^(1/24) * prod (1 - q^n). The fractional power of q never enters the
series ring: ``expand`` reads the accumulated exponent, in units of 1/24,
from the spec ("offset24"), rejects it unless it is a nonnegative multiple
of 24 before any series work, and shifts the integer-exponent body
F = prod P(q^delta)^r_delta, with P(q) = prod (1 - q^n), by offset24/24.

The body is built one of two ways, in both only to order - shift.

An eta product, every r_delta > 0, with sum r_delta at most
SPARSE_MAX_EXPONENT_SUM, is a product of sparse theta series:
prod J(q^delta)^(r // 3) * P(q^delta)^(r % 3), with Jacobi's
J(q) = P(q)^3 = sum_{m>=0} (-1)^m (2m+1) q^(m(m+1)/2) and Euler's
P(q) = sum_k (-1)^k q^(k(3k-1)/2), so each factor has O(sqrt(order/delta))
terms. The factors go to the product engine of ``qseries``, which
multiplies them in pairs by direct loops and joins the pair products by
its Kronecker kernel.

Any other quotient, and a product whose exponents sum past that bound,
takes its body from its logarithmic derivative. Since
q d/dq log P(q) = -sum sigma(m) q^m, the series g = q F'/F has
g_n = -sum_{delta | n} delta * r_delta * sigma(n/delta), and
n f_n = sum_{k=1..n} g_k f_{n-k} with f_0 = 1. Every step is an exact
integer division, so nothing is inverted and each sum is n f_n, only
log2(n) bits wider than a coefficient. This O(order^2) recurrence holds for
every quotient, so the tests use it as the reference for the sparse path.

The nine level-28 generators C_1 .. C_9 have one coefficient store, here
and nowhere else: each generator expanded to the store's order, which only
grows, by ``arith.grown_size``. A generator is expanded on its first read
after a growth, so a closed form that reads two of the nine expands two.

A spec, its Ligozat report and a view of the store are NamedTuples: read
by field name and compared by value. A spec and a view check their fields
whenever one is built, a copy made by ``_replace`` included.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from operator import mul
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .arith import check_int, check_size, divisors, grown_size, is_int, normalize, sigma_table
from .errors import FractionalExponent, NegativeValuation
from .qseries import QSeries, product


class EtaQuotientSpec(
    NamedTuple("EtaQuotientSpec", [("level", int), ("exponents", Mapping[int, int])])
):
    """Level plus a map divisor -> integer exponent (zero entries dropped)."""

    __slots__ = ()

    def __new__(cls, level: int, exponents: Mapping[int, int]) -> "EtaQuotientSpec":
        check_int("EtaQuotientSpec", "level", level, 1)
        cleaned: dict[int, int] = {}
        for delta, r in sorted(exponents.items()):
            if not is_int(delta) or not is_int(r):
                raise ValueError(f"exponent entries must be integers, got {delta!r}: {r!r}")
            if delta < 1 or level % delta != 0:
                raise ValueError(f"{delta} is not a positive divisor of level {level}")
            if r != 0:
                cleaned[delta] = r
        if not cleaned:
            raise ValueError("eta quotient needs at least one nonzero exponent")
        return super().__new__(cls, level, MappingProxyType(cleaned))

    # _replace builds its copy through _make: check it like a new spec
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def from_string(cls, level: int, text: str) -> "EtaQuotientSpec":
        """Parse the CLI format "delta:exponent,delta:exponent,..."."""
        exps: dict[int, int] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                raise ValueError(f"empty entry in spec string {text!r}")
            head, sep, tail = part.partition(":")
            if not sep:
                raise ValueError(f"missing ':' in spec entry {part!r}")
            try:
                delta, r = int(head), int(tail)
            except ValueError:
                raise ValueError(f"non-integer spec entry {part!r}") from None
            if delta in exps:
                raise ValueError(f"duplicate divisor {delta} in spec string")
            exps[delta] = r
        return cls(level, exps)

    def offset24(self) -> int:
        """Sum of delta * r_delta: the q-exponent numerator in units of 1/24."""
        return sum(d * r for d, r in self.exponents.items())

    def __hash__(self) -> int:
        # a mapping proxy is unhashable, so the exponents hash as item pairs
        return hash((self.level, tuple(self.exponents.items())))

    def __repr__(self) -> str:
        body = ",".join(f"{d}:{r}" for d, r in self.exponents.items())
        return f"EtaQuotientSpec(level={self.level}, {body})"


class LigozatReport(NamedTuple):
    """Outcome of the eta-quotient modularity criterion, condition by
    condition, its fields in the order the CLI prints them."""

    weight_k: int | Fraction
    s_value: int | Fraction
    cusp_orders: Mapping[int, int | Fraction]
    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    cond_iii_strict: bool
    cond_iv: bool
    cond_v: bool
    is_modular: bool
    is_cusp: bool


def _body(exponents: Mapping[int, int], order: int) -> list[int]:
    """Coefficients f_0..f_order of prod P(q^delta)^r_delta, by the
    log-derivative recurrence n f_n = sum_{k=1..n} g_k f_{n-k}."""
    s1 = sigma_table(1, order)
    g = [0] * (order + 1)
    for delta, r in exponents.items():
        # g_n gains -delta * r_delta * sigma(n/delta) at every multiple n of delta
        scale = -delta * r
        g[delta::delta] = [x + scale * s for x, s in zip(g[delta::delta], s1[1:])]
    g1 = g[1:]
    f = [1]
    for n in range(1, order + 1):
        f.append(sum(map(mul, g1, reversed(f))) // n)
    return f


# The sparse path makes about sum(r_delta) / 6 Kronecker joins of series
# whose coefficients grow with the exponents, while the recurrence's cost
# barely moves with them: past this sum the recurrence can be the faster.
SPARSE_MAX_EXPONENT_SUM = 48


def _jacobi(delta: int, order: int) -> list[tuple[int, int]]:
    """The terms (exponent, coefficient) of J(q^delta) = P(q^delta)^3 up to
    q^order: (-1)^m (2m + 1) at q^(delta m(m+1)/2), m >= 0."""
    terms = []
    m = 0
    while (e := delta * m * (m + 1) // 2) <= order:
        terms.append((e, -2 * m - 1 if m % 2 else 2 * m + 1))
        m += 1
    return terms


def _euler(delta: int, order: int) -> list[tuple[int, int]]:
    """The terms (exponent, coefficient) of P(q^delta) up to q^order, in
    ascending order: (-1)^k at q^(delta k(3k-1)/2) and q^(delta k(3k+1)/2)."""
    terms = [(0, 1)]
    k = 1
    while (e := delta * k * (3 * k - 1) // 2) <= order:
        sign = -1 if k % 2 else 1
        terms.append((e, sign))
        if e + delta * k <= order:
            terms.append((e + delta * k, sign))
        k += 1
    return terms


def _product_body(exponents: Mapping[int, int], order: int) -> list[int]:
    """Coefficients f_0..f_order of prod P(q^delta)^r_delta with every
    r_delta > 0, as prod J(q^delta)^(r // 3) * P(q^delta)^(r % 3): sparse
    factors for the product engine of ``qseries``."""
    factors = []
    for delta, r in exponents.items():
        factors += [_jacobi(delta, order)] * (r // 3) + [_euler(delta, order)] * (r % 3)
    return product(order, factors)


def expand(spec: EtaQuotientSpec, order: int) -> QSeries:
    """Full q-expansion of an eta quotient as a plain series.

    The order must be an int >= 0, the q-power q^(offset24/24) whole
    and nonnegative, and then the order at most MAX_ORDER (else
    OutOfRange); all are checked before any series is built. An eta
    product (every exponent positive, their sum at most
    SPARSE_MAX_EXPONENT_SUM) takes its body from sparse theta factors, any
    other quotient from the log-derivative recurrence.
    """
    check_int("expand", "order", order, 0)
    offset24 = spec.offset24()
    if offset24 % 24 != 0:
        raise FractionalExponent(f"q-exponent {offset24}/24 is not an integer")
    shift = offset24 // 24
    if shift < 0:
        raise NegativeValuation(f"leading q-power {shift} is negative")
    check_size("expand", order)
    if shift > order:
        return QSeries.zero(order)
    exponents = spec.exponents
    sparse = (all(r > 0 for r in exponents.values())
              and sum(exponents.values()) <= SPARSE_MAX_EXPONENT_SUM)
    body = _product_body if sparse else _body
    return QSeries([0] * shift + body(exponents, order - shift), order)


def ligozat_check(spec: EtaQuotientSpec) -> LigozatReport:
    """Evaluate the modularity criterion for an eta quotient.

    Conditions: (i) sum delta*r_delta and (ii) sum (N/delta)*r_delta both
    divisible by 24; (iii) for every divisor d of N the cusp sum
    sum_delta gcd(d, delta)^2 * r_delta / delta is >= 0, strictly > 0 for
    a cusp form; (iv) the weight k = (1/2) sum r_delta is an even integer;
    (v) s = prod delta^r_delta is the square of a rational.
    """
    n = spec.level
    items = spec.exponents.items()

    weight_k = normalize(Fraction(sum(r for _, r in items), 2))
    cond_i = sum(d * r for d, r in items) % 24 == 0
    cond_ii = sum((n // d) * r for d, r in items) % 24 == 0
    cond_iv = isinstance(weight_k, int) and weight_k % 2 == 0

    # s = prod delta^r_delta, exact with negative exponents allowed; a
    # reduced fraction is a rational square iff both its parts are squares
    s_frac = Fraction(1)
    for d, r in items:
        s_frac *= Fraction(d) ** r
    s_value = normalize(s_frac)
    cond_v = all(isqrt(x) ** 2 == x for x in (s_frac.numerator, s_frac.denominator))

    cusp_orders: dict[int, int | Fraction] = {}
    for d in divisors(n):
        total = Fraction(0)
        for delta, r in items:
            total += Fraction(gcd(d, delta) ** 2 * r, delta)
        cusp_orders[d] = normalize(total)
    cond_iii = all(v >= 0 for v in cusp_orders.values())
    cond_iii_strict = all(v > 0 for v in cusp_orders.values())

    is_modular = cond_i and cond_ii and cond_iii and cond_iv and cond_v
    return LigozatReport(
        weight_k=weight_k,
        s_value=s_value,
        cusp_orders=MappingProxyType(cusp_orders),
        cond_i=cond_i,
        cond_ii=cond_ii,
        cond_iii=cond_iii,
        cond_iii_strict=cond_iii_strict,
        cond_iv=cond_iv,
        cond_v=cond_v,
        is_modular=is_modular,
        is_cusp=is_modular and cond_iii_strict,
    )


# The nine weight-4 cusp generators at level 28, as exponent maps.
CUSP_LEVEL = 28
CUSP_GENERATORS: dict[int, dict[int, int]] = {
    1: {1: 5, 2: -1, 7: 5, 14: -1},
    2: {1: 2, 2: 2, 7: 2, 14: 2},
    3: {1: 6, 2: -2, 7: -2, 14: 6},
    4: {1: -2, 2: 6, 7: 6, 14: -2},
    5: {4: 2, 14: 4, 28: 2},
    6: {2: 6, 4: -2, 14: -2, 28: 6},
    7: {2: 4, 4: -2, 28: 6},
    8: {1: 1, 2: 1, 7: 1, 14: -3, 28: 8},
    9: {2: 1, 4: 1, 14: -3, 28: 9},
}


def _check_index(who: str, j: object) -> None:
    """j must name a generator, 1..9; ValueError naming ``who`` otherwise."""
    check_int(who, "j", j, 1)
    if j not in CUSP_GENERATORS:
        raise ValueError(f"generator index must be 1..9, got {j}")


def cusp_spec(j: int) -> EtaQuotientSpec:
    """The eta-quotient spec of the j-th cusp generator, 1 <= j <= 9."""
    _check_index("cusp_spec", j)
    return EtaQuotientSpec(CUSP_LEVEL, CUSP_GENERATORS[j])


# the store: j -> C_j expanded to _cusp_view.order, the one order every
# generator read is expanded to; _cusp_view is the view of the whole store
_cusp_cache: dict[int, QSeries] = {}
_cusp_view: CuspTable | None = None


def _grow(order: int) -> CuspTable:
    """The view of the whole store, grown to cover ``order``; expands nothing."""
    global _cusp_view
    view = _cusp_view
    if view is None or view.order < order:
        view = _cusp_view = CuspTable(grown_size(view.order if view else 0, order))
    return view


def _cusp_series(j: int) -> QSeries:
    """C_j at the store's order; unchecked, j must be 1..9."""
    series = _cusp_cache.get(j)
    order = _cusp_view.order
    if series is None or series.order < order:
        series = _cusp_cache[j] = expand(cusp_spec(j), order)
    return series


def c_series(j: int, order: int) -> QSeries:
    """q-expansion of the j-th cusp generator to ``order``, from the store."""
    _check_index("c_series", j)
    check_int("c_series", "order", order, 0)
    _grow(order)
    return _cusp_series(j).truncate(order)


def shared_cusp_table(min_order: int) -> CuspTable:
    """The view of the whole store, grown first to cover ``min_order``."""
    check_int("shared_cusp_table", "min_order", min_order, 1)
    return _grow(min_order)


class CuspTable(NamedTuple("CuspTable", [("order", int)])):
    """A read-only view of the store at one order; it holds no
    coefficients."""

    __slots__ = ()

    def __new__(cls, order: int) -> "CuspTable":
        check_int("CuspTable", "order", order, 1)
        return super().__new__(cls, order)

    # _replace builds its copy through _make: check it like a new table
    _make = classmethod(lambda cls, fields: cls(*fields))
