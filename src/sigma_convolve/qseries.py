"""Truncated formal power series in q with integer coefficients.

A QSeries holds int coefficients for q^0 .. q^order inclusive; rationals
live only in coordinates, such as the coefficients of ``linear_combination``.
Every binary operation truncates to the smaller operand order, so
compositions stay total when everything is built at one global order.

Series products use signed Kronecker substitution: each operand is packed
into one big int with one fixed-width slot per coefficient, the two ints are
multiplied once, and the product's low slots are read back as the
coefficients. A slot holds the bound |c_k| <= min(l1(a) max|b|, l1(b)
max|a|) on every product coefficient plus a sign bit, rounded up to whole
bytes, so no slot can carry into the next and the result is exact.

``product`` is the one engine for a product of several factors, each a
sparse term list or a ``Dense`` coefficient list in q^t. Sparse factors
are multiplied in pairs by direct loops; dense ones are joined left to
right by the Kronecker kernel. A join f(q^s) g(q^t) is split: with
d = gcd(s, t), s = d s' and t = d t', the coefficient of q^(d n) sums
f_i g_j over s' i + t' j = n, and splitting i by its residue r mod t' and
j by its residue u mod s' sends each pair (r, u) to its own residue class
s' r + t' u of n mod s' t'. So the join is s' t' Kronecker products of
length about N / (d s' t'), interleaved, each with its own slot width
(only the classes at most N / d are joined, so never more than N / d + 1);
big-int products cost more than linearly, so the short joins are cheaper
than one join of the two dilated lists.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .arith import check_int, normalize, over_common_denominator
from .errors import BadLeadingTerm, NonIntegralResult, OutOfRange


class QSeries:
    """Immutable truncated power series Σ c_n q^n, n = 0..order."""

    __slots__ = ("order", "_coeffs")

    order: int
    _coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int], order: int | None = None):
        if order is not None:
            check_int("QSeries", "order", order, 0)
        cs = list(coeffs)
        if not {*map(type, cs)} <= {int}:
            bad = next(c for c in cs if type(c) is not int)
            raise TypeError(f"QSeries coefficients must be int, got {type(bad).__name__}")
        if order is None:
            if not cs:
                raise ValueError("empty coefficient list and no explicit order")
            order = len(cs) - 1
        if len(cs) < order + 1:
            cs.extend([0] * (order + 1 - len(cs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_coeffs", tuple(cs[: order + 1]))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls([0], order)

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls([1], order)

    @classmethod
    def linear_combination(
        cls, terms: Iterable[tuple["QSeries", int | Fraction]], order: int
    ) -> "QSeries":
        """Sum of coef * series over (series, coef) pairs, truncated to the
        least of ``order`` and the series' orders.

        The rational coefficients are scaled to integers by their common
        denominator L, the integer multiples of each series are summed, and
        each sum is divided by L once. A sum that L does not divide raises
        NonIntegralResult.
        """
        check_int("QSeries.linear_combination", "order", order, 0)
        pairs = [(s, normalize(c)) for s, c in terms if c]
        scaled, den = over_common_denominator(c for _, c in pairs)
        n = min([order, *(s.order for s, _ in pairs)])
        acc = [0] * (n + 1)
        for (s, _), k in zip(pairs, scaled):
            acc = [a + k * b for a, b in zip(acc, s._coeffs)]
        if any(a % den for a in acc):
            raise NonIntegralResult(f"a combination over denominator {den} is not integral")
        return cls([a // den for a in acc], n)

    @classmethod
    def monomial(cls, n: int, order: int, coeff: int = 1) -> "QSeries":
        """coeff * q^n truncated to the given order."""
        check_int("QSeries.monomial", "n", n, 0, "order", order, 0)
        cs = [0] * (order + 1)
        if n <= order:
            cs[n] = coeff
        return cls(cs, order)

    # -- access ------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    def coefficient(self, n: int) -> int:
        """Coefficient of q^n; raises OutOfRange beyond the truncation."""
        check_int("QSeries.coefficient", "n", n)
        if not 0 <= n <= self.order:
            raise OutOfRange(f"index {n} outside stored range 0..{self.order}")
        return self._coeffs[n]

    def truncate(self, order: int) -> "QSeries":
        """Copy truncated to a smaller (or equal) order."""
        check_int("QSeries.truncate", "order", order, 0)
        if order > self.order:
            raise OutOfRange(f"cannot extend order {self.order} to {order}")
        if order == self.order:
            return self
        return QSeries(self._coeffs[: order + 1], order)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None for the zero series."""
        for i, c in enumerate(self._coeffs):
            if c:
                return i
        return None

    def equal_up_to(self, other: "QSeries", bound: int) -> bool:
        """Exact agreement of coefficients 0..bound inclusive."""
        check_int("QSeries.equal_up_to", "bound", bound, 0)
        if bound > self.order or bound > other.order:
            raise OutOfRange(
                f"bound {bound} exceeds stored orders {self.order}, {other.order}"
            )
        return self._coeffs[: bound + 1] == other._coeffs[: bound + 1]

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self._coeffs, other._coeffs
        return QSeries([a[i] + b[i] for i in range(n + 1)], n)

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self._coeffs, other._coeffs
        return QSeries([a[i] - b[i] for i in range(n + 1)], n)

    def __neg__(self) -> "QSeries":
        return QSeries([-c for c in self._coeffs], self.order)

    def __mul__(self, other: "QSeries | int") -> "QSeries":
        """Product with an int scalar, or truncated series product: one
        big-int multiply (see the module docstring)."""
        if type(other) is int:
            return QSeries([c * other for c in self._coeffs], self.order)
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a = self._coeffs[: n + 1]
        return QSeries(_kronecker_product(a, a if other is self else other._coeffs[: n + 1]), n)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "QSeries":
        check_int("QSeries.__pow__", "e", e, 0)
        result = QSeries.one(self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def substitute_power(self, t: int) -> "QSeries":
        """a(q^t) truncated to the original order."""
        check_int("QSeries.substitute_power", "t", t, 1)
        if t == 1:
            return self
        n = self.order
        out = [0] * (n + 1)
        for i in range(0, n // t + 1):
            out[i * t] = self._coeffs[i]
        return QSeries(out, n)

    def cube_root(self) -> "QSeries":
        """The series b with b^3 = self, leading term q^(v/3) for the
        valuation v.

        Requires a nonzero series whose leading coefficient is 1 and whose
        valuation is a multiple of 3. The result is truncated to
        order - 2*(v/3): only coefficients fully determined by the stored
        part of the input are returned. A root coefficient that is not an
        integer raises NonIntegralResult.
        """
        lead = self.valuation()
        if lead is None:
            raise BadLeadingTerm("the zero series has no leading term")
        if lead % 3 != 0:
            raise BadLeadingTerm(f"valuation must be a multiple of 3, got {lead}")
        if self._coeffs[lead] != 1:
            raise BadLeadingTerm(
                f"leading coefficient must be 1, got {self._coeffs[lead]!r}"
            )
        m = lead // 3
        u = self._coeffs[lead + 1:]  # the unit series u_1, u_2, ..., with u_0 = 1
        iu = [i * c for i, c in enumerate(u, 1)]
        # r^3 = u with r_0 = 1, by the power recurrence for r = u^(1/3):
        # 3k r_k = sum_{i=1}^{k} (4i - 3k) u_i r_{k-i}
        #        = 4 sum i u_i r_{k-i} - 3k sum u_i r_{k-i}, two dot products
        r = [1]
        for k in range(1, len(u) + 1):
            acc = 4 * sum(map(mul, iu, reversed(r))) - 3 * k * sum(map(mul, u, reversed(r)))
            r_k, rest = divmod(acc, 3 * k)
            if rest:
                raise NonIntegralResult(f"cube root coefficient {k} is {Fraction(acc, 3 * k)}")
            r.append(r_k)
        # r_0 .. r_{order - lead} sit at q^m .. q^(order - 2m)
        return QSeries([0] * m + r, self.order - 2 * m)

    # -- comparison and display ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.order == other.order and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self.order, self._coeffs))

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self._coeffs):
            if c:
                terms.append(f"{c}*q^{i}" if i else f"{c}")
            if len(terms) == 6:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"QSeries({body}; order={self.order})"


def _kronecker_product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The first len(a) coefficients of the product of two integer
    polynomials with len(a) == len(b) coefficients each.

    Every slot is w bytes, with w the least byte count whose half range
    2^(8w-1) exceeds min(l1(a) max|b|, l1(b) max|a|); that bounds every
    |c_k| and every |a_i| and |b_i|. Each operand is packed with every digit
    offset by that half into [0, 2^(8w)), and the offsets are subtracted as
    one int. The product is cut to len(a) slots in two's complement, the
    half is added back to every slot, and each slot is read as unsigned
    less the half.

    Slots of at most 8 bytes hold every coefficient as an int64, so on a
    little-endian host they are packed and read through ``array("q")``
    with one byte-slice copy per byte of the slot, not one call per
    coefficient: c + half is c's low w two's-complement bytes with the top
    bit flipped, and a read slot flipped back and sign-extended is c.
    """
    size = len(a)
    l1_a, l1_b = sum(map(abs, a)), sum(map(abs, b))
    if not l1_a or not l1_b:
        return [0] * size
    bound = min(l1_a * max(map(abs, b)), l1_b * max(map(abs, a)))
    width = bound.bit_length() // 8 + 1
    half = 1 << (8 * width - 1)
    offsets = int.from_bytes((bytes(width - 1) + b"\x80") * size, "little")
    words = width <= 8 and _LITTLE_ENDIAN
    top = width - 1

    def pack(cs: Sequence[int]) -> int:
        if words:
            raw = array("q", cs).tobytes()
            slots = bytearray(width * size)
            for j in range(top):
                slots[j::width] = raw[j::8]
            slots[top::width] = raw[top::8].translate(_FLIP_TOP_BIT)
        else:
            slots = b"".join([(c + half).to_bytes(width, "little") for c in cs])
        return int.from_bytes(slots, "little") - offsets

    packed_a = pack(a)
    packed_b = packed_a if b is a else pack(b)
    nbytes = width * size
    low = (packed_a * packed_b + offsets) & ((1 << 8 * nbytes) - 1)
    digits = low.to_bytes(nbytes, "little")
    if not words:
        digits = memoryview(digits)
        return [int.from_bytes(digits[i : i + width], "little") - half
                for i in range(0, nbytes, width)]
    raw = bytearray(8 * size)
    for j in range(top):
        raw[j::8] = digits[j::width]
    high = digits[top::width].translate(_FLIP_TOP_BIT)
    raw[top::8] = high
    sign = high.translate(_SIGN_BYTE)
    for j in range(width, 8):
        raw[j::8] = sign
    return array("q", raw).tolist()


_LITTLE_ENDIAN = sys.byteorder == "little"
# byte maps for the int64 slots: the top bit flipped, and the byte that
# sign-extends a two's-complement top byte
_FLIP_TOP_BIT = bytes(i ^ 0x80 for i in range(256))
_SIGN_BYTE = bytes(0xFF if i & 0x80 else 0 for i in range(256))


class Dense(NamedTuple):
    """A dense factor of ``product``: sum coeffs[i] q^(t*i). Entries past
    the product's order are ignored, and missing ones read as zeros."""

    coeffs: Sequence[int]
    t: int = 1


def product(
    order: int, factors: Iterable[Dense | Sequence[tuple[int, int]]]
) -> list[int]:
    """Coefficients 0..order of the product of the factors, each a
    ``Dense`` or a sparse list of (exponent, coefficient) pairs in
    ascending exponent order.

    Sparse factors are multiplied in pairs, in the order given, an odd one
    out on its own; each pair product is a dense factor in q. The dense
    factors, those pair products first, are then joined left to right,
    each join split by residue classes (see the module docstring). The
    empty product is 1.
    """
    check_int("product", "order", order, 0)
    sparse, dense = [], []
    for f in factors:
        if isinstance(f, Dense):
            check_int("product", "t", f.t, 1)
            dense.append(f)
        else:
            sparse.append(f)
    if len(sparse) % 2:
        sparse.append([(0, 1)])
    dense[:0] = [Dense(_sparse_product(f, g, order))
                 for f, g in zip(sparse[::2], sparse[1::2])]
    if not dense:
        return [1] + [0] * order
    (cs, t), *rest = dense
    for g, u in rest:
        cs, t = _split_join(cs, t, g, u, order)
    out = [0] * (order + 1)
    out[::t] = _fit(cs[: order // t + 1], order // t + 1)
    return out


def _fit(cs: Sequence[int], size: int) -> list[int]:
    """At most ``size`` leading coefficients, padded with zeros to ``size``."""
    return [*cs, *[0] * (size - len(cs))]


def _split_join(
    f: Sequence[int], s: int, g: Sequence[int], t: int, order: int
) -> tuple[list[int], int]:
    """(h, d) with h(q^d) = f(q^s) g(q^t) up to q^order and d = gcd(s, t):
    one Kronecker product per pair of residue classes, interleaved.

    Only the pairs whose class s r + t u is at most order / d are visited;
    the classes are distinct mod s t, so there are at most order / d + 1
    of them, however large s and t are."""
    d = gcd(s, t)
    s, t, m = s // d, t // d, order // d
    step = s * t
    h = [0] * (m + 1)
    for r in range(min(t, m // s + 1)):
        for u in range(min(s, (m - s * r) // t + 1)):
            e = s * r + t * u
            size = (m - e) // step + 1
            a = _fit(f[r : r + size * t : t], size)
            # one series at one dilation: the kernel squares it
            b = a if f is g and s == t else _fit(g[u : u + size * s : s], size)
            h[e::step] = _kronecker_product(a, b)
    return h, d


def _sparse_product(
    f: Sequence[tuple[int, int]], g: Sequence[tuple[int, int]], order: int
) -> list[int]:
    """Coefficients 0..order of the product of two sparse series, each a
    list of (exponent, coefficient) in ascending exponent order."""
    out = [0] * (order + 1)
    for e, c in f:
        for e2, c2 in g:
            if e + e2 > order:
                break
            out[e + e2] += c * c2
    return out
