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
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

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
    """
    size = len(a)
    l1_a, l1_b = sum(map(abs, a)), sum(map(abs, b))
    if not l1_a or not l1_b:
        return [0] * size
    bound = min(l1_a * max(map(abs, b)), l1_b * max(map(abs, a)))
    width = bound.bit_length() // 8 + 1
    half = 1 << (8 * width - 1)
    offsets = int.from_bytes((bytes(width - 1) + b"\x80") * size, "little")

    def pack(cs: list[int]) -> int:
        slots = b"".join([(c + half).to_bytes(width, "little") for c in cs])
        return int.from_bytes(slots, "little") - offsets

    packed_a = pack(a)
    packed_b = packed_a if b is a else pack(b)
    nbytes = width * size
    low = (packed_a * packed_b + offsets) & ((1 << 8 * nbytes) - 1)
    digits = memoryview(low.to_bytes(nbytes, "little"))
    return [int.from_bytes(digits[i : i + width], "little") - half
            for i in range(0, nbytes, width)]
