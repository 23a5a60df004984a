"""Truncated formal power series in q with exact rational coefficients.

A QSeries holds coefficients for q^0 .. q^order inclusive. Every binary
operation truncates to the smaller operand order, so compositions stay total
when everything is built at one global order. Coefficients are int or
Fraction (ints kept as ints so integer series multiply at native speed).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .arith import exact_div, normalize
from .errors import BadLeadingTerm, OutOfRange, ZeroConstantTerm

Coeff = int | Fraction


class QSeries:
    """Immutable truncated power series Σ c_n q^n, n = 0..order."""

    __slots__ = ("order", "_coeffs")

    order: int
    _coeffs: tuple[Coeff, ...]

    def __init__(self, coeffs: Iterable[Coeff], order: int | None = None):
        cs = [normalize(c) for c in coeffs]
        if order is None:
            if not cs:
                raise ValueError("empty coefficient list and no explicit order")
            order = len(cs) - 1
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
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
    def monomial(cls, n: int, order: int, coeff: Coeff = 1) -> "QSeries":
        """coeff * q^n truncated to the given order."""
        if n < 0:
            raise ValueError(f"monomial exponent must be >= 0, got {n}")
        cs = [0] * (order + 1)
        if n <= order:
            cs[n] = coeff
        return cls(cs, order)

    # -- access ------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Coeff, ...]:
        return self._coeffs

    def coefficient(self, n: int) -> Coeff:
        """Coefficient of q^n; raises OutOfRange beyond the truncation."""
        if not 0 <= n <= self.order:
            raise OutOfRange(f"index {n} outside stored range 0..{self.order}")
        return self._coeffs[n]

    def truncate(self, order: int) -> "QSeries":
        """Copy truncated to a smaller (or equal) order."""
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

    def __mul__(self, other: "QSeries | Coeff") -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return QSeries([c * other for c in self._coeffs], self.order)
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self._coeffs, other._coeffs
        # iterate the sparser support on the outside: eta bodies are mostly zeros
        sup_a = [i for i in range(n + 1) if a[i]]
        sup_b = [i for i in range(n + 1) if b[i]]
        if len(sup_b) < len(sup_a):
            a, b = b, a
            sup_a, sup_b = sup_b, sup_a
        out: list[Coeff] = [0] * (n + 1)
        for i in sup_a:
            ai = a[i]
            lim = n - i
            for j in sup_b:
                if j > lim:
                    break
                out[i + j] += ai * b[j]
        return QSeries(out, n)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "QSeries":
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {e!r}")
        result = QSeries.one(self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def inverse(self) -> "QSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        a = self._coeffs
        if a[0] == 0:
            raise ZeroConstantTerm("cannot invert a series with constant term 0")
        n = self.order
        b: list[Coeff] = [exact_div(1, a[0])]
        for k in range(1, n + 1):
            acc = 0
            for i in range(1, k + 1):
                if a[i]:
                    acc += a[i] * b[k - i]
            b.append(exact_div(-acc, a[0]) if acc else 0)
        return QSeries(b, n)

    def substitute_power(self, t: int) -> "QSeries":
        """a(q^t) truncated to the original order."""
        if t < 1:
            raise ValueError(f"substitution power must be >= 1, got {t}")
        if t == 1:
            return self
        n = self.order
        out: list[Coeff] = [0] * (n + 1)
        for i in range(0, n // t + 1):
            out[i * t] = self._coeffs[i]
        return QSeries(out, n)

    def cube_root(self, leading_index: int) -> "QSeries":
        """The series b with b^3 = self and leading term q^(leading_index/3).

        Requires the leading coefficient to sit at ``leading_index`` (all
        earlier coefficients zero), to equal 1, and 3 | leading_index. The
        result is truncated to order - 2*(leading_index/3): only coefficients
        fully determined by the stored part of the input are returned.
        """
        lead = leading_index
        if lead < 0 or lead % 3 != 0:
            raise BadLeadingTerm(f"leading index must be a nonnegative multiple of 3, got {lead}")
        if lead > self.order:
            raise BadLeadingTerm(f"leading index {lead} exceeds order {self.order}")
        if any(self._coeffs[i] for i in range(lead)):
            raise BadLeadingTerm(f"nonzero coefficient below claimed leading index {lead}")
        if self._coeffs[lead] != 1:
            raise BadLeadingTerm(
                f"leading coefficient must be 1, got {self._coeffs[lead]!r}"
            )
        m = lead // 3
        u = self._coeffs[lead:]  # unit series, u[0] = 1
        nu = len(u) - 1
        # r^3 = u with r_0 = 1; from 3*u*r' = u'*r, comparing q^n coefficients:
        # 3(n+1) r_{n+1} = sum_{j=0}^{n} (j+1) u_{j+1} r_{n-j}
        #                  - 3 sum_{j=0}^{n-1} (j+1) r_{j+1} u_{n-j}
        r: list[Coeff] = [1]
        for n in range(nu):
            acc: Coeff = 0
            for j in range(n + 1):
                if u[j + 1]:
                    acc += (j + 1) * u[j + 1] * r[n - j]
            for j in range(n):
                if u[n - j]:
                    acc -= 3 * (j + 1) * r[j + 1] * u[n - j]
            r.append(exact_div(acc, 3 * (n + 1)))
        out_order = self.order - 2 * m
        out: list[Coeff] = [0] * (out_order + 1)
        for i, c in enumerate(r):
            if m + i <= out_order:
                out[m + i] = c
        return QSeries(out, out_order)

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

