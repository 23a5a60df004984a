"""Weight-4 level-28 form space: basis assembly, Sturm bounds, and exact
linear decomposition against the 15-element basis.

The basis shape comes from ``eta``: M(q^t) for each divisor t of
``CUSP_LEVEL``, plus the nine ``CUSP_GENERATORS``. Decomposition matches
coefficients of q^0 .. q^n_max exactly: it solves the square system of the
first fifteen independent rows in integers, then checks the solution
against every row, so a wrong target or a transcription slip surfaces as a
hard error, never as a least-squares fudge.

The basis (``Basis28``) and a solution (``CoeffVector``) are NamedTuples,
read by field name and compared by value. A vector checks its shape and
normalises each coordinate whenever one is built, ``_replace`` included.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .arith import (
    check_int,
    divisors,
    exact_fraction,
    normalize,
    over_common_denominator,
    prime_factors,
)
from .errors import InconsistentSystem, UnderdeterminedSystem
from .eisenstein import m_series
from .eta import CUSP_GENERATORS, CUSP_LEVEL, c_series
from .qseries import QSeries

# M(q^t), t | N, spans the Eisenstein space when N has as many divisors as cusps, as 28 does
DILATIONS = tuple(divisors(CUSP_LEVEL))


def sturm_bound(level: int) -> int:
    """Ceiling of (level/3) * prod_{p | level} (1 + 1/p) over primes p."""
    check_int("sturm_bound", "level", level, 1)
    bound = Fraction(level, 3)
    for p in prime_factors(level):
        bound *= 1 + Fraction(1, p)
    return -(-bound.numerator // bound.denominator)


MIN_DECOMPOSE_ORDER = sturm_bound(CUSP_LEVEL)


class Basis28(NamedTuple):
    """The fifteen basis series, all truncated at one shared order."""

    eisenstein_parts: tuple[QSeries, ...]
    cusp_parts: tuple[QSeries, ...]
    order: int

    @classmethod
    def at_order(cls, order: int) -> "Basis28":
        check_int("Basis28.at_order", "order", order, MIN_DECOMPOSE_ORDER)
        m = m_series(order)
        eis = tuple(m.substitute_power(t) for t in DILATIONS)
        cusp = tuple(c_series(j, order) for j in CUSP_GENERATORS)
        return cls(eis, cusp, order)

    def columns(self) -> tuple[QSeries, ...]:
        return self.eisenstein_parts + self.cusp_parts


class CoeffVector(
    NamedTuple("CoeffVector", [("x", Mapping[int, int | Fraction]),
                               ("y", tuple[int | Fraction, ...])])
):
    """Solved coordinates: x keyed by DILATIONS, y indexed by generator, each
    an int, a Fraction or a literal such as "-13452/25"; a float raises
    TypeError, and a wrong shape ValueError."""

    __slots__ = ()

    def __new__(
        cls,
        x: Mapping[int, int | Fraction | str],
        y: Sequence[int | Fraction | str],
    ) -> "CoeffVector":
        if tuple(x) != DILATIONS:
            raise ValueError(f"x must be keyed by {DILATIONS}, got {tuple(x)}")
        if len(y) != len(CUSP_GENERATORS):
            raise ValueError(f"y must have {len(CUSP_GENERATORS)} entries, got {len(y)}")
        return super().__new__(
            cls,
            MappingProxyType({t: normalize(exact_fraction(v)) for t, v in x.items()}),
            tuple(normalize(exact_fraction(v)) for v in y),
        )

    # _replace builds its copy through _make: check it like a new vector
    _make = classmethod(lambda cls, fields: cls(*fields))

    def entries(self) -> tuple[int | Fraction, ...]:
        """The fifteen coordinates in basis column order."""
        return tuple(self.x.values()) + self.y


def _pivot_rows(
    rows: Iterable[Sequence[int | Fraction]], ncols: int
) -> tuple[list[int], list[list[int]]]:
    """Fraction-free Gauss-Jordan over the first ncols columns: (pivots,
    reduced), with reduced[i] an integer row, divided by its content, that
    is zero in every pivot column but its own, pivots[i].

    Rows are scaled to integers and taken in index order, each reduced
    against the pivot rows found so far; a row left nonzero in the first
    ncols columns becomes a pivot row at its first nonzero column, and the
    earlier pivot rows are cleared there. Elimination stops at ncols pivots,
    so no later row is read.
    """
    pivots: list[int] = []
    reduced: list[list[int]] = []
    for row in rows:
        if len(pivots) == ncols:
            break
        work, _ = over_common_denominator(row)
        for col, prow in zip(pivots, reduced):
            if work[col]:
                f, p = work[col], prow[col]
                work = [p * w - f * v for w, v in zip(work, prow)]
        col = next((j for j in range(ncols) if work[j]), None)
        if col is None:
            continue
        g = gcd(*work)
        work = [w // g for w in work]
        for i, prow in enumerate(reduced):
            if prow[col]:
                f, p = prow[col], work[col]
                prow = [p * v - f * w for v, w in zip(prow, work)]
                g = gcd(*prow)
                reduced[i] = [v // g for v in prow]
        pivots.append(col)
        reduced.append(work)
    return pivots, reduced


def matrix_rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    """Exact rank of a rational matrix."""
    if not rows:
        return 0
    return len(_pivot_rows(rows, len(rows[0]))[0])


def decompose(target: QSeries, basis: Basis28, n_max: int) -> CoeffVector:
    """Coordinates of target in the 15-element basis, matching the
    coefficients of q^0 .. q^n_max exactly.

    Rows (the basis coefficients of q^n, then the target's) go through
    _pivot_rows until fifteen pivots stand; no later row is eliminated.
    If all n_max + 1 rows give fewer, UnderdeterminedSystem is raised. The
    unique solution x is read off the pivots, and every row 0..n_max is
    then checked in integers, sum_j A_nj (x_j D) == b_n D with D the lcm of
    the denominators of x; a nonzero residual raises InconsistentSystem
    (the target is outside the space, or a series is wrong).
    """
    check_int("decompose", "n_max", n_max, MIN_DECOMPOSE_ORDER)
    if target.order < n_max or basis.order < n_max:
        raise ValueError(
            f"need orders >= {n_max}, got target {target.order}, basis {basis.order}"
        )
    cols = basis.columns()
    ncols = len(cols)
    rows = list(zip(*(s.coeffs[: n_max + 1] for s in (*cols, target))))
    pivots, reduced = _pivot_rows(rows, ncols)
    if len(pivots) < ncols:
        raise UnderdeterminedSystem(f"basis rank {len(pivots)} < {ncols} unknowns")
    solution = [Fraction(0)] * ncols
    for col, prow in zip(pivots, reduced):
        solution[col] = Fraction(prow[ncols], prow[col])
    scaled, den = over_common_denominator(solution)
    for row in rows:
        if sum(map(mul, row, scaled)) != row[ncols] * den:
            raise InconsistentSystem(
                "nonzero residual: target is not in the spanned space"
            )
    eis = len(DILATIONS)
    return CoeffVector(dict(zip(DILATIONS, solution[:eis])), solution[eis:])


def reconstruct(vec: CoeffVector, basis: Basis28) -> QSeries:
    """The series with the given coordinates, at the basis order; raises
    NonIntegralResult when the series is not integral."""
    return QSeries.linear_combination(zip(basis.columns(), vec.entries()), basis.order)


def verify_identity(lhs: QSeries, rhs: QSeries, level: int) -> bool:
    """Equality test for two weight-4 forms of the given level: exact
    agreement of coefficients up to the Sturm bound."""
    check_int("verify_identity", "level", level, 1)
    bound = sturm_bound(level)
    if lhs.order < bound or rhs.order < bound:
        raise ValueError(
            f"need orders >= Sturm bound {bound}, got {lhs.order}, {rhs.order}"
        )
    return lhs.equal_up_to(rhs, bound)


def _cv(x: Sequence[str], y: Sequence[str]) -> CoeffVector:
    return CoeffVector(dict(zip(DILATIONS, x)), y)


# Published decompositions of (a L(q^a) - b L(q^b))^2 in the 15-element
# basis, keyed by pair (a, b). Re-derived from scratch by decompose() in
# the test suite; kept as data for auditability and as the reference the
# verify command checks against.
KNOWN_DECOMPOSITIONS: dict[tuple[int, int], CoeffVector] = {
    (1, 28): _cv(
        ["118/125", "-21/125", "-112/125", "-343/125", "-1029/125", "92512/125"],
        ["-13452/25", "-86004/25", "252", "40188/25", "407232/25",
         "68544/5", "-52416/25", "2327808/25", "2731008/25"],
    ),
    (4, 7): _cv(
        ["-7/125", "-21/125", "1888/125", "5782/125", "-1029/125", "-5488/125"],
        ["-8364/175", "-5004/25", "324", "10716/175", "-24768/25",
         "28224/5", "-138816/25", "676608/25", "273408/25"],
    ),
    (1, 14): _cv(
        ["111/125", "-56/125", "0", "-686/125", "21756/125", "0"],
        ["0", "-4608/25", "672/25", "10272/25", "0", "0", "0", "0", "0"],
    ),
    (2, 7): _cv(
        ["-14/125", "444/125", "0", "5439/125", "-2744/125", "0"],
        ["0", "-4608/25", "10272/25", "672/25", "0", "0", "0", "0", "0"],
    ),
    (1, 7): _cv(
        ["18/25", "0", "0", "882/25", "0", "0"],
        ["576/5", "2304/5", "0", "0", "0", "0", "0", "0", "0"],
    ),
}
