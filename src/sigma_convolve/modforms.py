"""Weight-4 level-28 form space: basis assembly, Sturm bounds, and exact
linear decomposition against the 15-element basis.

The basis is the six dilated weight-4 Eisenstein series M(q^t) for
t in {1, 2, 4, 7, 14, 28} plus the nine cusp generators. Decomposition
solves the overdetermined coefficient-matching system exactly over
rationals, so a wrong target or a transcription slip surfaces as a hard
error, never as a least-squares fudge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

from .arith import check_int, normalize, prime_factors
from .errors import InconsistentSystem, UnderdeterminedSystem
from .eisenstein import m_series
from .eta import c_series
from .qseries import QSeries

DILATIONS = (1, 2, 4, 7, 14, 28)

# asserted dimensions of the weight-4 Eisenstein and cusp subspaces at
# level 28; validated by the rank checks in the test suite, not computed
EISENSTEIN_DIMENSION = 6
CUSP_DIMENSION = 9
SPACE_DIMENSION = EISENSTEIN_DIMENSION + CUSP_DIMENSION

MIN_DECOMPOSE_ORDER = 16


def sturm_bound(level: int) -> int:
    """Ceiling of (level/3) * prod_{p | level} (1 + 1/p) over primes p."""
    check_int("sturm_bound", "level", level, 1)
    bound = Fraction(level, 3)
    for p in prime_factors(level):
        bound *= 1 + Fraction(1, p)
    return -(-bound.numerator // bound.denominator)


@dataclass(frozen=True)
class Basis28:
    """The fifteen basis series, all truncated at one shared order."""

    eisenstein_parts: tuple[QSeries, ...]
    cusp_parts: tuple[QSeries, ...]
    order: int

    @classmethod
    def at_order(cls, order: int) -> "Basis28":
        check_int("Basis28.at_order", "order", order, MIN_DECOMPOSE_ORDER)
        m = m_series(order)
        eis = tuple(m.substitute_power(t) for t in DILATIONS)
        cusp = tuple(c_series(j, order) for j in range(1, 10))
        return cls(eis, cusp, order)

    def columns(self) -> tuple[QSeries, ...]:
        return self.eisenstein_parts + self.cusp_parts


@dataclass(frozen=True)
class CoeffVector:
    """Solved coordinates: x keyed by dilation t, y indexed by generator."""

    x: Mapping[int, int | Fraction]
    y: tuple[int | Fraction, ...]

    @classmethod
    def make(
        cls,
        x: Mapping[int, int | Fraction],
        y: Sequence[int | Fraction],
    ) -> "CoeffVector":
        if tuple(x.keys()) != DILATIONS:
            raise ValueError(f"x must be keyed by {DILATIONS}, got {tuple(x)}")
        if len(y) != CUSP_DIMENSION:
            raise ValueError(f"y must have {CUSP_DIMENSION} entries, got {len(y)}")
        return cls(
            MappingProxyType({t: normalize(Fraction(v)) for t, v in x.items()}),
            tuple(normalize(Fraction(v)) for v in y),
        )

    def entries(self) -> tuple[int | Fraction, ...]:
        return tuple(self.x.values()) + self.y


def _eliminate(rows: list[list[Fraction]], ncols: int) -> int:
    """In-place Gauss-Jordan on rows of width >= ncols; returns the rank.

    Pivot choice is deterministic: for each column, the first row (in index
    order) with a nonzero entry among the rows not yet used as pivots.
    """
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        inv = 1 / prow[col]
        for k in range(col, len(prow)):
            prow[k] *= inv
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                f = row[col]
                for k in range(col, len(row)):
                    row[k] -= f * prow[k]
        rank += 1
    return rank


def matrix_rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    """Exact rank of a rational matrix."""
    if not rows:
        return 0
    work = [[Fraction(v) for v in row] for row in rows]
    return _eliminate(work, len(work[0]))


def decompose(target: QSeries, basis: Basis28, n_max: int) -> CoeffVector:
    """Coordinates of target in the 15-element basis, by exact elimination
    on the coefficient-matching system for q^0 .. q^n_max.

    The system is overdetermined for n_max >= 15; a nonzero residual on the
    dependent rows raises InconsistentSystem (the target is outside the
    space, or a series is wrong). Rank below 15 raises UnderdeterminedSystem.
    """
    check_int("decompose", "n_max", n_max, MIN_DECOMPOSE_ORDER)
    if target.order < n_max or basis.order < n_max:
        raise ValueError(
            f"need orders >= {n_max}, got target {target.order}, basis {basis.order}"
        )
    cols = basis.columns()
    ncols = len(cols)
    rows = [
        [Fraction(c.coeffs[n]) for c in cols] + [Fraction(target.coeffs[n])]
        for n in range(n_max + 1)
    ]
    rank = _eliminate(rows, ncols)
    if rank < ncols:
        raise UnderdeterminedSystem(f"basis rank {rank} < {ncols} unknowns")
    for row in rows[rank:]:
        if row[ncols]:
            raise InconsistentSystem(
                "nonzero residual: target is not in the spanned space"
            )
    solution = [rows[i][ncols] for i in range(ncols)]
    return CoeffVector.make(
        dict(zip(DILATIONS, solution[:EISENSTEIN_DIMENSION])),
        solution[EISENSTEIN_DIMENSION:],
    )


def reconstruct(vec: CoeffVector, basis: Basis28) -> QSeries:
    """The series with the given coordinates, at the basis order."""
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
    return CoeffVector.make(
        dict(zip(DILATIONS, (Fraction(v) for v in x))),
        [Fraction(v) for v in y],
    )


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
