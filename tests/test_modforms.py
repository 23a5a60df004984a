from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigma_convolve.eisenstein import l_combination, m_series
from sigma_convolve.errors import InconsistentSystem, NonIntegralResult, UnderdeterminedSystem
from sigma_convolve.modforms import (
    DILATIONS,
    KNOWN_DECOMPOSITIONS,
    MIN_DECOMPOSE_ORDER,
    Basis28,
    CoeffVector,
    decompose,
    matrix_rank,
    reconstruct,
    sturm_bound,
    verify_identity,
)
from sigma_convolve.qseries import QSeries

coordinates = st.builds(Fraction, st.integers(-99, 99), st.integers(1, 40))


def integral_vector(x, y):
    """The coordinates x, y times the lcm of their denominators, so that
    the vector's series is integral, as every basis series is."""
    den = lcm(*(Fraction(v).denominator for v in (*x, *y)))
    return CoeffVector(dict(zip(DILATIONS, (v * den for v in x))), [v * den for v in y])


coeff_vectors = st.builds(
    integral_vector,
    st.lists(coordinates, min_size=6, max_size=6),
    st.lists(coordinates, min_size=9, max_size=9),
)


def test_sturm_bound_values():
    assert sturm_bound(28) == 16
    assert sturm_bound(56) == 32
    assert sturm_bound(14) == 8
    assert sturm_bound(7) == 3
    assert sturm_bound(1) == 1
    with pytest.raises(ValueError):
        sturm_bound(0)


def test_basis_construction():
    # the shape derived from the level: its divisors and its Sturm bound
    assert DILATIONS == (1, 2, 4, 7, 14, 28)
    assert MIN_DECOMPOSE_ORDER == 16
    basis = Basis28.at_order(16)
    assert len(basis.eisenstein_parts) == 6
    assert len(basis.cusp_parts) == 9
    assert all(s.order == 16 for s in basis.columns())
    with pytest.raises(ValueError):
        Basis28.at_order(15)


def test_basis_matrix_rank_fifteen(basis300):
    rows = [[c.coeffs[n] for c in basis300.columns()] for n in range(17)]
    assert matrix_rank(rows) == 15


def test_matrix_rank_small_cases():
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    assert matrix_rank([[Fraction(1, 2), 1], [1, 2], [3, 6]]) == 1
    assert matrix_rank([]) == 0


@settings(max_examples=100, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    entries=st.lists(
        st.one_of(st.just(0), st.integers(-3, 3),
                  st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))),
        min_size=64, max_size=64,
    ),
    repeat=st.integers(0, 8),
)
def test_matrix_rank_matches_rational_gauss_jordan(shape, entries, repeat):
    nrows, ncols = shape
    rows = [entries[i * ncols:(i + 1) * ncols] for i in range(nrows)]
    # a repeated or doubled row makes low rank common
    rows.append([2 * v for v in rows[repeat % nrows]])
    work = [[Fraction(v) for v in row] for row in rows]
    assert matrix_rank(rows) == rational_gauss_jordan(work, ncols)


def test_known_decompositions_reproduced(basis300):
    for pair, known in KNOWN_DECOMPOSITIONS.items():
        target = l_combination(pair[0], pair[1], 300) ** 2
        got = decompose(target, basis300, 16)
        assert got == known, pair
        assert reconstruct(got, basis300).equal_up_to(target, 300), pair


def test_decompose_overconstrained_agrees(basis300):
    target = l_combination(1, 28, 300) ** 2
    assert decompose(target, basis300, 16) == decompose(target, basis300, 100)


def test_decompose_spot_anchors(basis300):
    vec = decompose(l_combination(1, 28, 300) ** 2, basis300, 16)
    assert vec.x[1] == Fraction(118, 125)
    assert vec.x[2] == Fraction(-21, 125)
    assert vec.y[2] == 252
    vec = decompose(l_combination(2, 7, 300) ** 2, basis300, 16)
    assert vec.x[1] == Fraction(-14, 125)
    assert vec.y[1] == Fraction(-4608, 25)


def test_sparse_cusp_support(basis300):
    # the level-14 and level-7 targets use only the first few generators
    supports = {
        (1, 14): {2, 3, 4},
        (2, 7): {2, 3, 4},
        (1, 7): {1, 2},
    }
    for pair, expected in supports.items():
        vec = decompose(l_combination(pair[0], pair[1], 300) ** 2, basis300, 16)
        assert {j + 1 for j, v in enumerate(vec.y) if v != 0} == expected, pair


def test_decompose_basis_element(basis300):
    vec = decompose(basis300.eisenstein_parts[1], basis300, 16)
    assert vec.x == {1: 0, 2: 1, 4: 0, 7: 0, 14: 0, 28: 0}
    assert all(v == 0 for v in vec.y)


@settings(max_examples=5, deadline=None)
@given(vec=coeff_vectors)
@example(vec=KNOWN_DECOMPOSITIONS[(4, 7)])
def test_decompose_reconstruct_round_trip(basis300, vec):
    series = reconstruct(vec, basis300)
    assert decompose(series, basis300, 16) == vec
    assert decompose(series, basis300, 40) == vec


@settings(max_examples=3, deadline=None)
@given(vec=coeff_vectors)
@example(vec=KNOWN_DECOMPOSITIONS[(1, 28)])
@example(vec=KNOWN_DECOMPOSITIONS[(4, 7)])
@example(vec=KNOWN_DECOMPOSITIONS[(1, 14)])
@example(vec=KNOWN_DECOMPOSITIONS[(2, 7)])
@example(vec=KNOWN_DECOMPOSITIONS[(1, 7)])
def test_reconstruct_matches_fraction_sum(basis300, vec):
    # the earlier reconstruct: each coordinate times its basis series,
    # added in rationals over plain Fraction lists
    expected = [Fraction(0)] * (basis300.order + 1)
    for part, coef in zip(basis300.columns(), vec.entries()):
        expected = [e + coef * c for e, c in zip(expected, part.coeffs)]
    assert reconstruct(vec, basis300).coeffs == tuple(expected)


def test_reconstruct_rejects_a_series_that_is_not_integral(basis300):
    # C_1 starts q + ..., so C_1 / 2 is not integral
    half_c1 = CoeffVector(dict.fromkeys(DILATIONS, 0), [Fraction(1, 2)] + [0] * 8)
    with pytest.raises(NonIntegralResult):
        reconstruct(half_c1, basis300)


def test_decompose_preconditions(basis300):
    target = m_series(300)
    with pytest.raises(ValueError):
        decompose(target, basis300, 15)
    with pytest.raises(ValueError):
        decompose(m_series(20), basis300, 30)


def test_decompose_inconsistent(basis300):
    target = m_series(300) + QSeries.monomial(16, 300)
    with pytest.raises(InconsistentSystem):
        decompose(target, basis300, 16)


def test_decompose_underdetermined(basis300):
    doctored = basis300._replace(
        cusp_parts=basis300.cusp_parts[:8] + (basis300.cusp_parts[7],)
    )
    with pytest.raises(UnderdeterminedSystem):
        decompose(m_series(300), doctored, 16)


def test_coeff_vector_validation():
    with pytest.raises(ValueError):
        CoeffVector({1: 1}, [0] * 9)
    with pytest.raises(ValueError):
        CoeffVector(dict.fromkeys(DILATIONS, 0), [0] * 8)


@pytest.mark.parametrize("x, y", [
    (dict.fromkeys(DILATIONS, 0), [0.1] + [0] * 8),
    (dict.fromkeys(DILATIONS, 0.5), [0] * 9),
])
def test_coeff_vector_rejects_floats(x, y):
    # Fraction(0.1) would keep the float's binary expansion as a coordinate
    with pytest.raises(TypeError, match="got float"):
        CoeffVector(x, y)


def test_coeff_vector_takes_exact_coordinates():
    vec = CoeffVector(dict.fromkeys(DILATIONS, Fraction(4, 2)), ["1/3", 2] + [0] * 7)
    assert vec.x[1] == 2 and type(vec.x[1]) is int
    assert vec.y[:2] == (Fraction(1, 3), 2)


def test_coeff_vector_checks_every_copy():
    # _replace goes through the constructor, so no malformed vector is
    # built and reconstruct never zips a short side
    v = KNOWN_DECOMPOSITIONS[(1, 7)]
    with pytest.raises(ValueError):
        v._replace(y=v.y[:1])
    with pytest.raises(ValueError):
        v._replace(y=v.y + (0,))
    with pytest.raises(ValueError):
        v._replace(x={t: v.x[t] for t in DILATIONS[:-1]})
    with pytest.raises(ValueError):
        CoeffVector(dict(reversed(v.x.items())), v.y)
    with pytest.raises(TypeError, match="got float"):
        v._replace(y=(0.5,) + v.y[1:])
    copy = v._replace(y=list(v.y))
    assert copy == v and type(copy.y) is tuple


def test_verify_identity():
    m = m_series(20)
    assert verify_identity(m, m, 28)
    bumped = m + QSeries.monomial(17, 20)
    assert verify_identity(m, bumped, 28)  # agreement below the bound suffices
    assert not m.equal_up_to(bumped, 17)
    assert not verify_identity(m, m + QSeries.monomial(3, 20), 28)
    with pytest.raises(ValueError):
        verify_identity(m_series(10), m_series(10), 28)


def test_known_decompositions_shape():
    assert set(KNOWN_DECOMPOSITIONS) == {(1, 28), (4, 7), (1, 14), (2, 7), (1, 7)}
    for vec in KNOWN_DECOMPOSITIONS.values():
        assert tuple(vec.x) == DILATIONS
        assert len(vec.y) == 9


def rational_gauss_jordan(rows, ncols):
    """In-place Gauss-Jordan over Fractions on rows of width >= ncols;
    returns the rank. For each column the pivot is the first unused row
    (in index order) with a nonzero entry there."""
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


def full_row_decompose(target, basis, n_max):
    """The earlier decompose, kept as the differential reference: rational
    Gauss-Jordan over every row 0..n_max, then the residual of each row
    past the rank."""
    cols = basis.columns()
    ncols = len(cols)
    rows = [
        [Fraction(c.coeffs[n]) for c in cols] + [Fraction(target.coeffs[n])]
        for n in range(n_max + 1)
    ]
    rank = rational_gauss_jordan(rows, ncols)
    if rank < ncols:
        raise UnderdeterminedSystem(f"basis rank {rank} < {ncols} unknowns")
    if any(row[ncols] for row in rows[rank:]):
        raise InconsistentSystem("nonzero residual")
    solution = [rows[i][ncols] for i in range(ncols)]
    eis = len(DILATIONS)
    return CoeffVector(dict(zip(DILATIONS, solution[:eis])), solution[eis:])


def outcome(solve, *args):
    """solve(*args), or the class of the decomposition error it raised."""
    try:
        return solve(*args)
    except (InconsistentSystem, UnderdeterminedSystem) as exc:
        return type(exc)


@pytest.mark.parametrize("pair", sorted(KNOWN_DECOMPOSITIONS))
@settings(max_examples=3, deadline=None)
@given(n_max=st.integers(16, 300))
@example(n_max=16)
@example(n_max=300)
def test_decompose_matches_full_row_reference(basis300, pair, n_max):
    target = l_combination(*pair, 300) ** 2
    got = decompose(target, basis300, n_max)
    assert got == full_row_decompose(target, basis300, n_max)
    assert got == KNOWN_DECOMPOSITIONS[pair]


@settings(max_examples=6, deadline=None)
@given(
    x=st.lists(coordinates, min_size=6, max_size=6),
    y=st.lists(coordinates, min_size=9, max_size=9),
    n_max=st.integers(16, 300),
    row=st.integers(0, 300),
    bump=st.integers(-99, 99).filter(bool),
)
@example(x=[1] * 6, y=[1] * 9, n_max=16, row=16, bump=1)
@example(x=[1] * 6, y=[1] * 9, n_max=16, row=7, bump=1)
@example(x=[1] * 6, y=[1] * 9, n_max=300, row=300, bump=-1)
def test_decompose_recovers_and_rejects_like_reference(basis300, x, y, n_max, row, bump):
    vec = integral_vector(x, y)
    target = reconstruct(vec, basis300)
    assert decompose(target, basis300, n_max) == vec
    assert full_row_decompose(target, basis300, n_max) == vec
    # one coefficient changed, at a row up to n_max inclusive
    row %= n_max + 1
    bumped = target + QSeries.monomial(row, target.order, bump)
    got = outcome(decompose, bumped, basis300, n_max)
    assert got == outcome(full_row_decompose, bumped, basis300, n_max)
    # below n_max 28 the truncated span holds q^0 and q^14 (and q^7 below
    # 21), so a change there can stay consistent; both solvers agree on it
    if n_max >= 28 or row not in (0, 7, 14):
        assert got is InconsistentSystem


@pytest.mark.parametrize("target", ["in span", "outside span"])
def test_duplicated_column_is_underdetermined_like_reference(basis300, target):
    doctored = basis300._replace(
        cusp_parts=basis300.cusp_parts[:8] + (basis300.cusp_parts[7],)
    )
    series = m_series(300)
    if target == "outside span":
        # rank < 15 takes precedence over a nonzero residual
        series = series + QSeries.monomial(40, 300)
    for solve in (decompose, full_row_decompose):
        with pytest.raises(UnderdeterminedSystem):
            solve(series, doctored, 100)
