from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigma_convolve import qseries
from sigma_convolve.arith import sigma
from sigma_convolve.errors import BadLeadingTerm, NonIntegralResult, OutOfRange
from sigma_convolve.qseries import Dense, QSeries, product


@st.composite
def series(draw, order: int | None = None, unit: bool = False) -> QSeries:
    """A series of the given order, or of a drawn order 0..30, with
    coefficients in -9..9; ``unit`` draws the constant term from 1, -1,
    the units of the integers, so the series has an integral inverse."""
    if order is None:
        order = draw(st.integers(0, 30))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=order + 1, max_size=order + 1))
    if unit:
        coeffs[0] = draw(st.sampled_from([1, -1]))
    return QSeries(coeffs, order)


def test_construction_and_padding():
    s = QSeries([1, 2], 4)
    assert s.order == 4 and s.coeffs == (1, 2, 0, 0, 0)
    assert QSeries([1, 2, 3]).order == 2
    with pytest.raises(ValueError):
        QSeries([])


def test_constructor_takes_ints_only():
    # exactly int: an integral Fraction and a bool are rejected too
    with pytest.raises(TypeError):
        QSeries([Fraction(1, 2)])
    with pytest.raises(TypeError):
        QSeries([Fraction(4, 2)])
    with pytest.raises(TypeError):
        QSeries([True])
    with pytest.raises(TypeError):
        QSeries([0.5], 1)
    with pytest.raises(TypeError):
        QSeries.monomial(1, 3, Fraction(1, 2))


def test_immutable():
    s = QSeries([1, 2], 2)
    with pytest.raises(AttributeError):
        s.order = 3


def test_constructors():
    assert QSeries.zero(3).coeffs == (0, 0, 0, 0)
    assert QSeries.one(2).coeffs == (1, 0, 0)
    assert QSeries.monomial(2, 4).coeffs == (0, 0, 1, 0, 0)
    assert QSeries.monomial(9, 4).coeffs == (0, 0, 0, 0, 0)


def test_add_examples():
    lhs = QSeries([1, -24], 1) + QSeries.zero(1)
    assert lhs.coeffs == (1, -24)
    assert (QSeries([1, 1], 1) + QSeries([1, -1], 1)).coeffs == (2, 0)
    # weight-2 series plus 24 * its divisor tail telescopes to 1
    order = 50
    l = QSeries([1] + [-24 * sigma(1, n) for n in range(1, order + 1)], order)
    tail = QSeries([0] + [24 * sigma(1, n) for n in range(1, order + 1)], order)
    assert (l + tail) == QSeries.one(order)


def test_mul_examples():
    assert (QSeries([1, 1], 2) * QSeries([1, -1], 2)).coeffs == (1, 0, -1)
    q = QSeries.monomial(1, 1)
    assert (q * q).coeffs == (0, 0)  # truncated at order 1
    order = 10
    l = QSeries([1] + [-24 * sigma(1, n) for n in range(1, order + 1)], order)
    assert (l * l).coefficient(1) == -48


def schoolbook_mul(a: QSeries, b: QSeries) -> QSeries:
    """The earlier series product, kept as the differential reference: a
    double loop over the nonzero coefficients, the sparser operand outside."""
    n = min(a.order, b.order)
    a, b = a.coeffs, b.coeffs
    sup_a = [i for i in range(n + 1) if a[i]]
    sup_b = [i for i in range(n + 1) if b[i]]
    if len(sup_b) < len(sup_a):
        a, b = b, a
        sup_a, sup_b = sup_b, sup_a
    out = [0] * (n + 1)
    for i in sup_a:
        for j in sup_b:
            if j > n - i:
                break
            out[i + j] += a[i] * b[j]
    return QSeries(out, n)


def schoolbook_pow(s: QSeries, e: int) -> QSeries:
    result = QSeries.one(s.order)
    for _ in range(e):
        result = schoolbook_mul(result, s)
    return result


big_ints = st.integers(-2**200, 2**200)
coefficient_kinds = st.sampled_from([
    st.integers(-9, 9),
    st.integers(-2**28, 2**28),  # slots of 1 to 8 bytes, read as int64
    big_ints,
    st.one_of(st.integers(-9, 9), big_ints),
])


@st.composite
def runs_series(draw, max_order: int = 120) -> QSeries:
    """A series built from runs: up to 60 zeros, or up to 10 coefficients of
    one drawn kind (small or +-2^200 ints, or a mix), padded with zeros or
    truncated to a drawn order 0..max_order."""
    kind = draw(coefficient_kinds)
    runs = draw(st.lists(
        st.one_of(st.integers(1, 60).map(lambda k: [0] * k),
                  st.lists(kind, min_size=1, max_size=10)),
        min_size=1, max_size=6,
    ))
    return QSeries([c for run in runs for c in run], draw(st.integers(0, max_order)))


@settings(max_examples=200, deadline=None)
@given(a=runs_series(), b=runs_series())
@example(a=QSeries.zero(40), b=QSeries([2**200, -1], 40))
@example(a=QSeries([3], 0), b=QSeries([-2**200, 5], 7))
def test_mul_matches_schoolbook(a, b):
    expected = schoolbook_mul(a, b)
    assert a * b == expected and b * a == expected
    assert a * a == schoolbook_mul(a, a)


@settings(max_examples=60, deadline=None)
@given(s=runs_series(max_order=40), e=st.integers(0, 6))
def test_pow_matches_repeated_schoolbook(s, e):
    assert s ** e == schoolbook_pow(s, e)


# 3037000499 is isqrt(2^63 - 1): m * m fills an 8-byte slot, the widest
# read as int64, and one more, or a longer series, takes 9 bytes
@pytest.mark.parametrize("m", [1, 127, 128, 181, 255, 256, 2**31, 3037000499,
                               3037000500, 2**200])
@pytest.mark.parametrize("length", [1, 2, 16])
def test_mul_at_the_slot_bound(m, length):
    # equal coefficients reach the bound l1(a) max|b| exactly, at the top
    # index, with either sign
    plus, minus = QSeries([m] * length), QSeries([-m] * length)
    for a, b in ((plus, plus), (plus, minus), (minus, minus)):
        product = a * b
        assert product == schoolbook_mul(a, b)
        assert abs(product.coefficient(length - 1)) == length * m * m


def test_mul_truncates_to_min_order():
    a = QSeries([1, 1, 1], 2)
    b = QSeries([1, 1, 1, 1, 1], 4)
    assert (a * b).order == 2
    assert (a + b).order == 2


# -- the product engine ----------------------------------------------------


@st.composite
def coefficient_runs(draw) -> list[int]:
    """Up to six runs, each up to 20 zeros or up to 10 coefficients of one
    drawn kind, so the residue classes of a split join can differ in size."""
    kind = draw(coefficient_kinds)
    runs = draw(st.lists(
        st.one_of(st.integers(1, 20).map(lambda k: [0] * k),
                  st.lists(kind, min_size=1, max_size=10)),
        max_size=6,
    ))
    return [c for run in runs for c in run]


dense_factors = st.builds(Dense, coefficient_runs(), st.integers(1, 30))
sparse_factors = st.dictionaries(
    st.integers(0, 160), st.one_of(st.integers(-9, 9), big_ints), max_size=12,
).map(lambda terms: sorted(terms.items()))


def schoolbook_product(order: int, factors) -> QSeries:
    """Each factor written out as a series at ``order``, multiplied by
    ``schoolbook_mul`` from 1."""
    result = QSeries.one(order)
    for f in factors:
        cs = [0] * (order + 1)
        terms = ((f.t * i, c) for i, c in enumerate(f.coeffs)) if isinstance(f, Dense) else f
        for e, c in terms:
            if e <= order:
                cs[e] += c
        result = schoolbook_mul(result, QSeries(cs, order))
    return result


HUGE = -(2**200)


@settings(max_examples=200, deadline=None)
@given(order=st.integers(0, 150),
       factors=st.lists(st.one_of(dense_factors, sparse_factors), max_size=4))
@example(order=0, factors=[])
@example(order=0, factors=[Dense([HUGE, 3], 5), [(0, -2), (1, 7)]])
@example(order=60, factors=[Dense([1] * 20, 4), Dense([-1, 2] * 20, 7)])
@example(order=90, factors=[Dense(list(range(-20, 20)), 6), Dense([HUGE] * 30, 9)])
@example(order=90, factors=[Dense([HUGE, -1] * 10, 5)] * 2)
@example(order=90, factors=[Dense([0] * 40, 3), Dense([1] * 90)])
@example(order=120, factors=[Dense([HUGE if i % 7 == 0 else -1 for i in range(121)]),
                             Dense([-3] * 20, 7)])
@example(order=50, factors=[[(0, 1), (3, -1)], [(1, HUGE)], [(0, 2)], Dense([1, 1], 25)])
def test_product_matches_schoolbook(order, factors):
    assert product(order, factors) == list(schoolbook_product(order, factors).coeffs)


def test_product_splits_a_dilated_join(monkeypatch):
    # f(q^6) g(q^9) is h(q^3) with h = f(x^2) g(x^3): 2 * 3 joins of about
    # 540 / (3 * 6) coefficients each; f(q) g(q^28) is 28 joins of 280 / 28
    joins = []
    kronecker = qseries._kronecker_product

    def recording(a, b):
        joins.append((len(a), max(map(abs, a))))
        return kronecker(a, b)

    monkeypatch.setattr(qseries, "_kronecker_product", recording)
    f = [HUGE if i % 28 == 0 else -1 for i in range(541)]
    assert product(540, [Dense(f, 6), Dense(f, 9)]) == list(
        schoolbook_product(540, [Dense(f, 6), Dense(f, 9)]).coeffs)
    assert len(joins) == 6 and max(size for size, _ in joins) == 31
    joins.clear()
    assert product(280, [Dense(f), Dense(f, 28)]) == list(
        schoolbook_product(280, [Dense(f), Dense(f, 28)]).coeffs)
    assert len(joins) == 28 and max(size for size, _ in joins) == 11
    # only residue class 0 of the undilated side holds the 2^200 entries
    assert sorted({top for _, top in joins}) == [1, 2**200]


def test_product_visits_only_the_classes_below_the_order(monkeypatch):
    # s' t' residue pairs, but only those with s' r + t' u <= order are
    # joined: at most order + 1 of them, however large the dilations
    joins = []
    kronecker = qseries._kronecker_product

    def recording(a, b):
        joins.append(len(a))
        return kronecker(a, b)

    monkeypatch.setattr(qseries, "_kronecker_product", recording)
    f = [3, -1, 4, 1, -5]
    for s, t in ((10**6 + 3, 10**6), (1, 10**12), (99991, 99989), (7, 10**9)):
        assert product(10, [Dense(f, s), Dense(f, t)]) == list(
            schoolbook_product(10, [Dense(f, s), Dense(f, t)]).coeffs)
        assert 1 <= len(joins) <= 11
        joins.clear()


def test_scalar_ops():
    s = QSeries([1, 2, 3], 2)
    assert (3 * s).coeffs == (3, 6, 9)
    assert (-s).coeffs == (-1, -2, -3)
    assert (s - s) == QSeries.zero(2)
    # an int scalar only: a rational one would leave the integers
    for scalar in (Fraction(1, 2), Fraction(2), True, 0.5):
        with pytest.raises(TypeError):
            s * scalar
        with pytest.raises(TypeError):
            scalar * s


def test_pow():
    assert (QSeries([1, 1], 2) ** 2).coeffs == (1, 2, 1)
    assert (QSeries([1, -1], 3) ** 3).coefficient(2) == 3
    s = QSeries([2, 5, -1], 6)
    assert (s ** 0) == QSeries.one(6)
    assert (s ** 5) == s * s * s * s * s
    with pytest.raises(ValueError):
        s ** -1


def series_inverse(s: QSeries) -> QSeries:
    """Test-local multiplicative inverse, the reference kernels' (see
    ``test_eta``): b_0 = 1/a_0 and b_k = -(sum_{i=1..k} a_i b_{k-i}) / a_0.
    The inverse is integral exactly when a_0 is 1 or -1, where dividing by
    a_0 is multiplying by it; any other constant term raises ValueError."""
    a = s.coeffs
    if a[0] not in (1, -1):
        raise ValueError(f"constant term {a[0]} is not a unit")
    b = [a[0]]
    for k in range(1, s.order + 1):
        acc = sum(a[i] * b[k - i] for i in range(1, k + 1) if a[i])
        b.append(-acc * a[0])
    return QSeries(b, s.order)


def test_inverse():
    geo = series_inverse(QSeries([1, -1], 3))
    assert geo.coeffs == (1, 1, 1, 1)
    assert series_inverse(QSeries([-1, 1], 3)).coeffs == (-1, -1, -1, -1)
    s = QSeries([1, 0, -1], 10)
    assert (s * series_inverse(s)) == QSeries.one(10)
    for no_unit in (QSeries([0, 1], 3), QSeries([2], 0)):
        with pytest.raises(ValueError):
            series_inverse(no_unit)


@settings(max_examples=20, deadline=None)
@given(s=series(unit=True))
def test_inverse_round_trip_randomized(s):
    assert (s * series_inverse(s)) == QSeries.one(s.order)


def test_substitute_power():
    s = QSeries([1, 1], 30).substitute_power(28)
    assert s.coefficient(28) == 1 and s.coefficient(27) == 0
    t = QSeries([1, 2, 3], 10)
    assert t.substitute_power(1) is t
    with pytest.raises(ValueError):
        t.substitute_power(0)


@settings(max_examples=5, deadline=None)
@given(a=series(30), b=series(30), t=st.sampled_from([2, 3, 7]))
def test_substitute_power_is_multiplicative(a, b, t):
    assert (a * b).substitute_power(t) == a.substitute_power(t) * b.substitute_power(t)


def test_cube_root_examples():
    assert QSeries([1, 3, 3, 1], 3).cube_root().coeffs == (1, 1, 0, 0)
    assert QSeries.monomial(3, 3).cube_root().coeffs == (0, 1)
    # (1 + q)^(1/3) = 1 + q/3 + ... is not integral
    with pytest.raises(NonIntegralResult):
        QSeries([1, 1], 5).cube_root()


@settings(max_examples=10, deadline=None)
@given(root=series(30))
def test_cube_root_round_trip_randomized(root):
    root = QSeries((1,) + root.coeffs[1:], 30)  # unit leading coefficient
    cube = root ** 3
    recovered = cube.cube_root()
    assert recovered == root
    # shifted version: multiply by q^6, recover from valuation 6
    shifted = QSeries(6 * (0,) + cube.coeffs, 36)
    r = shifted.cube_root()
    assert r.valuation() == 2
    assert r.coeffs[2:] == root.coeffs[: r.order - 1]
    assert (r ** 3).equal_up_to(shifted.truncate(r.order), r.order)


def support_loop_cube_root(s: QSeries) -> list[Fraction]:
    """The earlier cube root, kept as the differential reference: the power
    recurrence 3k r_k = sum (4i - 3k) u_i r_{k-i} summed term by term over
    the support of the unit series u in rationals, then placed at q^(v/3).
    Returns the coefficients of q^0 .. q^(order - 2v/3)."""
    lead = s.valuation()
    m = lead // 3
    u = s.coeffs[lead:]
    nu = len(u) - 1
    support = [i for i in range(1, nu + 1) if u[i]]
    r = [1]
    for k in range(1, nu + 1):
        acc = 0
        for i in support:
            if i > k:
                break
            acc += (4 * i - 3 * k) * u[i] * r[k - i]
        r.append(Fraction(acc, 3 * k))
    out_order = s.order - 2 * m
    out = [Fraction(0)] * (out_order + 1)
    for i, c in enumerate(r):
        if m + i <= out_order:
            out[m + i] = c
    return out


@settings(max_examples=60, deadline=None)
@given(body=st.one_of(series(), runs_series(max_order=40)), shift=st.integers(0, 3),
       cube=st.booleans())
@example(body=QSeries([1], 0), shift=0, cube=False)
@example(body=QSeries([1, 0, 0, 1], 40), shift=2, cube=False)
@example(body=QSeries([1, 0, 0, 1], 40), shift=2, cube=True)
def test_cube_root_matches_support_loop(body, shift, cube):
    # any series with leading term q^(3 shift) has a rational cube root;
    # it is returned when integral, as for every cube, and raises otherwise
    unit = QSeries((1,) + body.coeffs[1:], body.order)
    if cube:
        unit = unit ** 3
    s = QSeries((0,) * 3 * shift + unit.coeffs, unit.order + 3 * shift)
    want = support_loop_cube_root(s)
    if all(c.denominator == 1 for c in want):
        assert s.cube_root().coeffs == tuple(want)
    else:
        assert not cube
        with pytest.raises(NonIntegralResult):
            s.cube_root()


def test_cube_root_errors():
    with pytest.raises(BadLeadingTerm):
        QSeries.zero(3).cube_root()  # no leading term
    with pytest.raises(BadLeadingTerm):
        QSeries([0, 1], 3).cube_root()  # valuation not multiple of 3
    with pytest.raises(BadLeadingTerm):
        QSeries([0, 0, 0, 2], 3).cube_root()  # leading coefficient not 1


def test_coefficient_access():
    s = QSeries([1, -24], 5)
    assert s.coefficient(1) == -24
    assert s.coefficient(0) == 1
    assert QSeries.monomial(2, 2).coefficient(2) == 1
    with pytest.raises(OutOfRange):
        s.coefficient(6)
    with pytest.raises(OutOfRange):
        s.coefficient(-1)


def test_equal_up_to():
    a = QSeries.one(20)
    b = QSeries.one(20) + QSeries.monomial(17, 20)
    assert a.equal_up_to(a, 20)
    assert a.equal_up_to(b, 16)
    assert not a.equal_up_to(b, 17)
    assert not QSeries.one(5).equal_up_to(QSeries([1, 1], 5), 1)
    with pytest.raises(OutOfRange):
        a.equal_up_to(QSeries.one(10), 15)


def test_truncate():
    s = QSeries([1, 2, 3, 4], 3)
    assert s.truncate(1).coeffs == (1, 2)
    assert s.truncate(3) is s
    with pytest.raises(OutOfRange):
        s.truncate(4)


def test_valuation():
    assert QSeries([0, 0, 5, 1], 3).valuation() == 2
    assert QSeries.zero(4).valuation() is None


@settings(max_examples=10, deadline=None)
@given(a=series(30), b=series(30), c=series(30))
def test_ring_laws_randomized(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=3, deadline=None)
@given(a=series(40, unit=True), b=series(40), cut=st.integers(0, 40))
def test_truncation_consistency(a, b, cut):
    # coefficient n of a product depends only on inputs up to index n
    assert (a * b).truncate(cut) == a.truncate(cut) * b.truncate(cut)
    assert series_inverse(a).truncate(cut) == series_inverse(a.truncate(cut))


def fraction_combination(terms, order):
    """Sum of coef * series, coefficient by coefficient over plain Fraction
    lists: the reference for linear_combination. A zero coefficient is
    skipped, so its series does not truncate the sum."""
    terms = [(s.coeffs, Fraction(c)) for s, c in terms if c]
    acc = [Fraction(0)] * (min([order, *(len(cs) - 1 for cs, _ in terms)]) + 1)
    for cs, coef in terms:
        acc = [a + coef * c for a, c in zip(acc, cs)]
    return acc


combination_coefs = st.one_of(
    st.just(0), st.integers(-9, 9),
    st.builds(Fraction, st.integers(-99, 99), st.integers(1, 60)),
)


@settings(max_examples=15, deadline=None)
@given(
    order=st.integers(0, 25),
    terms=st.lists(st.tuples(series(), combination_coefs), max_size=6),
)
def test_linear_combination_matches_fraction_sum(order, terms):
    want = fraction_combination(terms, order)
    if all(c.denominator == 1 for c in want):
        got = QSeries.linear_combination(terms, order)
        assert got.coeffs == tuple(want)
    else:
        with pytest.raises(NonIntegralResult):
            QSeries.linear_combination(terms, order)


def test_linear_combination_edge_cases():
    a, b = QSeries([3, 2, 3]), QSeries([0, 3, 0, 6], 5)
    # rational coefficients whose sum is integral; the shorter series truncates
    assert QSeries.linear_combination([(a, Fraction(1, 3)), (b, Fraction(-2, 9))], 9).coeffs == (
        1, 0, 1)
    # a sum that is not integral raises
    with pytest.raises(NonIntegralResult):
        QSeries.linear_combination([(QSeries([1, 1]), Fraction(1, 2))], 1)
    # zero coefficients are skipped, so they do not truncate
    assert QSeries.linear_combination([(b, 2), (a, 0)], 9) == QSeries([0, 6, 0, 12], 5)
    assert QSeries.linear_combination([], 4) == QSeries.zero(4)
    with pytest.raises(TypeError):
        QSeries.linear_combination([(a, 0.5)], 2)


def test_repr_is_compact():
    text = repr(QSeries([1, -24, 252], 2))
    assert "q^1" in text and "order=2" in text
