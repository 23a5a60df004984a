import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sigma_convolve.arith as arith
import sigma_convolve.convolution as convolution
import sigma_convolve.eta as eta
from sigma_convolve.arith import MAX_ORDER, grown_size, sigma, sigma_scaled, sigma_table
from sigma_convolve.convolution import (
    FORMULAS,
    Term,
    TermTable,
    evaluate,
    scaled,
    shared_cusp_table,
    w_brute,
    w_formula,
    w_reduce,
)
from sigma_convolve.deltaforms import LEMIRE_1_7, ROYER_1_14, w_1_7_lemire, w_1_14_royer
from sigma_convolve.eisenstein import l_combination
from sigma_convolve.errors import NonIntegralResult, OutOfRange
from sigma_convolve.eta import CuspTable, c_series, cusp_spec, expand
from sigma_convolve.representations import R7_CLOSED, R7_CLOSED_RAW, r7_closed
from sigma_convolve.tables import w_table

REFERENCE_N = 200
# sigma(0..REFERENCE_N) by summing divisors one by one, shared with nothing
REFERENCE_SIGMA = [0] + [
    sum(d for d in range(1, n + 1) if n % d == 0) for n in range(1, REFERENCE_N + 1)
]


def w_brute_per_m(a: int, b: int, n: int) -> int:
    """The earlier w_brute, kept as a differential reference: every m with
    b*m < n, keeping those where a divides n - b*m."""
    total = 0
    for m in range(1, (n - a) // b + 1):
        rest = n - b * m
        if rest % a == 0:
            total += REFERENCE_SIGMA[rest // a] * REFERENCE_SIGMA[m]
    return total


def test_w_brute_examples():
    assert w_brute(1, 7, 8) == 1
    assert w_brute(1, 7, 1) == 0
    assert w_brute(1, 28, 29) == 1
    assert w_brute(1, 1, 2) == 1
    assert w_brute(1, 1, 3) == 6  # (l,m) = (1,2) and (2,1), each sigma(1)*sigma(2) = 3
    assert w_brute(10, 1, 9) == 0  # a > n
    assert w_brute(1, 10, 9) == 0  # b > n
    assert w_brute(5, 5, 10) == 1  # l = m = 1 exactly
    assert w_brute(6, 4, 21) == 0  # gcd 2 does not divide 21
    assert w_brute(6, 10, 2 * 23) == w_brute(3, 5, 23)
    with pytest.raises(ValueError):
        w_brute(0, 1, 5)


@pytest.mark.parametrize("fn, args", [
    (w_reduce, (1, 28, 2.5)),   # returned 0
    (w_brute, (1, 1, 2.5)),     # returned 0
    (w_brute, (2, 4, 3.0)),     # an odd n the gcd 2 misses: returned 0
    (w_brute, (True, 1, 2)),    # returned 1
])
def test_w_brute_and_w_reduce_reject_non_integers(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


def test_w_brute_matches_per_m_reference():
    for a in range(1, 13):
        for b in range(1, 13):
            for n in range(1, REFERENCE_N + 1):
                assert w_brute(a, b, n) == w_brute_per_m(a, b, n), (a, b, n)


def test_w_brute_symmetric():
    for a, b in FORMULAS:
        for n in (10, 29, 56, 100):
            assert w_brute(a, b, n) == w_brute(b, a, n)


@settings(max_examples=40, deadline=None)
@given(a=st.integers(1, 40), b=st.integers(1, 40), n_max=st.integers(1, 600))
@example(a=1, b=1, n_max=1)
@example(a=40, b=40, n_max=600)
def test_w_table_matches_w_brute(a, b, n_max):
    table = w_table(a, b, n_max)
    assert len(table) == n_max + 1 and table[0] == 0
    assert table[1:] == [w_brute(a, b, n) for n in range(1, n_max + 1)]


@pytest.mark.parametrize("a, b", [
    (1, 28), (4, 7),
    (6, 4),     # gcd > 1 and a > b
    (6, 9),     # gcd 3, split into 2 * 3 joins
    (3, 3),     # a = b
    (5, 5),     # a = b, past the first residue class
    (2500, 1),  # a past n_max: only the l = 0 column is dilated, so all zero
])
def test_w_table_matches_w_brute_to_2000(a, b):
    table = w_table(a, b, 2000)
    assert table[1:] == [w_brute(a, b, n) for n in range(1, 2001)]


def test_w_table_edges():
    assert w_table(1, 1, 0) == [0]
    assert w_table(1, 1, 3) == [0, 0, 1, 6]
    assert w_table(5, 7, 11) == [0] * 12
    assert w_table(5, 7, 12) == [0] * 12 + [1]
    # dilations far past n_max: the join visits only the classes <= n_max
    assert w_table(10**6 + 3, 10**6, 10) == [0] * 11
    assert w_table(1, 10**12, 10) == [0] * 11
    assert w_table(99991, 99989, 199980)[-2:] == [0, 1]
    with pytest.raises(OutOfRange, match=r"^w_table needs an order <= 1000000, got 1000001$"):
        w_table(1, 28, MAX_ORDER + 1)


def test_w_reduce_examples():
    assert w_reduce(2, 56, 58) == 1
    assert w_reduce(2, 56, 57) == 0
    assert w_reduce(3, 21, 24) == 1
    assert w_reduce(28, 1, 29) == w_brute(1, 28, 29)


def test_w_reduce_falls_back_to_brute():
    for n in range(1, 60):
        assert w_reduce(3, 5, n) == w_brute(3, 5, n)
        assert w_reduce(6, 10, 2 * n) == w_brute(3, 5, n)


def test_w_formula_examples():
    assert w_formula((1, 7), 8) == 1
    assert w_formula((1, 28), 29) == 1
    assert w_formula((2, 7), 9) == 1


def test_w_formula_matches_brute_to_300():
    for pair in FORMULAS:
        a, b = pair
        for n in range(1, 301):
            assert w_formula(pair, n) == w_brute(a, b, n), (pair, n)


def test_w_formula_input_validation():
    with pytest.raises(ValueError):
        w_formula((3, 5), 10)
    with pytest.raises(ValueError):
        w_formula((1, 7), 0)


def test_w11_classical_consequence():
    # 12 W_{1,1}(n) = 5 sigma_3(n) + (1 - 6n) sigma(n)
    for n in range(1, 301):
        assert 12 * w_brute(1, 1, n) == 5 * sigma(3, n) + (1 - 6 * n) * sigma(1, n), n


def test_derivation_replay_1_28():
    # the squared combination expands to divisor sums minus 32256 W_{1,28}
    squared = l_combination(1, 28, 300) ** 2
    for n in range(1, 301):
        expected = (
            240 * sigma(3, n)
            + 188160 * sigma_scaled(3, n, 28)
            + 32256 * (Fraction(1, 24) - Fraction(n, 112)) * sigma(1, n)
            + 32256 * (Fraction(1, 24) - Fraction(n, 4)) * sigma_scaled(1, n, 28)
            - 32256 * w_brute(1, 28, n)
        )
        assert squared.coefficient(n) == expected, n


def test_formula_tables_shape():
    assert set(FORMULAS) == {(1, 28), (4, 7), (1, 14), (2, 7), (1, 7)}
    for pair, terms in FORMULAS.items():
        assert all(t.const != 0 for t in terms if t.kind == "sigma3"), pair
        assert sum(t.kind == "sigma1" for t in terms) == 2, pair


def test_non_integral_result_on_corrupted_table(monkeypatch):
    good = FORMULAS[(1, 7)]
    assert good[0].kind == "sigma3" and good[0].d == 1
    bad = TermTable((good[0]._replace(const=Fraction(1, 121)),) + good[1:])
    monkeypatch.setitem(FORMULAS, (1, 7), bad)
    with pytest.raises(NonIntegralResult):
        for n in range(1, 50):
            w_formula((1, 7), n)


def test_shared_cusp_table_grows(fresh_cusp_store):
    small = shared_cusp_table(10)
    assert small.order == 64 and eta._cusp_view is small
    bigger = shared_cusp_table(small.order + 1)
    assert bigger.order == 128
    assert shared_cusp_table(5) is bigger
    assert fresh_cusp_store == []  # sizing the store expands nothing


def test_w_formula_uses_shared_table_by_default(fresh_cusp_store):
    assert w_formula((1, 7), 8) == 1
    assert eta._cusp_view.order == 64
    assert fresh_cusp_store == [(1, 64), (2, 64)]


def test_c_series_and_evaluate_grow_one_store_by_one_rule(fresh_cusp_store):
    c_series(1, 100)
    c_series(1, 101)  # past the store: it doubles, as the sigma tables do
    assert fresh_cusp_store == [(1, 100), (1, 200)]
    assert eta._cusp_view.order == grown_size(100, 101) == 200
    c1_only = TermTable((Term("form", 1, 1, Fraction(1)),))
    c1 = c_series(1, 200).coeffs
    for n in (1, 101, 150, 200):
        assert evaluate(c1_only, n, "C1") == c1[n]
    assert fresh_cusp_store == [(1, 100), (1, 200)]


# the nine published closed forms, by the label their callers pass
PUBLISHED = {
    **{f"W{pair}": terms for pair, terms in FORMULAS.items()},
    "W(1,14)": ROYER_1_14,
    "W(1,7)": LEMIRE_1_7,
    "R7": R7_CLOSED,
    "R7_raw": R7_CLOSED_RAW,
}


def fraction_evaluate(terms: tuple[Term, ...], n: int, label: str) -> int:
    """The earlier evaluate, kept as a differential reference: every term
    summed at n in exact rationals."""
    table = shared_cusp_table(n)
    s1, s3 = sigma_table(1, n), sigma_table(3, n)
    total = Fraction(0)
    for kind, form, d, const, slope in terms:
        if n % d:
            continue
        if kind == "form":
            total += const * c_series(form, table.order).coeffs[n // d]
        elif kind == "sigma3":
            total += const * s3[n // d]
        else:
            total += (const + slope * n) * s1[n // d]
    if total.denominator != 1:
        raise NonIntegralResult(f"{label}({n}) evaluated to {total}")
    return total.numerator


def test_published_tables_are_term_tables():
    assert len(PUBLISHED) == 9
    for label, terms in PUBLISHED.items():
        assert isinstance(terms, TermTable), label
        assert all(isinstance(t, Term) for t in terms), label


@pytest.mark.parametrize("label", sorted(PUBLISHED))
def test_evaluate_matches_fraction_reference_to_2000(label):
    terms = PUBLISHED[label]
    shared_cusp_table(2000)
    for n in range(1, 2001):
        assert evaluate(terms, n, label) == fraction_evaluate(terms, n, label), (label, n)


@pytest.mark.parametrize("label", sorted(PUBLISHED))
def test_scaled_table_is_the_dilated_multiple(label):
    # the Terms of k T(n/t) evaluate to k T(n/t) when t | n, else to 0
    terms = PUBLISHED[label]
    for k in (1, -3, 64):
        for t in (1, 2, 4, 7):
            table = TermTable(scaled(terms, k, t))
            for n in range(1, 401):
                want = k * evaluate(terms, n // t, label) if n % t == 0 else 0
                assert evaluate(table, n, label) == want, (k, t, n)


KERNEL_N_MAX = 2500


@pytest.fixture(scope="module")
def expanded_generators() -> dict:
    """Each generator's spec -> its series at KERNEL_N_MAX, the largest
    order the store-state test grows the store to."""
    return {cusp_spec(j): expand(cusp_spec(j), KERNEL_N_MAX) for j in eta.CUSP_GENERATORS}


def set_store(mp, order: int) -> None:
    """A store and sigma tables that end exactly at ``order``, no series
    expanded yet."""
    mp.setattr(eta, "_cusp_view", CuspTable(order))
    for k in (1, 3):
        arith._sigma_tables[k] = sigma_table(k, order)[: order + 1]


@pytest.mark.parametrize("label", sorted(PUBLISHED))
@settings(max_examples=12, deadline=None)
@given(n=st.integers(1, KERNEL_N_MAX), data=st.data())
def test_evaluate_matches_fraction_reference_in_every_store_state(
        expanded_generators, label, n, data):
    # the kernel reads the store and the sigma tables in place and grows
    # them only past their end: check it from empty, from tables that end
    # before n, and from tables that reach n or beyond
    terms = PUBLISHED[label]
    for state in ("reset", "below", "past"):
        if state == "below" and n == 1:
            continue
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eta, "_cusp_cache", {})
            mp.setattr(eta, "_cusp_view", None)
            mp.setattr(arith, "_sigma_tables", {})
            # each generator is expanded once per module; the store's
            # growth, not expand, is under test
            mp.setattr(eta, "expand",
                       lambda spec, order: expanded_generators[spec].truncate(order))
            # half the draws end the tables right at the boundary
            if state == "below":
                # at most half of KERNEL_N_MAX, so doubling stays within it;
                # for n <= KERNEL_N_MAX / 2 + 1 any end below n is drawn
                top = min(n - 1, KERNEL_N_MAX // 2)
                end = st.one_of(st.just(top), st.integers(1, top))
                set_store(mp, data.draw(end, label="below"))
            elif state == "past":
                end = st.one_of(st.just(n), st.integers(n, KERNEL_N_MAX))
                set_store(mp, data.draw(end, label="past"))
            got = evaluate(terms, n, label)
            assert eta._cusp_view.order >= n and len(arith._sigma_tables[3]) > n
            assert got == fraction_evaluate(terms, n, label), (state, n)


def test_w_reduce_matches_brute_on_scaled_pairs():
    # g > 1 takes the gcd path: the closed form of the reduced pair at n / g
    for a, b in FORMULAS:
        for g in (1, 2, 3):
            for n in range(600, 0, -1):
                want = w_brute(g * a, g * b, n)
                assert w_reduce(g * a, g * b, n) == want, (g * a, g * b, n)
                assert w_reduce(g * b, g * a, n) == want, (g * b, g * a, n)


def test_point_queries_grow_the_tables_only_past_their_end(monkeypatch, fresh_cusp_store):
    monkeypatch.setattr(arith, "_sigma_tables", {})
    calls = []
    for name in ("shared_cusp_table", "sigma_table"):
        def spy(*args, name=name, real=getattr(convolution, name)):
            calls.append((name, *args))
            return real(*args)

        monkeypatch.setattr(convolution, name, spy)
    assert w_reduce(1, 28, 29) == 1
    assert calls == [("shared_cusp_table", 29), ("sigma_table", 1, 29), ("sigma_table", 3, 29)]
    calls.clear()
    # warm: every table reaches 64, so no query below it grows one
    assert w_reduce(2, 56, 58) == 1
    assert w_formula((4, 7), 11) == 1
    for fn in (w_1_7_lemire, w_1_14_royer, r7_closed, lambda n: w_reduce(1, 28, n)):
        for n in (1, 37, 64):
            fn(n)
    assert calls == []
    # one query past the end grows each table once
    w_reduce(3, 84, 3 * 65)
    assert calls == [("shared_cusp_table", 65), ("sigma_table", 1, 65), ("sigma_table", 3, 65)]
    assert eta._cusp_view.order == 128


@pytest.mark.parametrize("pair", [(3, 5), (1, 28)])
def test_w_reduce_checks_its_arguments_once(monkeypatch, pair):
    whos = []

    def spy(who, *args):
        whos.append(who)
        return arith.check_int(who, *args)

    monkeypatch.setattr(convolution, "check_int", spy)
    w_reduce(*pair, 40)
    assert whos == ["w_reduce"]


def test_w_reduce_names_a_corrupted_closed_form(monkeypatch):
    good = FORMULAS[(1, 28)]
    assert good[0].kind == "sigma3" and good[0].d == 1
    bad = TermTable((good[0]._replace(const=Fraction(1, 121)),) + good[1:])
    monkeypatch.setitem(FORMULAS, (1, 28), bad)
    with pytest.raises(NonIntegralResult, match=r"^W\(1, 28\)\(\d+\) evaluated to "):
        for n in range(1, 50):
            w_reduce(2, 56, 2 * n)


def test_term_table_integer_form():
    terms = (
        Term("sigma3", 0, 1, Fraction(1, 6)),
        Term("sigma1", 0, 1, Fraction(1, 4), Fraction(-1, 2)),
        Term("form", 2, 7, Fraction(2, 3)),
        Term("sigma3", 0, 7, Fraction(0)),
        Term("form", 2, 7, Fraction(-1, 3)),
        Term("form", 5, 7, Fraction(3)),
    )
    table = TermTable(terms)
    assert table == terms and table[2].kind == "form"
    assert table.denominator == 12
    # one row per d; like terms summed, zero sums kept
    assert table.rows == ((1, 2, 3, -6, ()), (7, 0, 0, 0, ((2, 4), (5, 36))))
    assert TermTable().denominator == 1 and TermTable().rows == ()


@pytest.mark.parametrize("term", [
    Term("sigma2", 0, 1, Fraction(1)),     # unknown kind
    Term("sigma3", 0, 0, Fraction(1)),     # d < 1
    Term("form", 1, 2.0, Fraction(1)),     # non-integer d
    Term("form", 1, True, Fraction(1)),    # bool d
])
def test_term_table_rejects_bad_terms(term):
    with pytest.raises(ValueError):
        TermTable((term,))


@pytest.mark.parametrize("n", [100.5, 2.0, True, False, 0, -3, "7", None])
def test_evaluate_rejects_bad_n_before_table_work(monkeypatch, n):
    def no_table_work(*args):
        raise AssertionError("table work before the n check")

    monkeypatch.setattr(convolution, "shared_cusp_table", no_table_work)
    monkeypatch.setattr(convolution, "sigma_table", no_table_work)
    with pytest.raises(ValueError, match=r"^W\(1,7\) needs an integer n >= 1"):
        evaluate(FORMULAS[(1, 7)], n, "W(1,7)")
    for fn, label in ((w_1_14_royer, "W(1,14)"), (r7_closed, "R7")):
        with pytest.raises(ValueError, match="^" + re.escape(label)):
            fn(n)


DIVISORS_28 = (1, 2, 4, 7, 14, 28)


@st.composite
def term_tables(draw):
    """A random table: kinds sigma3 / sigma1 / form, d | 28, and rational
    coefficients, all integral in about one table of four; sometimes added
    to a published table."""
    dens = (1,) if draw(st.integers(0, 3)) == 0 else (1, 2, 3, 7, 24, 25, 175, 4200)
    coef = st.builds(Fraction, st.integers(-60, 60), st.sampled_from(dens))
    d = st.sampled_from(DIVISORS_28)
    term = st.one_of(
        st.builds(lambda d, c: Term("sigma3", 0, d, c), d, coef),
        st.builds(lambda d, c, s: Term("sigma1", 0, d, c, s), d, coef, coef),
        st.builds(lambda j, d, c: Term("form", j, d, c), st.integers(1, 9), d, coef),
    )
    base = draw(st.sampled_from((None, *sorted(PUBLISHED))))
    extra = tuple(draw(st.lists(term, max_size=10)))
    return extra if base is None else PUBLISHED[base] + extra


def _outcome(fn, terms, n):
    try:
        return fn(terms, n, "T")
    except NonIntegralResult as exc:
        return ("NonIntegralResult", str(exc))


@settings(max_examples=120, deadline=None)
@given(term_tables())
@example(FORMULAS[(1, 7)] + (Term("sigma3", 0, 1, Fraction(1, 121)),))
@example(R7_CLOSED + (Term("form", 3, 28, Fraction(1, 5)),))
def test_evaluate_matches_fraction_reference_on_random_tables(terms):
    table = TermTable(terms)
    for n in range(1, 90):
        expected = _outcome(fraction_evaluate, terms, n)
        assert _outcome(evaluate, table, n) == expected, n
        if isinstance(expected, tuple):
            break
