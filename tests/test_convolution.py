from fractions import Fraction

import pytest

import sigma_convolve.convolution as convolution
from sigma_convolve.arith import sigma, sigma_scaled
from sigma_convolve.convolution import (
    CLOSED_FORM_PAIRS,
    FORMULAS,
    shared_cusp_table,
    w_brute,
    w_formula,
    w_reduce,
)
from sigma_convolve.eisenstein import l_combination
from sigma_convolve.errors import NonIntegralResult

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
    for a, b in CLOSED_FORM_PAIRS:
        for n in (10, 29, 56, 100):
            assert w_brute(a, b, n) == w_brute(b, a, n)


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
    for pair in CLOSED_FORM_PAIRS:
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
    bad = (good[0]._replace(const=Fraction(1, 121)),) + good[1:]
    monkeypatch.setitem(FORMULAS, (1, 7), bad)
    with pytest.raises(NonIntegralResult):
        for n in range(1, 50):
            w_formula((1, 7), n)


def test_shared_cusp_table_grows(monkeypatch):
    monkeypatch.setattr(convolution, "_shared_table", None)
    small = shared_cusp_table(10)
    assert small.order >= 10
    bigger = shared_cusp_table(small.order + 1)
    assert bigger.order > small.order
    again = shared_cusp_table(5)
    assert again is bigger


def test_w_formula_uses_shared_table_by_default(monkeypatch):
    monkeypatch.setattr(convolution, "_shared_table", None)
    assert w_formula((1, 7), 8) == 1
    assert convolution._shared_table is not None
