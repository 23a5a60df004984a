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


def test_w_brute_examples():
    assert w_brute(1, 7, 8) == 1
    assert w_brute(1, 7, 1) == 0
    assert w_brute(1, 28, 29) == 1
    assert w_brute(1, 1, 2) == 1
    assert w_brute(1, 1, 3) == 6  # (l,m) = (1,2) and (2,1), each sigma(1)*sigma(2) = 3
    with pytest.raises(ValueError):
        w_brute(0, 1, 5)


def test_w_brute_symmetric():
    for a, b in CLOSED_FORM_PAIRS:
        for n in (10, 29, 56, 100):
            assert w_brute(a, b, n) == w_brute(b, a, n)


def test_w_reduce_examples(cusp1000):
    assert w_reduce(2, 56, 58, cusp1000) == 1
    assert w_reduce(2, 56, 57, cusp1000) == 0
    assert w_reduce(3, 21, 24, cusp1000) == 1
    assert w_reduce(28, 1, 29, cusp1000) == w_brute(1, 28, 29)


def test_w_reduce_falls_back_to_brute(cusp1000):
    for n in range(1, 60):
        assert w_reduce(3, 5, n, cusp1000) == w_brute(3, 5, n)
        assert w_reduce(6, 10, 2 * n, cusp1000) == w_brute(3, 5, n)


def test_w_formula_examples(cusp1000):
    assert w_formula((1, 7), 8, cusp1000) == 1
    assert w_formula((1, 28), 29, cusp1000) == 1
    assert w_formula((2, 7), 9, cusp1000) == 1


def test_w_formula_matches_brute_to_300(cusp1000):
    for pair in CLOSED_FORM_PAIRS:
        a, b = pair
        for n in range(1, 301):
            assert w_formula(pair, n, cusp1000) == w_brute(a, b, n), (pair, n)


def test_w_formula_input_validation(cusp1000):
    with pytest.raises(ValueError):
        w_formula((3, 5), 10, cusp1000)
    with pytest.raises(ValueError):
        w_formula((1, 7), 0, cusp1000)


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


def test_non_integral_result_on_corrupted_table(cusp1000, monkeypatch):
    good = FORMULAS[(1, 7)]
    assert good[0].kind == "sigma3" and good[0].d == 1
    bad = (good[0]._replace(const=Fraction(1, 121)),) + good[1:]
    monkeypatch.setitem(FORMULAS, (1, 7), bad)
    with pytest.raises(NonIntegralResult):
        for n in range(1, 50):
            w_formula((1, 7), n, cusp1000)


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
