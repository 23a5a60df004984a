import pytest

import sigma_convolve.eta as eta
from sigma_convolve.convolution import DELTA_FORMS, TermTable, evaluate, w_brute, w_formula
from sigma_convolve.deltaforms import (
    CUBE_BRACKET_LEVEL,
    CUBE_BRACKET_TERMS,
    ROYER_1_14,
    cube_bracket,
    delta_4_7_cuberoot,
    delta_series,
    w_1_14_royer,
    w_1_7_lemire,
)
from sigma_convolve.eta import EtaQuotientSpec, c_series, ligozat_check
from sigma_convolve.representations import R7_CLOSED_RAW, r7_closed_raw


def test_cube_bracket_leading_term():
    bracket = cube_bracket(12)
    assert bracket.valuation() == 3
    assert bracket.coefficient(3) == 1


def test_bracket_products_are_weight_twelve_forms():
    for _, exps in CUBE_BRACKET_TERMS:
        report = ligozat_check(EtaQuotientSpec(CUBE_BRACKET_LEVEL, exps))
        assert report.is_modular and report.weight_k == 12, exps


def test_cuberoot_leading_coefficients():
    root = delta_4_7_cuberoot(10)
    assert root.coefficient(0) == 0
    assert root.coefficient(1) == 1
    assert root.coefficient(2) == c_series(1, 4).coefficient(2) + 4 * c_series(2, 4).coefficient(2)
    with pytest.raises(ValueError):
        delta_4_7_cuberoot(2)


def test_cuberoot_equals_eta_combination():
    assert delta_4_7_cuberoot(100) == delta_series("4,7", 100)


def test_cuberoot_cubes_back_to_bracket():
    root = delta_4_7_cuberoot(80)
    assert (root ** 3).equal_up_to(cube_bracket(80), 80)


def test_delta_4_7_eta_values():
    series = delta_series("4,7", 6)
    assert series.coefficient(1) == 1
    assert series.coefficient(2) == -1  # c1(2) + 4 c2(2) = -5 + 4


def test_delta_4_14_values():
    d1 = delta_series("4,14,1", 8)
    d2 = delta_series("4,14,2", 8)
    assert d1.coefficient(0) == 0 and d2.coefficient(0) == 0
    assert d1.coefficient(1) == 1
    assert d2.coefficient(1) == 1
    with pytest.raises(ValueError, match="unknown form"):
        delta_series("4,14,3", 8)


def test_delta_series_rejects_unknown_form():
    with pytest.raises(ValueError, match="unknown form"):
        delta_series("foo", 10)


def test_dilated_terms_are_zero_extended():
    royer_undilated = TermTable(t for t in ROYER_1_14 if t.d != 2 or t.kind != "form")
    raw_undilated = TermTable(t for t in R7_CLOSED_RAW if t.d != 4)
    assert len(royer_undilated) < len(ROYER_1_14)
    assert len(raw_undilated) < len(R7_CLOSED_RAW)
    for n in range(1, 81, 2):
        assert w_1_14_royer(n) == evaluate(royer_undilated, n, "W"), n
    for n in range(1, 81):
        if n % 4:
            assert r7_closed_raw(n) == evaluate(raw_undilated, n, "R7"), n
    for j in range(1, 10):
        assert c_series(j, 80).coefficient(0) == 0
    for name in DELTA_FORMS:
        series = delta_series(name, 20)
        assert series.coefficient(0) == 0 and series.coefficient(1) == 1, name


def test_royer_formula_examples():
    assert w_1_14_royer(15) == 1
    assert w_1_14_royer(1) == 0
    with pytest.raises(ValueError):
        w_1_14_royer(0)


def test_royer_matches_brute_force():
    for n in range(1, 201):
        assert w_1_14_royer(n) == w_brute(1, 14, n), n


def test_lemire_formula_examples():
    assert w_1_7_lemire(8) == 1
    assert w_1_7_lemire(1) == 0
    with pytest.raises(ValueError):
        w_1_7_lemire(0)


def test_lemire_matches_brute_and_closed_form():
    assert delta_4_7_cuberoot(300) == delta_series("4,7", 300)
    for n in range(1, 301):
        value = w_1_7_lemire(n)
        assert value == w_brute(1, 7, n), n
        assert value == w_formula((1, 7), n), n


def test_royer_and_lemire_default_to_shared_cusp_table(fresh_cusp_store):
    assert w_1_14_royer(15) == 1
    first = eta._cusp_view
    assert first is not None and first.order >= 15
    assert w_1_7_lemire(8) == 1
    assert eta._cusp_view is first
    n = first.order + 10
    assert w_1_7_lemire(n) == w_brute(1, 7, n)
    grown = eta._cusp_view
    assert grown.order >= n
    assert w_1_14_royer(grown.order + 1) == w_brute(1, 14, grown.order + 1)
    assert eta._cusp_view.order > grown.order
