from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sigma_convolve.eta as eta
from sigma_convolve.arith import divisors
from sigma_convolve.deltaforms import CUBE_BRACKET_LEVEL, CUBE_BRACKET_TERMS
from sigma_convolve.errors import FractionalExponent, NegativeValuation
from sigma_convolve.eta import (
    CUSP_GENERATORS,
    CuspTable,
    EtaQuotientSpec,
    c_series,
    cusp_spec,
    expand,
    ligozat_check,
)
from sigma_convolve.modforms import matrix_rank
from sigma_convolve.qseries import QSeries

from test_qseries import series_inverse


def naive_product_body(delta: int, r: int, order: int) -> QSeries:
    """Test-local oracle: multiply the (1 - q^(delta*n)) factors directly."""
    acc = QSeries.one(order)
    for n in range(1, order // delta + 1):
        acc = acc * (QSeries.one(order) - QSeries.monomial(delta * n, order))
    return acc ** abs(r) if r >= 0 else series_inverse(acc ** (-r))


def test_spec_validation():
    with pytest.raises(ValueError):
        EtaQuotientSpec(28, {3: 1})
    with pytest.raises(ValueError):
        EtaQuotientSpec(0, {1: 1})
    with pytest.raises(ValueError):
        EtaQuotientSpec(28, {1: 0})
    spec = EtaQuotientSpec(28, {1: 5, 2: 0, 7: 5, 14: -10})
    assert dict(spec.exponents) == {1: 5, 7: 5, 14: -10}
    # a changed copy passes the same checks
    with pytest.raises(ValueError):
        spec._replace(level=5)
    assert spec._replace(level=56) == EtaQuotientSpec(56, spec.exponents)
    with pytest.raises(AttributeError):
        spec.level = 56


def test_spec_rejects_bool():
    for level, exponents in ((28, {1: True}), (28, {True: 4}), (True, {1: 24})):
        with pytest.raises(ValueError):
            EtaQuotientSpec(level, exponents)


def test_spec_from_string():
    spec = EtaQuotientSpec.from_string(28, "1:5,2:-1,7:5,14:-1")
    assert spec == cusp_spec(1)
    with pytest.raises(ValueError):
        EtaQuotientSpec.from_string(28, "1:5,1:2")
    with pytest.raises(ValueError):
        EtaQuotientSpec.from_string(28, "1-5")
    with pytest.raises(ValueError):
        EtaQuotientSpec.from_string(28, "1:x")
    with pytest.raises(ValueError):
        EtaQuotientSpec.from_string(28, "")


def test_expand_against_naive_product():
    # Delta = eta(z)^24 = q - 24 q^2 + 252 q^3 - ...
    assert expand(EtaQuotientSpec(1, {1: 24}), 3).coeffs == (0, 1, -24, 252)
    specs = [cusp_spec(j) for j in CUSP_GENERATORS]
    specs += [EtaQuotientSpec(CUBE_BRACKET_LEVEL, exps) for _, exps in CUBE_BRACKET_TERMS]
    # mixed signs, with q-powers 2, 1 and 1
    specs += [EtaQuotientSpec(2, {1: -12, 2: 30}), EtaQuotientSpec(5, {1: -1, 5: 5}),
              EtaQuotientSpec(6, {1: 3, 3: -1, 6: 4})]
    order = 40
    for spec in specs:
        assert spec.offset24() % 24 == 0, spec
        body = QSeries.one(order)
        for delta, r in spec.exponents.items():
            body = body * naive_product_body(delta, r, order)
        shifted = QSeries([0] * (spec.offset24() // 24) + list(body.coeffs), order)
        assert expand(spec, order) == shifted, spec


def test_expand_checks_q_power_before_series_work(monkeypatch):
    def no_series(exponents, order):
        raise AssertionError("series built before the q-power check")

    monkeypatch.setattr(eta, "_body", no_series)
    monkeypatch.setattr(eta, "_product_body", no_series)
    with pytest.raises(FractionalExponent):
        expand(EtaQuotientSpec(1, {1: 1}), 10**7)
    with pytest.raises(NegativeValuation):
        expand(EtaQuotientSpec(1, {1: -24}), 10**7)


def test_expand_past_its_shift_does_no_series_work(monkeypatch):
    def no_series(exponents, order):
        raise AssertionError("body built for a series that is all zeros")

    monkeypatch.setattr(eta, "_body", no_series)
    monkeypatch.setattr(eta, "_product_body", no_series)
    # q^7 * P(q^28)^6 vanishes through order 5
    assert expand(EtaQuotientSpec(28, {28: 6}), 5) == QSeries.zero(5)


def test_expand_builds_the_body_to_order_minus_shift(monkeypatch):
    calls = []
    kernels = []

    def spy(name):
        body = getattr(eta, name)

        def recording_body(exponents, order):
            out = body(exponents, order)
            calls.append((order, len(out)))
            kernels.append(name)
            return out

        monkeypatch.setattr(eta, name, recording_body)

    spy("_body")
    spy("_product_body")
    expand(cusp_spec(9), 20)                    # q^9 times the body
    expand(EtaQuotientSpec(28, {28: 6}), 7)     # shift == order
    expand(cusp_spec(2), 20)                    # q^2 times the body
    expand(EtaQuotientSpec(1, {1: 72}), 10)     # q^3; exponents sum past 48
    assert calls == [(11, 12), (0, 1), (18, 19), (7, 8)]
    # quotients and products of high weight take the recurrence, other eta
    # products the sparse theta factors
    assert kernels == ["_body", "_product_body", "_product_body", "_body"]
    assert eta.SPARSE_MAX_EXPONENT_SUM == 48


@st.composite
def product_specs(draw):
    """Eta products on levels up to 28: exponents 1..8 on a nonempty set of
    divisors; the q-power need not be whole, since the bodies are compared."""
    level = draw(st.integers(1, 28))
    ds = draw(st.lists(st.sampled_from(divisors(level)), min_size=1, unique=True))
    return EtaQuotientSpec(level, {d: draw(st.integers(1, 8)) for d in ds})


@settings(max_examples=60, deadline=None)
@given(spec=product_specs(), order=st.integers(0, 400))
# a factor's last term lands exactly on the order: delta times a pentagonal
# (P) or triangular (J) number
@example(spec=EtaQuotientSpec(1, {1: 1}), order=22)      # P(q): 4*11/2 = 22
@example(spec=EtaQuotientSpec(1, {1: 1}), order=26)      # P(q): 4*13/2 = 26
@example(spec=EtaQuotientSpec(7, {7: 2}), order=35)      # P(q^7): 7*5
@example(spec=EtaQuotientSpec(1, {1: 3}), order=10)      # J(q): 4*5/2 = 10
@example(spec=EtaQuotientSpec(28, {28: 6}), order=28)    # J(q^28): 28*1
@example(spec=EtaQuotientSpec(14, {1: 1, 14: 4}), order=42)  # J(q^14): 14*3
@example(spec=cusp_spec(5), order=336)                   # P(q^28): 28*12
@example(spec=EtaQuotientSpec(7, {1: 16, 7: 8}), order=385)  # J(q^7): 7*55
@example(spec=EtaQuotientSpec(28, {28: 6}), order=0)
def test_product_body_matches_recurrence_and_naive_product(spec, order):
    exps = spec.exponents
    sparse = eta._product_body(exps, order)
    assert sparse == eta._body(exps, order)
    naive = QSeries.one(order)
    for delta, r in exps.items():
        naive = naive * naive_product_body(delta, r, order)
    assert sparse == list(naive.coeffs)


def pentagonal_product(order: int) -> QSeries:
    """prod_{n>=1} (1 - q^n) via the pentagonal number expansion."""
    out = [0] * (order + 1)
    out[0] = 1
    m = 1
    while m * (3 * m - 1) // 2 <= order:
        sign = -1 if m % 2 else 1
        for e in (m * (3 * m - 1) // 2, m * (3 * m + 1) // 2):
            if e <= order:
                out[e] = sign
        m += 1
    return QSeries(out, order)


def full_order_expand(spec: EtaQuotientSpec, order: int) -> QSeries:
    """Test-local reference: an earlier kernel, which raised and inverted
    every factor P(q^delta)^|r| at the full order and multiplied them."""
    body = QSeries.one(order)
    for delta, r in spec.exponents.items():
        # the pentagonal expansion of P(q^delta) at the full order
        factor = pentagonal_product(order).substitute_power(delta) ** abs(r)
        if r < 0:
            factor = series_inverse(factor)
        body = body * factor
    shift = spec.offset24() // 24
    return QSeries([0] * min(shift, order + 1) + list(body.coeffs), order)


@st.composite
def whole_specs(draw):
    """Specs on levels up to 28 with exponents in -4..8 and a whole,
    nonnegative q-power: every exponent is drawn, then one is redrawn among
    the values that make the q-power whole."""
    level = draw(st.integers(1, 28))
    exps = {d: draw(st.integers(-4, 8)) for d in divisors(level)}
    total = sum(d * r for d, r in exps.items())
    fixes = [(d, r) for d in exps for r in range(-4, 9)
             if r and (new_total := total + d * (r - exps[d])) % 24 == 0 and new_total >= 0]
    assume(fixes)
    d, r = draw(st.sampled_from(fixes))
    exps[d] = r
    return EtaQuotientSpec(level, exps)


@settings(max_examples=80, deadline=None)
@given(spec=whole_specs(), order=st.integers(0, 300))
@example(spec=cusp_spec(9), order=85)        # 14 and 28 both miss 85
@example(spec=cusp_spec(9), order=27)        # order < 28
@example(spec=EtaQuotientSpec(28, {28: 6}), order=5)
@example(spec=EtaQuotientSpec(28, {28: 6}), order=0)
@example(spec=EtaQuotientSpec(28, {28: 6}), order=7)    # shift == order
@example(spec=cusp_spec(2), order=2)                     # shift == order
# an eta product whose body (to order - shift) ends on a factor's last term
@example(spec=cusp_spec(2), order=72)                    # P(q^14) at 14*5
@example(spec=cusp_spec(5), order=145)                   # P(q^28) at 28*5
@example(spec=EtaQuotientSpec(7, {1: 16, 7: 8}), order=73)  # J(q^7) at 7*10
def test_expand_matches_full_order_reference(spec, order):
    assert expand(spec, order) == full_order_expand(spec, order)


def test_generators_match_full_order_reference_at_1000():
    for j in CUSP_GENERATORS:
        assert expand(cusp_spec(j), 1000) == full_order_expand(cusp_spec(j), 1000), j


@pytest.mark.parametrize("order", [-1, True, False, 2.5, "10", None])
def test_expand_and_c_series_reject_bad_orders(monkeypatch, order):
    c_series(1, 5)  # a warm cache must not answer a bad order either

    def no_series(exponents, n):
        raise AssertionError("series built for a bad order")

    monkeypatch.setattr(eta, "_body", no_series)
    monkeypatch.setattr(eta, "_product_body", no_series)
    with pytest.raises(ValueError):
        expand(cusp_spec(1), order)
    with pytest.raises(ValueError):
        expand(cusp_spec(2), order)
    with pytest.raises(ValueError):
        c_series(1, order)
    monkeypatch.setattr(eta, "_cusp_cache", {})
    with pytest.raises(ValueError):
        c_series(1, order)


@pytest.mark.parametrize("order", [-3, True, False, 2.5, "10", None])
def test_cusp_table_rejects_bad_orders(order):
    with pytest.raises(ValueError):
        CuspTable(order)


def test_cusp_table_expands_a_generator_on_first_read(fresh_cusp_store):
    table = CuspTable(50)
    with pytest.raises(ValueError):
        c_series(10, table.order)
    assert eta._cusp_cache == {} and eta._cusp_view is None
    assert c_series(3, table.order).coefficient(3) == 1
    assert set(eta._cusp_cache) == {3} and eta._cusp_view.order == 64
    assert c_series(3, table.order) == c_series(3, 64).truncate(50)
    assert fresh_cusp_store == [(3, 64)]  # the store's order, read once


def test_cusp_table_is_a_view_of_the_store():
    table = CuspTable(40)
    assert not hasattr(table, "__dict__") and table._fields == ("order",)
    with pytest.raises(AttributeError):
        table.order = 41
    with pytest.raises(ValueError):
        table._replace(order=0)
    assert table._replace(order=41) == CuspTable(41)
    assert c_series(1, table.order).coeffs[40] == eta._cusp_cache[1].coeffs[40]


def test_expand_examples():
    c1 = expand(cusp_spec(1), 8)
    assert c1.coefficient(0) == 0 and c1.coefficient(1) == 1
    c2 = expand(cusp_spec(2), 8)
    assert c2.coefficient(1) == 0 and c2.coefficient(2) == 1
    with pytest.raises(FractionalExponent):
        expand(EtaQuotientSpec(1, {1: 1}), 5)
    with pytest.raises(NegativeValuation):
        expand(EtaQuotientSpec(1, {1: -24}), 5)


def test_expand_is_multiplicative_on_exponents():
    # {1:24} times {2:24} = {1:24, 2:24}, each side expandable on its own
    a = expand(EtaQuotientSpec(2, {1: 24}), 30)
    b = expand(EtaQuotientSpec(2, {2: 24}), 30)
    both = expand(EtaQuotientSpec(2, {1: 24, 2: 24}), 30)
    assert a * b == both


def test_ligozat_nine_generators():
    for j in range(1, 10):
        report = ligozat_check(cusp_spec(j))
        assert report.weight_k == 4, j
        assert report.is_modular and report.is_cusp, j


def test_ligozat_level_one_examples():
    report = ligozat_check(EtaQuotientSpec(1, {1: 24}))
    assert report.is_cusp and report.weight_k == 12
    assert report.s_value == 1 and report.cusp_orders == {1: 24}
    report = ligozat_check(EtaQuotientSpec(1, {1: 2}))
    assert not report.cond_i and not report.is_modular


def test_ligozat_fields_are_exact():
    report = ligozat_check(cusp_spec(1))
    # s = 1^5 * 2^-1 * 7^5 * 14^-1 = 7^4 * (2^2)^-1... kept exact as a fraction
    assert report.s_value == Fraction(2401, 4)
    assert report.cond_v  # 2401/4 = (49/2)^2
    assert set(report.cusp_orders) == {1, 2, 4, 7, 14, 28}


def test_ligozat_condition_v_odd_exponent():
    # s = 2: not a rational square, everything else satisfied or not is moot
    report = ligozat_check(EtaQuotientSpec(2, {2: 1, 1: -1}))
    assert not report.cond_v


@pytest.mark.parametrize("exps, s, square", [
    ({1: 1, 2: -1}, Fraction(1, 2), False),    # square numerator only
    ({2: 2, 3: -1}, Fraction(4, 3), False),    # square numerator only
    ({2: 2, 3: -2}, Fraction(4, 9), True),
    ({1: 3, 6: -2, 3: 2}, Fraction(1, 4), True),  # 9/36 reduces to 1/4
])
def test_ligozat_condition_v_reads_both_parts_of_s(exps, s, square):
    report = ligozat_check(EtaQuotientSpec(6, exps))
    assert report.s_value == s
    assert report.cond_v is square


def test_generator_leading_terms():
    for j, exps in CUSP_GENERATORS.items():
        series = c_series(j, 20)
        lead = sum(d * r for d, r in exps.items()) // 24
        assert series.valuation() == lead, j
        assert series.coefficient(lead) == 1, j


def test_known_generator_coefficients():
    assert c_series(1, 4).coeffs[:3] == (0, 1, -5)
    assert c_series(3, 4).coeffs[:4] == (0, 0, 0, 1)
    assert c_series(4, 4).coeffs[:3] == (0, 1, 2)
    assert c_series(5, 6).valuation() == 5
    assert c_series(9, 10).valuation() == 9


def test_generator_coefficients_are_integers():
    for j in range(1, 10):
        assert all(isinstance(c, int) for c in c_series(j, 60).coeffs), j


def test_cusp_matrix_rank_nine():
    rows = [[c_series(j, 16).coefficient(n) for j in range(1, 10)] for n in range(1, 17)]
    assert matrix_rank(rows) == 9


def test_c_series_cache_consistency():
    big = c_series(2, 120)
    small = c_series(2, 40)
    assert big.truncate(40) == small
    fresh = expand(cusp_spec(2), 40)
    assert fresh == small


def test_cusp_table():
    table = CuspTable(50)
    c1 = c_series(1, table.order)
    assert c1.coefficient(1) == 1 and c1.coefficient(2) == -5
    assert c_series(3, table.order).coefficient(0) == 0
    assert c_series(9, table.order).valuation() == 9
    with pytest.raises(ValueError):
        c_series(10, table.order)
    with pytest.raises(ValueError):
        CuspTable(0)
