from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigma_convolve.errors import OutOfRange

import sigma_convolve.arith as arith
import sigma_convolve.eta as eta
from sigma_convolve.arith import (
    MAX_ORDER,
    divisors,
    grown_size,
    normalize,
    prime_factors,
    sigma,
    sigma_scaled,
    sigma_table,
)


@pytest.fixture
def no_sigma_tables(monkeypatch):
    """Start from empty shared sigma tables, so scalar sigma is trial division."""
    monkeypatch.setattr(arith, "_sigma_tables", {})


def naive_sigma(k: int, n: int) -> int:
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def test_sigma_examples():
    assert sigma(1, 1) == 1
    assert sigma(3, 2) == 9
    assert sigma(1, 0) == 0
    assert sigma(1, -5) == 0
    assert sigma(1, 6) == 12
    assert sigma(3, 4) == 73


def test_sigma_rejects_bad_power():
    with pytest.raises(ValueError):
        sigma(0, 5)


def test_sigma_rejects_bool():
    for k, n in ((1, True), (True, 5)):
        with pytest.raises(ValueError):
            sigma(k, n)


def test_sigma_table_rejects_bool():
    for k, n in ((1, True), (True, 5), (0, 5)):
        with pytest.raises(ValueError):
            sigma_table(k, n)


def test_sigma_scaled_examples():
    assert sigma_scaled(3, 28, 28) == 1
    assert sigma_scaled(1, 29, 28) == 0
    assert sigma_scaled(3, 56, 28) == 9
    assert sigma_scaled(1, 10, 1) == sigma(1, 10)
    with pytest.raises(ValueError):
        sigma_scaled(1, 10, 0)


def test_sigma_against_naive_oracle_small():
    for n in range(1, 301):
        assert sigma(1, n) == naive_sigma(1, n)
        assert sigma(3, n) == naive_sigma(3, n)


def test_sigma_against_sieve_oracle_to_ten_thousand(no_sigma_tables):
    # with no shared table, scalar sigma is trial division; this sieve is
    # written out here, independent of the library's sieve
    limit = 10_000
    s1 = [0] * (limit + 1)
    s3 = [0] * (limit + 1)
    for d in range(1, limit + 1):
        d3 = d**3
        for m in range(d, limit + 1, d):
            s1[m] += d
            s3[m] += d3
    for n in range(1, limit + 1):
        assert sigma(1, n) == s1[n]
        assert sigma(3, n) == s3[n]


def test_sigma_table_against_trial_division_to_ten_thousand(no_sigma_tables):
    limit = 10_000
    trial = {k: [sigma(k, n) for n in range(limit + 1)] for k in (1, 3)}
    assert arith._sigma_tables == {}  # scalar sigma never builds a table
    for k in (1, 3):
        table = sigma_table(k, limit)
        assert list(table[: limit + 1]) == trial[k]


def test_sigma_table_grows_by_doubling_and_keeps_entries(no_sigma_tables):
    t64 = sigma_table(1, 64)
    assert len(t64) == 65 and t64[0] == 0 and t64[64] == 127
    t65 = sigma_table(1, 65)
    assert len(t65) == 129  # doubled past 65
    t1000 = sigma_table(1, 1000)
    assert len(t1000) == 1001  # a request beyond the double is met exactly
    assert t65[:65] == t64 and t1000[:129] == t65
    assert sigma_table(1, 500) is t1000  # covered: no rebuild
    assert isinstance(t1000, tuple)  # shared, so read-only


def test_scalar_sigma_beyond_table_leaves_it_alone(no_sigma_tables):
    table = sigma_table(3, 100)
    size = len(table)
    assert sigma(3, 10 * size) == naive_sigma(3, 10 * size)
    # 10^12 = 2^12 5^12: trial division, no table of 10^12 entries
    assert sigma(1, 10**12) == (2**13 - 1) * (5**13 - 1) // 4
    assert len(arith._sigma_tables[3]) == size and 1 not in arith._sigma_tables
    # both sides of the table's end
    assert [sigma(3, n) for n in range(size + 2)] == [naive_sigma(3, n) for n in range(size + 2)]
    assert sigma(3, 0) == 0 and sigma(3, -5) == 0  # never read from the end


def test_grown_size_stops_at_max_order():
    assert grown_size(-1, 10) == 64
    assert grown_size(600_000, 600_001) == MAX_ORDER
    assert grown_size(0, MAX_ORDER) == MAX_ORDER
    with pytest.raises(OutOfRange, match=rf"needs an order <= {MAX_ORDER}, got {MAX_ORDER + 1}$"):
        grown_size(MAX_ORDER, MAX_ORDER + 1)


def test_oversize_reads_change_no_table():
    sigma_table(1, 100)
    tables, store, view = dict(arith._sigma_tables), dict(eta._cusp_cache), eta._cusp_view
    with pytest.raises(OutOfRange):
        sigma_table(1, MAX_ORDER + 1)
    with pytest.raises(OutOfRange):
        sigma_table(2, 10**8)
    # the cusp store grows by the same rule
    with pytest.raises(OutOfRange):
        eta.c_series(1, MAX_ORDER + 1)
    # and expand itself, called directly, raises before it builds a series
    with pytest.raises(OutOfRange, match=rf"^expand needs an order <= {MAX_ORDER}"):
        eta.expand(eta.cusp_spec(1), MAX_ORDER + 1)
    assert arith._sigma_tables.keys() == tables.keys()
    assert all(arith._sigma_tables[k] is t for k, t in tables.items())
    assert eta._cusp_cache == store and eta._cusp_view is view


def test_sigma_multiplicative_on_coprime_pairs():
    for m in range(1, 1001):
        for n in range(1, 1000 // m + 1):
            if gcd(m, n) == 1:
                assert sigma(1, m * n) == sigma(1, m) * sigma(1, n)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(28) == [1, 2, 4, 7, 14, 28]
    assert divisors(49) == [1, 7, 49]
    with pytest.raises(ValueError):
        divisors(0)


def test_prime_factors():
    assert prime_factors(1) == {}
    assert prime_factors(28) == {2: 2, 7: 1}
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
    assert prime_factors(97) == {97: 1}


def test_normalize():
    assert normalize(5) == 5 and isinstance(normalize(5), int)
    assert normalize(Fraction(10, 2)) == 5 and isinstance(normalize(Fraction(10, 2)), int)
    half = normalize(Fraction(1, 2))
    assert half == Fraction(1, 2) and isinstance(half, Fraction)
    with pytest.raises(TypeError):
        normalize(0.5)


rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50))


@settings(max_examples=200, deadline=None)
@given(a=rationals, b=rationals, c=rationals)
def test_rational_field_axioms_randomized(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    if a != 0:
        assert a * (1 / a) == 1
