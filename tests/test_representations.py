from math import isqrt

import pytest

import sigma_convolve.arith as arith
import sigma_convolve.convolution as convolution
import sigma_convolve.representations as representations
from sigma_convolve.arith import MAX_ORDER
from sigma_convolve.convolution import TermTable, w_formula
from sigma_convolve.errors import NonIntegralResult, OutOfRange
from sigma_convolve.representations import (
    r4_enumerate,
    r4_jacobi,
    r7_closed,
    r7_closed_raw,
    r7_enumerate,
    r7_table,
    r7_via_w,
    verify_cusp_shift_identity,
)


def r4_octant_walk(n: int) -> int:
    """The earlier r4_enumerate, kept as a differential reference: walk the
    nonnegative octant with weight 2 per nonzero coordinate and resolve the
    fourth coordinate by a perfect-square test."""
    if n < 0:
        return 0
    total = 0
    for a in range(isqrt(n) + 1):
        wa = 2 if a else 1
        na = n - a * a
        for b in range(isqrt(na) + 1):
            wb = wa * (2 if b else 1)
            nb = na - b * b
            for c in range(isqrt(nb) + 1):
                rem = nb - c * c
                d = isqrt(rem)
                if d * d == rem:
                    total += wb * (2 if c else 1) * (2 if d else 1)
    return total


def test_r4_examples():
    assert r4_jacobi(0) == 1
    assert r4_jacobi(1) == 8
    assert r4_jacobi(4) == 24
    assert r4_jacobi(-3) == 0
    assert r4_enumerate(0) == 1
    assert r4_enumerate(1) == 8
    assert r4_enumerate(7) == 64
    assert r4_enumerate(-3) == 0


def test_r4_enumerate_matches_octant_walk():
    for n in range(-3, 301):
        assert r4_enumerate(n) == r4_octant_walk(n), n


def test_r4_jacobi_matches_enumeration():
    for n in range(501):
        assert r4_jacobi(n) == r4_enumerate(n), n


def test_r7_enumerate_examples():
    assert r7_enumerate(0) == 1
    assert r7_enumerate(1) == 8
    assert r7_enumerate(7) == 72


def test_r4_enumerate_keeps_no_cache():
    assert not hasattr(r4_enumerate, "cache_info")


def test_r7_table_matches_r7_enumerate():
    table = r7_table(600)
    assert len(table) == 601
    assert table == [r7_enumerate(n) for n in range(601)]
    assert r7_table(0) == [1]


@pytest.mark.parametrize("fn", [r4_enumerate, r7_enumerate, r7_table])
def test_enumerations_refuse_sizes_past_max_order(fn):
    with pytest.raises(OutOfRange, match=rf"^{fn.__name__} needs an order <= {MAX_ORDER}, "):
        fn(MAX_ORDER + 1)


def test_r7_via_w_checks_n_once(monkeypatch):
    whos = []

    def spy(who, *args):
        whos.append(who)
        return arith.check_int(who, *args)

    monkeypatch.setattr(representations, "check_int", spy)
    monkeypatch.setattr(convolution, "check_int", spy)
    assert r7_via_w(56) == 74008
    assert whos == ["r7_via_w"]


def test_r7_via_w_examples():
    assert r7_via_w(1) == 8
    assert r7_via_w(7) == 72
    assert r7_via_w(8) == 88
    with pytest.raises(ValueError):
        r7_via_w(0)


def test_r7_via_w_matches_the_table_oracle_to_2000():
    table = r7_table(2000)
    for n in range(2000, 0, -1):
        assert r7_via_w(n) == table[n], n


def test_r7_closed_examples():
    assert r7_closed(1) == 8
    assert r7_closed(7) == 72
    assert r7_closed(28) == r7_enumerate(28)
    with pytest.raises(ValueError):
        r7_closed(0)


def test_r7_three_way_agreement():
    for n in range(1, 201):
        e = r7_enumerate(n)
        assert r7_via_w(n) == e, n
        assert r7_closed(n) == e, n


def test_r7_unsimplified_form_agrees():
    for n in range(1, 201):
        assert r7_closed_raw(n) == r7_closed(n), n


def test_derivation_replay_positive_split():
    # the positive part of the split convolution equals the W combination
    for n in range(1, 201):
        lhs = sum(
            r4_enumerate(n - 7 * m) * r4_enumerate(m)
            for m in range(1, n // 7 + 1)
            if n - 7 * m >= 1
        )
        rhs = 64 * w_formula((1, 7), n) - 256 * (
            w_formula((4, 7), n) + w_formula((1, 28), n)
        )
        if n % 4 == 0:
            rhs += 1024 * w_formula((1, 7), n // 4)
        assert lhs == rhs, n


def test_cusp_shift_identity():
    assert verify_cusp_shift_identity(32)
    assert verify_cusp_shift_identity(100)
    with pytest.raises(ValueError):
        verify_cusp_shift_identity(31)


def test_cusp_shift_identity_fails_on_a_wrong_coefficient(monkeypatch):
    import sigma_convolve.representations as reps
    from fractions import Fraction

    coeffs = dict(reps.SHIFT_IDENTITY_COEFFS)
    coeffs[3] += Fraction(1, 1000)
    monkeypatch.setattr(reps, "SHIFT_IDENTITY_COEFFS", coeffs)
    assert not verify_cusp_shift_identity(32)


def test_cusp_shift_identity_reads_the_delta_4_7_form(monkeypatch):
    # the left side is DELTA_FORMS["4,7"] dilated by 4, not a second copy of
    # C_1 + 4 C_2, so a slip in that table fails the identity
    monkeypatch.setitem(convolution.DELTA_FORMS, "4,7", {1: 1, 2: 5})
    assert not verify_cusp_shift_identity(32)


def test_r7_closed_raw_rejects_corrupt_table(monkeypatch):
    import sigma_convolve.representations as reps
    from fractions import Fraction

    for name, fn in (("R7_CLOSED", r7_closed), ("R7_CLOSED_RAW", r7_closed_raw)):
        good = getattr(reps, name)
        assert good[0].kind == "sigma3" and good[0].d == 1
        bad = TermTable((good[0]._replace(const=Fraction(1, 23)),) + good[1:])
        monkeypatch.setattr(reps, name, bad)
        with pytest.raises(NonIntegralResult):
            for n in range(1, 30):
                fn(n)
