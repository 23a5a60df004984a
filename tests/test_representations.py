import pytest

from sigma_convolve.convolution import w_formula
from sigma_convolve.errors import NonIntegralResult
from sigma_convolve.representations import (
    r4_enumerate,
    r4_jacobi,
    r7_closed,
    r7_closed_raw,
    r7_enumerate,
    r7_via_w,
    verify_cusp_shift_identity,
)


def test_r4_examples():
    assert r4_jacobi(0) == 1
    assert r4_jacobi(1) == 8
    assert r4_jacobi(4) == 24
    assert r4_jacobi(-3) == 0
    assert r4_enumerate(0) == 1
    assert r4_enumerate(1) == 8
    assert r4_enumerate(7) == 64
    assert r4_enumerate(-3) == 0


def test_r4_jacobi_matches_enumeration():
    for n in range(501):
        assert r4_jacobi(n) == r4_enumerate(n), n


def test_r7_enumerate_examples():
    assert r7_enumerate(0) == 1
    assert r7_enumerate(1) == 8
    assert r7_enumerate(7) == 72


def test_r7_via_w_examples(cusp1000):
    assert r7_via_w(1, cusp1000) == 8
    assert r7_via_w(7, cusp1000) == 72
    assert r7_via_w(8, cusp1000) == 88
    with pytest.raises(ValueError):
        r7_via_w(0, cusp1000)


def test_r7_closed_examples(cusp1000):
    assert r7_closed(1, cusp1000) == 8
    assert r7_closed(7, cusp1000) == 72
    assert r7_closed(28, cusp1000) == r7_enumerate(28)
    with pytest.raises(ValueError):
        r7_closed(0, cusp1000)


def test_r7_three_way_agreement(cusp1000):
    for n in range(1, 201):
        e = r7_enumerate(n)
        assert r7_via_w(n, cusp1000) == e, n
        assert r7_closed(n, cusp1000) == e, n


def test_r7_unsimplified_form_agrees(cusp1000):
    for n in range(1, 201):
        assert r7_closed_raw(n, cusp1000) == r7_closed(n, cusp1000), n


def test_derivation_replay_positive_split(cusp1000):
    # the positive part of the split convolution equals the W combination
    for n in range(1, 201):
        lhs = sum(
            r4_enumerate(n - 7 * m) * r4_enumerate(m)
            for m in range(1, n // 7 + 1)
            if n - 7 * m >= 1
        )
        rhs = 64 * w_formula((1, 7), n, cusp1000) - 256 * (
            w_formula((4, 7), n, cusp1000) + w_formula((1, 28), n, cusp1000)
        )
        if n % 4 == 0:
            rhs += 1024 * w_formula((1, 7), n // 4, cusp1000)
        assert lhs == rhs, n


def test_cusp_shift_identity():
    assert verify_cusp_shift_identity(32)
    assert verify_cusp_shift_identity(100)
    with pytest.raises(ValueError):
        verify_cusp_shift_identity(31)


def test_r7_closed_raw_rejects_corrupt_table(cusp1000, monkeypatch):
    import sigma_convolve.representations as reps
    from fractions import Fraction

    for name, fn in (("R7_CLOSED", r7_closed), ("R7_CLOSED_RAW", r7_closed_raw)):
        good = getattr(reps, name)
        assert good[0].kind == "sigma3" and good[0].d == 1
        monkeypatch.setattr(reps, name, (good[0]._replace(const=Fraction(1, 23)),) + good[1:])
        with pytest.raises(NonIntegralResult):
            for n in range(1, 30):
                fn(n, cusp1000)
