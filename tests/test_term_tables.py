"""Consistency of the closed-form coefficient tables with each other.

No series is expanded and no form is evaluated: the Term tuples are
collected into {(kind, d, form): (const, slope)} maps and compared as
exact rational data. So a corrupted coefficient shows up here even where
the evaluator and the brute-force oracles are never consulted.
"""

from fractions import Fraction

import pytest

from sigma_convolve.convolution import (
    DELTA_FORMS,
    FORMULAS,
    Term,
    form_terms,
    scaled,
    sigma1_terms,
    sigma3_terms,
)
from sigma_convolve.deltaforms import LEMIRE_1_7
from sigma_convolve.modforms import KNOWN_DECOMPOSITIONS
from sigma_convolve.representations import (
    R7_CLOSED,
    R7_CLOSED_RAW,
    R7_VIA_W,
    SHIFT_IDENTITY_COEFFS,
)

ZERO = Fraction(0)


def collect(entries):
    """Sum (kind, d, form, const, slope) entries by (kind, d, form),
    dropping the ones that cancel."""
    out = {}
    for kind, form, d, const, slope in entries:
        c, s = out.get((kind, d, form), (ZERO, ZERO))
        out[(kind, d, form)] = (c + const, s + slope)
    return {k: v for k, v in out.items() if v != (ZERO, ZERO)}


def expected_formula(a, b):
    """Terms of W_{a,b} from its decomposition, by

    1152ab W(n) = 240a^2 s3(n/a) + 240b^2 s3(n/b) - 288n(a s(n/a) + b s(n/b))
                  + 48ab(s(n/a) + s(n/b)) - 240 sum x_t s3(n/t) - sum y_j c_j(n),

    the q^n coefficient of (a L(q^a) - b L(q^b))^2 = sum x_t M(q^t) + sum y_j C_j.
    """
    vec = KNOWN_DECOMPOSITIONS[(a, b)]
    scale = Fraction(1, 1152 * a * b)
    entries = [
        ("sigma3", 0, a, 240 * a * a * scale, ZERO),
        ("sigma3", 0, b, 240 * b * b * scale, ZERO),
        ("sigma1", 0, a, 48 * a * b * scale, -288 * a * scale),
        ("sigma1", 0, b, 48 * a * b * scale, -288 * b * scale),
    ]
    entries += [("sigma3", 0, t, -240 * x * scale, ZERO) for t, x in vec.x.items()]
    entries += [("form", j, 1, -y * scale, ZERO) for j, y in enumerate(vec.y, 1)]
    return collect(entries)


@pytest.mark.parametrize("pair", sorted(FORMULAS))
def test_formula_follows_from_its_decomposition(pair):
    assert collect(FORMULAS[pair]) == expected_formula(*pair)


@pytest.mark.parametrize("pair", sorted(KNOWN_DECOMPOSITIONS))
def test_decomposition_constant_terms(pair):
    # q^0: (a - b)^2 on the left, sum x_t on the right (cusp forms vanish)
    a, b = pair
    assert sum(KNOWN_DECOMPOSITIONS[pair].x.values()) == (a - b) ** 2


def test_lemire_table_is_the_level_28_formula():
    assert collect(LEMIRE_1_7) == collect(FORMULAS[(1, 7)])


def test_r7_closed_absorbs_the_dilated_tail_by_the_shift_identity():
    tail = [t for t in R7_CLOSED_RAW if t.kind == "form" and t.d == 4]
    head = [t for t in R7_CLOSED_RAW if t not in tail]
    # the raw tail is -512/35 (C_1 + 4 C_2)(q^4) ...
    assert collect(tail) == {
        ("form", 4, j): (Fraction(-512, 35) * k, ZERO) for j, k in DELTA_FORMS["4,7"].items()
    }
    # ... and the shift identity rewrites C_1(q^4) + 4 C_2(q^4) in the C_j
    shifted = [("form", j, 1, Fraction(-512, 35) * c, ZERO)
               for j, c in SHIFT_IDENTITY_COEFFS.items()]
    assert collect(R7_CLOSED) == collect([*head, *shifted])


def test_r7_closed_raw_is_the_convolution_formula():
    # R_7(n) = 8 s(n) - 32 s(n/4) + 8 s(n/7) - 32 s(n/28) + 64 W_{1,7}(n)
    #          + 1024 W_{1,7}(n/4) - 256 (W_{4,7}(n) + W_{1,28}(n))
    sigma_part = [("sigma1", 0, d, Fraction(c), ZERO)
                  for d, c in {1: 8, 4: -32, 7: 8, 28: -32}.items()]
    w_part = [*scaled(FORMULAS[1, 7], 64), *scaled(FORMULAS[1, 7], 1024, 4),
              *scaled(FORMULAS[4, 7], -256), *scaled(FORMULAS[1, 28], -256)]
    assert collect(R7_VIA_W) == collect([*sigma_part, *w_part])
    assert collect(R7_CLOSED_RAW) == collect(R7_VIA_W)


@pytest.mark.parametrize("build", [
    lambda c: sigma3_terms({1: c}),
    lambda c: sigma1_terms({1: (c, "1")}),
    lambda c: sigma1_terms({1: ("1", c)}),
    lambda c: form_terms({1: c}),
    lambda c: form_terms({"4,7": c}),
])
def test_term_builders_reject_floats(build):
    with pytest.raises(TypeError, match="got float"):
        build(0.5)


def test_term_builders_take_ints_fractions_and_literals():
    for c in (3, Fraction(3, 7), "3/7", "-3/350"):
        want = Fraction(c)
        assert sigma3_terms({2: c}) == (Term("sigma3", 0, 2, want),)
        assert sigma1_terms({2: (c, c)}) == (Term("sigma1", 0, 2, want, want),)
        assert scaled(form_terms({"4,7": c}), t=4) == (Term("form", 1, 4, want),
                                                      Term("form", 2, 4, 4 * want))
