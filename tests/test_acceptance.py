"""Acceptance gate: ten exact criteria, one test and one report line each.

Every check is exact (tolerance 0). Each test prints a single line

    [acceptance N] PASS: <what was checked>

(or FAIL) before asserting, so `pytest tests/test_acceptance.py -v -s`
reads as a checklist. Published rational coefficients are asserted as
literals; enumeration-based oracles are computed in place.
"""

from fractions import Fraction

from sigma_convolve.arith import sigma
from sigma_convolve.convolution import (
    CLOSED_FORM_PAIRS,
    w_brute,
    w_formula,
)
from sigma_convolve.deltaforms import (
    cube_bracket,
    delta_4_7_cuberoot,
    delta_4_7_eta,
    w_1_14_royer,
)
from sigma_convolve.eisenstein import l_combination, l_series
from sigma_convolve.eta import CUSP_GENERATORS, CuspTable, c_series, cusp_spec, ligozat_check
from sigma_convolve.modforms import (
    KNOWN_DECOMPOSITIONS,
    Basis28,
    decompose,
    matrix_rank,
    reconstruct,
    sturm_bound,
)
from sigma_convolve.representations import (
    r4_enumerate,
    r4_jacobi,
    r7_closed,
    r7_enumerate,
    r7_via_w,
    verify_cusp_shift_identity,
)


def _report(num: int, desc: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {status}: {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def test_criterion_01_formula_matches_brute_force(cusp1000):
    ok = all(
        w_formula(pair, n, cusp1000) == w_brute(pair[0], pair[1], n)
        for pair in CLOSED_FORM_PAIRS
        for n in range(1, 1001)
    )
    _report(
        1,
        "closed-form W_{a,b}(n) equals brute-force convolution for all five "
        "pairs, 1 <= n <= 1000",
        ok,
    )


def test_criterion_02_decompositions_recover_published_tables(basis300):
    anchors = {
        (1, 28): [
            ("x", 1, Fraction(118, 125)),
            ("x", 2, Fraction(-21, 125)),
            ("x", 28, Fraction(92512, 125)),
            ("y", 7, Fraction(2327808, 25)),
        ],
        (1, 7): [
            ("x", 1, Fraction(18, 25)),
            ("x", 7, Fraction(882, 25)),
            ("y", 0, Fraction(576, 5)),
        ],
    }
    ok = True
    for pair, published in KNOWN_DECOMPOSITIONS.items():
        target = l_combination(pair[0], pair[1], 300) ** 2
        vec = decompose(target, basis300, 16)
        ok = ok and vec == published
        for side, key, value in anchors.get(pair, []):
            entry = vec.x[key] if side == "x" else vec.y[key]
            ok = ok and entry == value
        ok = ok and reconstruct(vec, basis300).equal_up_to(target, 300)
    _report(
        2,
        "all five squared-combination decompositions over coefficients 0..16 "
        "reproduce the published rationals (spot anchors included) and "
        "reconstruct the target to order 300",
        ok,
    )


def test_criterion_03_sturm_bounds():
    ok = sturm_bound(28) == 16 and sturm_bound(56) == 32
    _report(3, "sturm_bound(28) = 16 and sturm_bound(56) = 32", ok)


def test_criterion_04_r7_three_ways(cusp1000):
    ok = r7_enumerate(1) == 8 and r7_enumerate(7) == 72
    ok = ok and all(
        r7_closed(n, cusp1000) == r7_via_w(n, cusp1000) == r7_enumerate(n)
        for n in range(1, 201)
    )
    _report(
        4,
        "r7_closed = r7_via_w = r7_enumerate for 1 <= n <= 200 with anchors "
        "R7(1) = 8, R7(7) = 72",
        ok,
    )


def test_criterion_05_cusp_shift_identity():
    ok = sturm_bound(56) == 32 and verify_cusp_shift_identity(100)
    _report(
        5,
        "C_1(q^4) + 4 C_2(q^4) equals its nine-term combination to order 100, "
        "checked explicitly at the level-56 Sturm bound 32",
        ok,
    )


def test_criterion_06_cube_root_identity():
    root = delta_4_7_cuberoot(100)
    ok = root == delta_4_7_eta(100)
    ok = ok and (root ** 3).equal_up_to(cube_bracket(100), 100)
    _report(
        6,
        "cube root of the weight-12 bracket equals C_1 + 4 C_2 to order 100 "
        "and cubes back to the bracket exactly",
        ok,
    )


def test_criterion_07_royer_cross_check():
    table = CuspTable(500)
    ok = all(w_1_14_royer(n, table) == w_brute(1, 14, n) for n in range(1, 501))
    _report(
        7,
        "level-14 W_{1,14} formula equals brute force for 1 <= n <= 500, "
        "validating the -C3+C4 and -4C2+C3+C4 cusp identifications",
        ok,
    )


def test_criterion_08_four_square_counts():
    ok = all(r4_jacobi(n) == r4_enumerate(n) for n in range(0, 501))
    _report(8, "r4_jacobi(n) = r4_enumerate(n) for 0 <= n <= 500", ok)


def test_criterion_09_structure_of_the_space():
    ok = True
    for j in CUSP_GENERATORS:
        report = ligozat_check(cusp_spec(j))
        ok = ok and report.is_cusp and report.weight_k == 4
        ok = ok and cusp_spec(j).level == 28
    basis = Basis28.at_order(16)
    ok = ok and matrix_rank([col.coeffs for col in basis.columns()]) == 15
    cusp_rows = [c_series(j, 16).coeffs[1:] for j in CUSP_GENERATORS]
    ok = ok and matrix_rank(cusp_rows) == 9
    _report(
        9,
        "nine generators are weight-4 level-28 cusp forms; 15x17 basis matrix "
        "has rank 15; 9x16 cusp matrix has rank 9",
        ok,
    )


def test_criterion_10_classical_weight_two_square():
    series = l_series(500) ** 2
    ok = series.coefficient(0) == 1
    ok = ok and all(
        series.coefficient(n) == 240 * sigma(3, n) - 288 * n * sigma(1, n)
        for n in range(1, 501)
    )
    _report(
        10,
        "L(q)^2 matches 1 + sum (240 sigma_3(n) - 288 n sigma(n)) q^n to "
        "n = 500",
        ok,
    )
