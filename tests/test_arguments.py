"""One argument rule for every public function that takes a count, order,
level, index, exponent or dilation: a bool, a float equal to a valid int
and an int below the least value all raise ValueError naming the function
(or the closed form's label) and the argument, before any module-wide
table is touched."""

from fractions import Fraction

import pytest

from sigma_convolve import arith, eta
from sigma_convolve.arith import divisors, prime_factors, sigma, sigma_scaled, sigma_table
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
from sigma_convolve.deltaforms import (
    cube_bracket,
    delta_4_7_cuberoot,
    delta_series,
    w_1_7_lemire,
    w_1_14_royer,
)
from sigma_convolve.eisenstein import l_combination, l_series, m_series
from sigma_convolve.eta import CuspTable, EtaQuotientSpec, c_series, cusp_spec, expand
from sigma_convolve.modforms import Basis28, decompose, sturm_bound, verify_identity
from sigma_convolve.qseries import Dense, QSeries, product
from sigma_convolve.representations import (
    r4_enumerate,
    r4_jacobi,
    r7_closed,
    r7_closed_raw,
    r7_enumerate,
    r7_via_w,
    verify_cusp_shift_identity,
)
from sigma_convolve.tables import r7_table, w_table

SERIES = QSeries([1, 3, 3, 1], 3)
SPEC = EtaQuotientSpec(28, {28: 6})
BASIS = Basis28.at_order(16)
TARGET = l_combination(1, 7, 16) ** 2

# (who, argument, least or None, call with that argument set to v)
CASES = [
    ("divisors", "n", 1, divisors),
    ("prime_factors", "n", 1, prime_factors),
    ("sigma_table", "k", 1, lambda v: sigma_table(v, 10)),
    ("sigma_table", "n", 0, lambda v: sigma_table(1, v)),
    ("sigma", "k", 1, lambda v: sigma(v, 10)),
    ("sigma", "n", None, lambda v: sigma(1, v)),
    ("sigma_scaled", "k", 1, lambda v: sigma_scaled(v, 12, 4)),
    ("sigma_scaled", "n", None, lambda v: sigma_scaled(1, v, 4)),
    ("sigma_scaled", "d", 1, lambda v: sigma_scaled(1, 12, v)),
    ("QSeries", "order", 0, lambda v: QSeries([1, 2], v)),
    ("QSeries", "order", 0, QSeries.zero),
    ("QSeries", "order", 0, QSeries.one),
    ("QSeries.monomial", "n", 0, lambda v: QSeries.monomial(v, 3)),
    ("QSeries.monomial", "order", 0, lambda v: QSeries.monomial(1, v)),
    ("QSeries.linear_combination", "order", 0,
     lambda v: QSeries.linear_combination([(SERIES, 2)], v)),
    ("QSeries.coefficient", "n", None, SERIES.coefficient),
    ("QSeries.truncate", "order", 0, SERIES.truncate),
    ("QSeries.equal_up_to", "bound", 0, lambda v: SERIES.equal_up_to(SERIES, v)),
    ("QSeries.__pow__", "e", 0, lambda v: SERIES ** v),
    ("QSeries.substitute_power", "t", 1, SERIES.substitute_power),
    ("product", "order", 0, lambda v: product(v, [Dense([1, 2])])),
    ("product", "t", 1, lambda v: product(4, [Dense([1, 2], v)])),
    ("EtaQuotientSpec", "level", 1, lambda v: EtaQuotientSpec(v, {1: 24})),
    ("EtaQuotientSpec", "level", 1, lambda v: EtaQuotientSpec.from_string(v, "1:24")),
    ("expand", "order", 0, lambda v: expand(SPEC, v)),
    ("cusp_spec", "j", 1, cusp_spec),
    ("c_series", "j", 1, lambda v: c_series(v, 10)),
    ("c_series", "order", 0, lambda v: c_series(1, v)),
    ("CuspTable", "order", 1, CuspTable),
    ("TermTable", "d", 1, lambda v: TermTable([Term("sigma3", 0, v, Fraction(1))])),
    ("shared_cusp_table", "min_order", 1, shared_cusp_table),
    ("W(1,7)", "n", 1, lambda v: evaluate(FORMULAS[(1, 7)], v, "W(1,7)")),
    ("scaled", "k", None, lambda v: scaled(FORMULAS[(1, 7)], v)),
    ("scaled", "t", 1, lambda v: scaled(FORMULAS[(1, 7)], 1, v)),
    ("w_brute", "a", 1, lambda v: w_brute(v, 28, 100)),
    ("w_brute", "b", 1, lambda v: w_brute(1, v, 100)),
    ("w_brute", "n", 1, lambda v: w_brute(1, 28, v)),
    ("w_table", "a", 1, lambda v: w_table(v, 28, 100)),
    ("w_table", "b", 1, lambda v: w_table(1, v, 100)),
    ("w_table", "n_max", 0, lambda v: w_table(1, 28, v)),
    ("W(1, 28)", "n", 1, lambda v: w_formula((1, 28), v)),
    ("w_reduce", "a", 1, lambda v: w_reduce(v, 28, 100)),
    ("w_reduce", "b", 1, lambda v: w_reduce(1, v, 100)),
    ("w_reduce", "n", 1, lambda v: w_reduce(1, 28, v)),
    ("l_series", "order", 0, l_series),
    ("m_series", "order", 0, m_series),
    ("l_combination", "a", 1, lambda v: l_combination(v, 2, 10)),
    ("l_combination", "b", 1, lambda v: l_combination(1, v, 10)),
    ("l_combination", "order", 0, lambda v: l_combination(1, 2, v)),
    ("sturm_bound", "level", 1, sturm_bound),
    ("Basis28.at_order", "order", 16, Basis28.at_order),
    ("decompose", "n_max", 16, lambda v: decompose(TARGET, BASIS, v)),
    ("verify_identity", "level", 1, lambda v: verify_identity(TARGET, TARGET, v)),
    ("cube_bracket", "order", 0, cube_bracket),
    ("delta_4_7_cuberoot", "order", 3, delta_4_7_cuberoot),
    ("delta_series", "order", 0, lambda v: delta_series("4,7", v)),
    ("W(1,14)", "n", 1, w_1_14_royer),
    ("W(1,7)", "n", 1, w_1_7_lemire),
    ("r4_jacobi", "n", None, r4_jacobi),
    ("r4_enumerate", "n", None, r4_enumerate),
    ("r7_enumerate", "n", None, r7_enumerate),
    ("r7_table", "n_max", 0, r7_table),
    ("r7_via_w", "n", 1, r7_via_w),
    ("R7", "n", 1, r7_closed),
    ("R7_raw", "n", 1, r7_closed_raw),
    ("verify_cusp_shift_identity", "order", 32, verify_cusp_shift_identity),
]


def bad_values(least):
    """A bool, a float equal to a valid int, and least - 1 when bounded."""
    values = [True, float(max(7, least or 0))]
    if least is not None:
        values.append(least - 1)
    return values


def module_tables():
    return (dict(arith._sigma_tables), dict(eta._cusp_cache), eta._cusp_view)


def assert_unchanged(before):
    sigma_before, cusp_before, view_before = before
    assert arith._sigma_tables.keys() == sigma_before.keys()
    assert all(arith._sigma_tables[k] is t for k, t in sigma_before.items())
    assert eta._cusp_cache.keys() == cusp_before.keys()
    assert all(eta._cusp_cache[j] is s for j, s in cusp_before.items())
    assert eta._cusp_view is view_before


@pytest.mark.parametrize(
    "who, name, least, call, value",
    [pytest.param(*case, v, id=f"{case[0]}-{case[1]}-{v!r}")
     for case in CASES for v in bad_values(case[2])],
)
def test_bad_argument_raises_before_touching_module_tables(who, name, least, call, value):
    before = module_tables()
    bound = "" if least is None else f" >= {least}"
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{who} needs an integer {name}{bound}, got {value!r}"
    assert_unchanged(before)


def test_zero_extension_holds_for_ints():
    assert sigma(1, -3) == 0
    assert sigma_scaled(1, -4, 4) == 0
    assert r4_jacobi(-1) == 0
    assert r4_enumerate(-1) == 0
    assert r7_enumerate(-1) == 0
    assert c_series(1, 10).coefficient(0) == 0
