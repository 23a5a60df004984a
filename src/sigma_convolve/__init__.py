"""Exact-arithmetic toolkit for divisor-sum convolution identities,
eta-quotient expansions, and quadratic-form representation counts.

Everything is computed over exact integers and rationals; every closed
form ships with an independent brute-force oracle it is tested against.
"""

from .arith import divisors, normalize, prime_factors, sigma, sigma_scaled, sigma_table
from .convolution import (
    DELTA_FORMS,
    FORMULAS,
    Term,
    TermTable,
    evaluate,
    w_brute,
    w_formula,
    w_reduce,
    w_table,
)
from .deltaforms import (
    cube_bracket,
    delta_4_7_cuberoot,
    delta_series,
    w_1_7_lemire,
    w_1_14_royer,
)
from .eisenstein import l_combination, l_series, m_series
from .errors import (
    BadLeadingTerm,
    FractionalExponent,
    InconsistentSystem,
    NegativeValuation,
    NonIntegralResult,
    OutOfRange,
    UnderdeterminedSystem,
)
from .eta import (
    CUSP_GENERATORS,
    CuspTable,
    EtaQuotientSpec,
    LigozatReport,
    c_series,
    cusp_spec,
    expand,
    ligozat_check,
)
from .modforms import (
    DILATIONS,
    KNOWN_DECOMPOSITIONS,
    Basis28,
    CoeffVector,
    decompose,
    matrix_rank,
    reconstruct,
    sturm_bound,
    verify_identity,
)
from .qseries import QSeries
from .representations import (
    r4_enumerate,
    r4_jacobi,
    r7_closed,
    r7_closed_raw,
    r7_enumerate,
    r7_table,
    r7_via_w,
    verify_cusp_shift_identity,
)

__version__ = "0.1.0"

__all__ = [
    "BadLeadingTerm",
    "Basis28",
    "CUSP_GENERATORS",
    "CoeffVector",
    "CuspTable",
    "DELTA_FORMS",
    "DILATIONS",
    "EtaQuotientSpec",
    "FORMULAS",
    "FractionalExponent",
    "InconsistentSystem",
    "KNOWN_DECOMPOSITIONS",
    "LigozatReport",
    "NegativeValuation",
    "NonIntegralResult",
    "OutOfRange",
    "QSeries",
    "Term",
    "TermTable",
    "UnderdeterminedSystem",
    "c_series",
    "cube_bracket",
    "cusp_spec",
    "decompose",
    "delta_4_7_cuberoot",
    "delta_series",
    "divisors",
    "evaluate",
    "expand",
    "l_combination",
    "l_series",
    "ligozat_check",
    "m_series",
    "matrix_rank",
    "normalize",
    "prime_factors",
    "r4_enumerate",
    "r4_jacobi",
    "r7_closed",
    "r7_closed_raw",
    "r7_enumerate",
    "r7_table",
    "r7_via_w",
    "reconstruct",
    "sigma",
    "sigma_scaled",
    "sigma_table",
    "sturm_bound",
    "verify_cusp_shift_identity",
    "verify_identity",
    "w_1_14_royer",
    "w_1_7_lemire",
    "w_brute",
    "w_formula",
    "w_reduce",
    "w_table",
]
