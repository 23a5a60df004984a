"""Exact-arithmetic toolkit for divisor-sum convolution identities,
eta-quotient expansions, and quadratic-form representation counts.

Everything is computed over exact integers and rationals; every closed
form ships with an independent brute-force oracle it is tested against.

The package root imports none of its modules. Each public name is looked
up in the module that defines it on first use (PEP 562 ``__getattr__``),
so ``import sigma_convolve`` loads no submodule, and a name loads only its
own module and what that module imports.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS: dict[str, str] = {
    **dict.fromkeys(("divisors", "normalize", "prime_factors", "sigma", "sigma_scaled",
                     "sigma_table"), "arith"),
    **dict.fromkeys(("DELTA_FORMS", "FORMULAS", "Term", "TermTable", "evaluate", "w_brute",
                     "w_formula", "w_reduce"), "convolution"),
    **dict.fromkeys(("cube_bracket", "delta_4_7_cuberoot", "delta_series", "w_1_7_lemire",
                     "w_1_14_royer"), "deltaforms"),
    **dict.fromkeys(("l_combination", "l_series", "m_series"), "eisenstein"),
    **dict.fromkeys(("BadLeadingTerm", "FractionalExponent", "InconsistentSystem",
                     "NegativeValuation", "NonIntegralResult", "OutOfRange",
                     "UnderdeterminedSystem"), "errors"),
    **dict.fromkeys(("CUSP_GENERATORS", "CuspTable", "EtaQuotientSpec", "LigozatReport",
                     "c_series", "cusp_spec", "expand", "ligozat_check"), "eta"),
    **dict.fromkeys(("DILATIONS", "KNOWN_DECOMPOSITIONS", "Basis28", "CoeffVector",
                     "decompose", "matrix_rank", "reconstruct", "sturm_bound",
                     "verify_identity"), "modforms"),
    "QSeries": "qseries",
    **dict.fromkeys(("r4_enumerate", "r4_jacobi", "r7_closed", "r7_closed_raw",
                     "r7_enumerate", "r7_via_w", "verify_cusp_shift_identity"),
                    "representations"),
    **dict.fromkeys(("r7_table", "w_table"), "tables"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
