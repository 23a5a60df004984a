"""The convolution sum W_{a,b}(n) = sum of sigma(l)*sigma(m) over positive
(l, m) with a*l + b*m = n: brute-force oracle, gcd reduction, and the one
evaluator behind every closed form in the package.

Two oracles compute W from its definition. ``w_brute`` is the point
oracle: the defining sum at one n, taken term by term over the shared
sigma table of ``arith``. ``w_table`` is the whole-table oracle: W(0..N)
is the coefficient list of (sum sigma(l) q^(al)) (sum sigma(m) q^(bm)),
one call of the product engine of ``qseries``, which splits the join of
the two dilated sigma lists into short joins. The per-row oracle shares no
code with the closed forms beyond the sigma table, which the tests check
against trial division; the table oracle also shares the product engine
with the sparse eta products, and the tests check that engine against a
schoolbook product and ``w_table`` against ``w_brute``.

Each closed form (the five W_{a,b} formulas here, the level-7 and level-14
formulas in ``deltaforms``, and the three R_7 tables in ``representations``)
is a ``TermTable``, a tuple of ``Term``s: a rational combination of
sigma_3(n/d), (const + slope*n)*sigma(n/d) and cusp coefficients c_j(n/d),
each zero unless d divides n. The coefficient tables are data, one literal
per published coefficient, so they can be audited line by line. Terms on
the lower-level forms of ``DELTA_FORMS`` are expanded into generator terms
when the table is built. ``scaled`` makes the Terms of k*T(n/t), the one
way a table is dilated.

A ``TermTable`` also carries its integer form, made once when the table is
built: L, the lcm of every coefficient's denominator, and the coefficients
times L, grouped by d. A closed form is summed in those integers at n and
divided once by L, so no rational arithmetic runs per query; a nonzero
remainder means a corrupted table.

``evaluate`` is the checked entry: it checks n once, then hands it to the
unchecked kernel ``_evaluate``, which every public point function here also
calls straight after its own one check. The kernel reads every c_j from the
one cusp coefficient store of ``eta`` and sigma_1, sigma_3 from the shared
tables of ``arith`` in place, and grows them, through ``shared_cusp_table``
and ``sigma_table``, only when n is past their end. Both grow by doubling;
a caller that tabulates up to some n evaluates the largest n first, so the
store and the sigma tables are built once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, NamedTuple

from . import arith, eta
from .arith import check_int, check_size, exact_fraction, over_common_denominator, sigma_table
from .errors import NonIntegralResult
from .eta import _cusp_series, shared_cusp_table
from .qseries import Dense, product

Pair = tuple[int, int]


class Term(NamedTuple):
    """One summand, zero unless d | n. kind "sigma3": const*sigma_3(n/d);
    "sigma1": (const + slope*n)*sigma(n/d); "form": const*c_form(n/d)."""

    kind: str
    form: int
    d: int
    const: Fraction
    slope: Fraction = Fraction(0)


# (d, sigma3 coef, sigma1 const, sigma1 slope, ((j, form coef), ...)),
# every coefficient an int already multiplied by the table's denominator
Row = tuple[int, int, int, int, tuple[tuple[int, int], ...]]


class TermTable(tuple):
    """A closed form's Terms, plus their integer form: ``denominator`` is L,
    the lcm of every const and slope denominator, and ``rows`` holds the
    coefficients times L, summed by (kind, d, form) into one Row per d.

    It is still the tuple of Terms it was built from, so slicing,
    concatenation and iteration see Terms; what they build is a plain
    tuple, which ``evaluate`` takes only once it is made a TermTable.
    """

    denominator: int
    rows: tuple[Row, ...]

    def __new__(cls, terms: Iterable[Term] = ()) -> "TermTable":
        self = super().__new__(cls, terms)
        nums, den = over_common_denominator(c for t in self for c in (t.const, t.slope))
        # d -> [sigma3 coef, sigma1 const, sigma1 slope, {form: coef}]
        by_d: dict[int, list] = {}
        for (kind, form, d, _, _), c, s in zip(self, nums[::2], nums[1::2]):
            check_int("TermTable", "d", d, 1)
            row = by_d.setdefault(d, [0, 0, 0, {}])
            if kind == "sigma3":
                row[0] += c
            elif kind == "sigma1":
                row[1] += c
                row[2] += s
            elif kind == "form":
                row[3][form] = row[3].get(form, 0) + c
            else:
                raise ValueError(f"unknown term kind {kind!r}")
        self.denominator = den
        self.rows = tuple((d, c3, c1, s1, tuple(forms.items()))
                          for d, (c3, c1, s1, forms) in by_d.items())
        return self


# The level-7 and level-14 forms as combinations of the generators C_j.
DELTA_FORMS: dict[str, dict[int, int]] = {
    "4,7": {1: 1, 2: 4},
    "4,14,1": {3: -1, 4: 1},
    "4,14,2": {2: -4, 3: 1, 4: 1},
}


def sigma3_terms(coefs: dict[int, str]) -> tuple[Term, ...]:
    """{d: coef} -> coef*sigma_3(n/d) terms."""
    return tuple(Term("sigma3", 0, d, exact_fraction(c)) for d, c in coefs.items())


def sigma1_terms(coefs: dict[int, tuple[str, str]]) -> tuple[Term, ...]:
    """{d: (const, slope)} -> (const + slope*n)*sigma(n/d) terms."""
    return tuple(
        Term("sigma1", 0, d, exact_fraction(c), exact_fraction(s))
        for d, (c, s) in coefs.items()
    )


def form_terms(coefs: dict[int | str, str]) -> tuple[Term, ...]:
    """{j or DELTA_FORMS name: coef} -> coef*c_j(n) terms, with each named
    form expanded into its generators."""
    out: list[Term] = []
    for form, c in coefs.items():
        combo = DELTA_FORMS[form] if isinstance(form, str) else {form: 1}
        c = exact_fraction(c)
        out.extend(Term("form", j, 1, c * k) for j, k in combo.items())
    return tuple(out)


def scaled(terms: Iterable[Term], k: int = 1, t: int = 1) -> tuple[Term, ...]:
    """The Terms of k*T(n/t), zero unless t | n: each d times t, each const
    times k and each slope times k/t, since (c + s*n/t)*sigma(n/(t*d)) is
    the sigma term of T at n/t."""
    check_int("scaled", "k", k, None, "t", t, 1)
    return tuple(Term(kind, form, d * t, k * const, k * slope / t)
                 for kind, form, d, const, slope in terms)


FORMULAS: dict[Pair, TermTable] = {
    (1, 28): TermTable((
        *sigma3_terms({1: "1/2400", 2: "1/800", 4: "1/150",
                       7: "49/2400", 14: "49/800", 28: "49/150"}),
        *sigma1_terms({1: ("1/24", "-1/112"), 28: ("1/24", "-1/4")}),
        *form_terms({1: "1121/67200", 2: "2389/22400", 3: "-1/128",
                     4: "-3349/67200", 5: "-101/200", 6: "-17/40",
                     7: "13/200", 8: "-433/150", 9: "-254/75"}),
    )),
    (4, 7): TermTable((
        *sigma3_terms({1: "1/2400", 2: "1/800", 4: "1/150",
                       7: "49/2400", 14: "49/800", 28: "49/150"}),
        *sigma1_terms({4: ("1/24", "-1/28"), 7: ("1/24", "-1/16")}),
        *form_terms({1: "697/470400", 2: "139/22400", 3: "-9/896",
                     4: "-893/470400", 5: "43/1400", 6: "-7/40",
                     7: "241/1400", 8: "-881/1050", 9: "-178/525"}),
    )),
    (1, 14): TermTable((
        *sigma3_terms({1: "1/600", 2: "1/150", 7: "49/600", 14: "49/150"}),
        *sigma1_terms({1: ("1/24", "-1/56"), 14: ("1/24", "-1/4")}),
        *form_terms({2: "2/175", 3: "-1/600", 4: "-107/4200"}),
    )),
    (2, 7): TermTable((
        *sigma3_terms({1: "1/600", 2: "1/150", 7: "49/600", 14: "49/150"}),
        *sigma1_terms({2: ("1/24", "-1/28"), 7: ("1/24", "-1/8")}),
        *form_terms({2: "2/175", 3: "-107/4200", 4: "-1/600"}),
    )),
    (1, 7): TermTable((
        *sigma3_terms({1: "1/120", 7: "49/120"}),
        *sigma1_terms({1: ("1/24", "-1/28"), 7: ("1/24", "-1/4")}),
        *form_terms({1: "-1/70", 2: "-2/35"}),
    )),
}


def evaluate(terms: TermTable, n: int, label: str) -> int:
    """A closed form at n, summed in integers over the denominator of its
    TermTable.

    The checked entry: n must be an int >= 1, or ValueError names
    ``label``. It is checked once, here; the unchecked kernel
    ``_evaluate`` then sums the form, growing the cusp store and the sigma
    tables only when n is past their end.
    """
    check_int(label, "n", n, 1)
    return _evaluate(terms, n, label)


def _evaluate(terms: TermTable, n: int, label: str) -> int:
    """``evaluate`` on an n already checked.

    Reads the cusp store of ``eta`` and the sigma tables of ``arith`` in
    place, through the modules, and grows each only when n is past its end.
    Form coefficients take one unchecked store read per form term. A
    nonzero remainder after the one division means a corrupted coefficient
    table and raises NonIntegralResult.
    """
    view = eta._cusp_view
    if view is None or view.order < n:
        shared_cusp_table(n)
    tables = arith._sigma_tables
    s1 = tables.get(1, ())
    if n >= len(s1):
        s1 = sigma_table(1, n)
    s3 = tables.get(3, ())
    if n >= len(s3):
        s3 = sigma_table(3, n)
    total = 0
    for d, c3, c1, k1, forms in terms.rows:
        if n % d:
            continue
        m = n // d
        total += c3 * s3[m] + (c1 + k1 * n) * s1[m]
        for j, c in forms:
            total += c * _cusp_series(j).coeffs[m]
    value, rest = divmod(total, terms.denominator)
    if rest:
        raise NonIntegralResult(f"{label}({n}) evaluated to {Fraction(total, terms.denominator)}")
    return value


def w_brute(a: int, b: int, n: int) -> int:
    """Direct evaluation of the convolution sum; the oracle everything else
    is judged against.

    Every pair (l, m) with a*l + b*m = n is summed. With g = gcd(a, b)
    they exist only when g | n; then m runs through one residue class
    mod a/g while l falls by b/g, so the sum is one dot product of two
    strided slices of the sigma table.
    """
    check_int("w_brute", "a", a, 1, "b", b, 1, "n", n, 1)
    return _w_brute(a, b, n)


def _w_brute(a: int, b: int, n: int) -> int:
    """``w_brute`` on arguments already checked."""
    g = gcd(a, b)
    if n % g:
        return 0
    step_m, step_l = a // g, b // g
    # smallest m >= 1 with b*m = n (mod a)
    m0 = (n // g) * pow(step_l, -1, step_m) % step_m or step_m
    m_max = (n - a) // b
    if m0 > m_max:
        return 0
    l0 = (n - b * m0) // a
    # (n - b) // a >= l0 bounds l for every m0 and rises with n, like
    # m_max, so a table tabulated from its largest n builds the sieve once
    s = sigma_table(1, max((n - b) // a, m_max))
    # the l slice runs on to l <= 0 (at most s[0] = 0); map stops with the m slice
    return sum(map(mul, s[m0 : m_max + 1 : step_m], s[l0::-step_l]))


def w_table(a: int, b: int, n_max: int) -> list[int]:
    """W_{a,b}(0), ..., W_{a,b}(n_max) as one list, with W(0) = 0: the
    whole-table oracle.

    The sum over a*l + b*m = n is the q^n coefficient of
    (sum sigma(l) q^(a*l)) (sum sigma(m) q^(b*m)), so the table is the
    product of two dense factors, one sigma table in q^a and in q^b. The
    engine divides out gcd(a, b) and joins each residue class of one side
    with one of the other: ab / gcd(a, b)^2 Kronecker products of about
    n_max gcd(a, b) / (ab) coefficients, or only the n_max / gcd(a, b) + 1
    classes that start at or below n_max when that is fewer. n_max must be
    at most ``arith.MAX_ORDER``.
    """
    check_int("w_table", "a", a, 1, "b", b, 1, "n_max", n_max, 0)
    check_size("w_table", n_max)
    s = sigma_table(1, n_max // min(a, b))
    return product(n_max, [Dense(s, a), Dense(s, b)])


# each closed form's label, made once: "W(1, 28)" for the pair (1, 28)
_LABELS: dict[Pair, str] = {pair: f"W{pair}" for pair in FORMULAS}


def w_formula(pair: Pair, n: int) -> int:
    """Closed-form W for one of the five supported pairs."""
    terms = FORMULAS.get(pair)
    if terms is None:
        raise ValueError(f"no closed form for pair {pair}")
    label = _LABELS[pair]
    check_int(label, "n", n, 1)
    return _evaluate(terms, n, label)


def reduced_pair(a: int, b: int) -> tuple[int, Pair]:
    """(g, (a/g, b/g) in ascending order) with g = gcd(a, b): W_{a,b}(n) is
    W of the reduced pair at n/g, and zero unless g divides n."""
    g = gcd(a, b)
    a, b = a // g, b // g
    return g, ((a, b) if a <= b else (b, a))


def w_reduce(a: int, b: int, n: int) -> int:
    """W for any pair: reduce it (zero unless the gcd divides n), then use
    the closed form when the reduced pair has one, else brute force. The
    arguments are checked here once; the closed form is summed unchecked."""
    check_int("w_reduce", "a", a, 1, "b", b, 1, "n", n, 1)
    g, pair = reduced_pair(a, b)
    if n % g != 0:
        return 0
    terms = FORMULAS.get(pair)
    if terms is None:
        return _w_brute(*pair, n // g)
    return _evaluate(terms, n // g, _LABELS[pair])
