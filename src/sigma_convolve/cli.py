"""Command-line interface.

Subcommands: wab (convolution tables), verify (identity suite), eta
(quotient report and expansion), r7 (representation counts), delta (cusp
form coefficients), decompose (basis coordinates as JSON).

Each command loads only the modules it runs. At import this module loads
``arith`` and ``errors`` of the package; each ``cmd_*`` imports its own
modules, and ``json`` is imported only where JSON is written. So
``wab --mode brute`` and ``r7 --mode enumerate``, which print only the
table oracles of ``tables``, load no closed form, eta quotient or modular
form. The parser is built from no library data: ``--form`` is checked
against ``DELTA_FORMS`` when it is parsed, and ``decompose --n-max``
defaults to ``MIN_DECOMPOSE_ORDER`` in ``cmd_decompose``.

wab, r7 and delta print through one tabulator, which takes an ordered map
from column header to a column: a table indexed by n, or a function of n.
Each column is built as a list first and all rows are then formatted in
one pass. A table column (the oracle tables of ``wab`` brute and ``r7``
enumerate, a series' coefficients) is one slice. A function column is
evaluated from the largest n down, so its first call builds each doubling
library table (the cusp store, the sigma sieves) once, at the size it
needs; ``wab --mode both`` does so before the brute table is built, so
that table finds the sigma sieve already large enough. Two or more columns
evaluate one quantity different ways: the table then gains a match
column, and any disagreement exits 2. Each verify identity is a check at
a given order; the suite runs it at the requested order raised to the
identity's Sturm bound, or to 3 for the cube-root consistency check, which
has none. A check that raises one of the package's exception types is a
failed identity: its name and the exception go to stderr.

Exit codes: 0 success, 1 usage error, 2 table mismatch, 3 identity
failure, 4 domain error (for example a fractional q-power, or an --n-max,
--terms or --order past ``arith.MAX_ORDER``, rejected before any table is
built). All arithmetic lives in the library modules.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence
from functools import lru_cache, partial

from . import errors
from .arith import MAX_ORDER
from .errors import FractionalExponent, NegativeValuation, OutOfRange

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_IDENTITY = 3
EXIT_DOMAIN = 4

# every exception type that ``errors`` defines: a verify check that raises one fails
_LIBRARY_ERRORS = tuple(v for v in vars(errors).values()
                        if isinstance(v, type) and issubclass(v, Exception)
                        and v.__module__ == errors.__name__)


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports flag problems as exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliUsageError(message)


class _DeltaFormNames:
    """The sorted names of ``DELTA_FORMS`` as ``--form``'s choices, loaded
    when argparse first reads them: when the flag is parsed or help is
    printed, not when the parser is built."""

    def __iter__(self):
        from .convolution import DELTA_FORMS

        return iter(sorted(DELTA_FORMS))

    def __contains__(self, value: object) -> bool:
        from .convolution import DELTA_FORMS

        return value in DELTA_FORMS


def _write_json(payload: object) -> None:
    """payload as indented JSON, each Fraction as a "p/q" string."""
    import json

    sys.stdout.write(json.dumps(payload, indent=2,
                                default=lambda v: f"{v.numerator}/{v.denominator}") + "\n")


def _emit(fmt: str, header: Sequence[str], rows: Sequence[tuple[object, ...]]) -> None:
    if fmt == "csv":
        # "%s" is str() of each value, and the % loop runs in C
        line = ",".join(["%s"] * len(header))
        sys.stdout.write("\n".join([",".join(header), *map(line.__mod__, rows)]) + "\n")
    else:
        _write_json([dict(zip(header, row)) for row in rows])


# a table indexed by n (index 0 unread), or a function of n
Column = Sequence[object] | Callable[[int], object]


def _table(fn: Callable[[int], object], n_max: int) -> list[object]:
    """fn(1..n_max) as a table indexed by n, evaluated from n_max down so
    each doubling library table is built once, at the size it needs."""
    table: list[object] = [None] * (n_max + 1)
    for n in range(n_max, 0, -1):
        table[n] = fn(n)
    return table


def _tabulate(fmt: str, n_max: int, columns: dict[str, Column]) -> int:
    """Print one row per n = 1..n_max with a value per column. A table
    column is read as one slice; a function column is first made a table
    by ``_table``. Two or more columns are evaluations of one quantity: a
    match column is appended and any disagreement exits EXIT_MISMATCH."""
    values = [(_table(c, n_max) if callable(c) else c)[1 : n_max + 1]
              for c in columns.values()]
    header = ["n", *columns]
    mismatch = False
    if len(values) > 1:
        match = [int(all(v == row[0] for v in row)) for row in zip(*values)]
        mismatch = not all(match)
        header.append("match")
        values.append(match)
    _emit(fmt, header, list(zip(range(1, n_max + 1), *values)))
    return EXIT_MISMATCH if mismatch else EXIT_OK


def _require_at_least(value: int, flag: str, least: int) -> int:
    if value < least:
        raise CliUsageError(f"{flag} must be >= {least}, got {value}")
    return value


def _require_size(value: int, flag: str, least: int) -> int:
    """A table size: at least ``least`` (else a usage error) and at most
    MAX_ORDER (else OutOfRange, which ``main`` reports as a domain error)."""
    if _require_at_least(value, flag, least) > MAX_ORDER:
        raise OutOfRange(f"{flag} must be <= {MAX_ORDER}, got {value}")
    return value


# -- wab ----------------------------------------------------------------


def cmd_wab(args: argparse.Namespace) -> int:
    a = _require_at_least(args.a, "--a", 1)
    b = _require_at_least(args.b, "--b", 1)
    n_max = _require_size(args.n_max, "--n-max", 1)

    columns: dict[str, Column] = {}
    if args.mode in ("formula", "both"):
        from . import convolution

        _, reduced = convolution.reduced_pair(a, b)
        if reduced not in convolution.FORMULAS:
            sys.stderr.write(
                f"no closed form for pair ({a},{b}) (reduces to {reduced})\n"
            )
            return EXIT_DOMAIN
        # tabulated before the brute table is built: its sigma sieve, to
        # n_max // gcd(a, b), then covers the table's, to n_max // min(a, b)
        columns["w_formula"] = _table(lambda n: convolution.w_reduce(a, b, n), n_max)
    if args.mode in ("brute", "both"):
        from .tables import w_table

        columns["w_brute"] = w_table(a, b, n_max)
    return _tabulate(args.format, n_max, columns)


# -- verify ---------------------------------------------------------------


def _decompose(pair: tuple[int, int], order: int, rows: int):
    """Basis and squared Eisenstein combination at the given order, and the
    target's coordinates solved from its first ``rows`` coefficients, as
    (Basis28, QSeries, CoeffVector)."""
    from .eisenstein import l_combination
    from .modforms import Basis28, decompose

    # the target reads the sigma sieve to order, the basis only below it:
    # built first, the target builds the sieve once
    target = l_combination(pair[0], pair[1], order) ** 2
    basis = Basis28.at_order(order)
    return basis, target, decompose(target, basis, rows)


def _check_decomposition(pair: tuple[int, int], order: int) -> bool:
    from .modforms import KNOWN_DECOMPOSITIONS, MIN_DECOMPOSE_ORDER, reconstruct

    basis, target, vec = _decompose(pair, order, MIN_DECOMPOSE_ORDER)
    return vec == KNOWN_DECOMPOSITIONS[pair] and reconstruct(vec, basis).equal_up_to(target, order)


@lru_cache(maxsize=1)
def _cube_root(order: int):
    """(the bracket, the level-7 form as its cube root), two QSeries,
    expanded and taken once for the three identities that read them at the
    same order. As in ``deltaforms.delta_4_7_cuberoot``, the bracket runs
    two indices past ``order`` so the root still reaches it."""
    from .deltaforms import cube_bracket

    bracket = cube_bracket(order + 2)
    return bracket, bracket.cube_root()


def _check_cube(order: int) -> bool:
    bracket, root = _cube_root(order)
    return (root ** 3).equal_up_to(bracket, order)


def _check_vs_brute(formula: Callable[[int], int], pair: tuple[int, int], order: int) -> bool:
    from .convolution import w_brute

    # largest n first, as in _tabulate, so each doubling table is built once
    return all(formula(n) == w_brute(*pair, n) for n in range(order, 0, -1))


def _identity_suite() -> list[tuple[str, int | None, Callable[[int], bool]]]:
    """(name, Sturm bound or None, check(order) -> ok). cmd_verify runs each
    check at max(order, bound or 3); 3 is the least order of the cube root."""
    from . import deltaforms, representations
    from .modforms import KNOWN_DECOMPOSITIONS, MIN_DECOMPOSE_ORDER, sturm_bound

    return [
        *((f"decomposition ({a},{b})", MIN_DECOMPOSE_ORDER,
           partial(_check_decomposition, (a, b))) for a, b in KNOWN_DECOMPOSITIONS),
        (f"cusp shift (level {representations.SHIFT_IDENTITY_LEVEL})",
         sturm_bound(representations.SHIFT_IDENTITY_LEVEL),
         lambda o: representations.verify_cusp_shift_identity(o)),
        ("cube root vs eta combination", sturm_bound(7),
         lambda o: _cube_root(o)[1] == deltaforms.delta_series("4,7", o)),
        ("cube root consistency", None, _check_cube),
        ("level-14 formula vs brute force", sturm_bound(14),
         lambda o: _check_vs_brute(deltaforms.w_1_14_royer, (1, 14), o)),
        ("level-7 formula vs brute force", sturm_bound(7),
         lambda o: _check_vs_brute(deltaforms.w_1_7_lemire, (1, 7), o)),
    ]


def cmd_verify(args: argparse.Namespace) -> int:
    order = _require_size(args.order, "--order", 1)
    results = []
    for name, bound, check in _identity_suite():
        checked = max(order, bound or 3)
        try:
            ok = check(checked)
        except _LIBRARY_ERRORS as exc:
            sys.stderr.write(f"identity raised: {name}: {type(exc).__name__}: {exc}\n")
            ok = False
        results.append({
            "identity": name,
            "ok": ok,
            "sturm_bound": bound,
            "checked_to": checked,
        })

    if args.report == "json":
        _write_json(results)
    else:
        for r in results:
            status = "ok " if r["ok"] else "FAIL"
            bound = "-" if r["sturm_bound"] is None else str(r["sturm_bound"])
            sys.stdout.write(
                f"{status} {r['identity']} (sturm bound {bound},"
                f" checked to {r['checked_to']})\n"
            )
        passed = sum(1 for r in results if r["ok"])
        sys.stdout.write(f"{passed}/{len(results)} identities verified\n")

    for r in results:
        if not r["ok"]:
            sys.stderr.write(f"identity failed: {r['identity']}\n")
            return EXIT_IDENTITY
    return EXIT_OK


# -- eta ------------------------------------------------------------------


def cmd_eta(args: argparse.Namespace) -> int:
    from .eta import EtaQuotientSpec, expand, ligozat_check

    terms = _require_size(args.terms, "--terms", 0)
    try:
        spec = EtaQuotientSpec.from_string(args.level, args.spec)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from None

    report = ligozat_check(spec)
    out = sys.stdout
    out.write(f"level={spec.level}\n")
    out.write(
        "spec=" + ",".join(f"{d}:{r}" for d, r in spec.exponents.items()) + "\n"
    )
    for name, value in report._asdict().items():
        if name == "cusp_orders":
            for d, v in value.items():
                out.write(f"cusp_order[{d}]={v}\n")
        else:
            # lower() spells the bools true/false and leaves numbers as they are
            out.write(f"{name}={str(value).lower()}\n")

    try:
        series = expand(spec, terms)
    except (FractionalExponent, NegativeValuation) as exc:
        sys.stderr.write(f"cannot expand: {exc}\n")
        return EXIT_DOMAIN
    out.write("coefficients=" + ",".join(str(c) for c in series.coeffs) + "\n")
    return EXIT_OK


# -- r7 -------------------------------------------------------------------


def cmd_r7(args: argparse.Namespace) -> int:
    n_max = _require_size(args.n_max, "--n-max", 1)
    modes = ("closed", "via-w", "enumerate") if args.mode == "all" else (args.mode,)
    columns: dict[str, Column] = {}
    for mode in modes:
        if mode == "enumerate":
            from .tables import r7_table

            columns[mode] = r7_table(n_max)
        else:
            from . import representations

            columns[mode.replace("-", "_")] = (
                representations.r7_closed if mode == "closed" else representations.r7_via_w)
    return _tabulate(args.format, n_max, columns)


# -- delta ----------------------------------------------------------------

def cmd_delta(args: argparse.Namespace) -> int:
    from .deltaforms import delta_series

    terms = _require_size(args.terms, "--terms", 1)
    series = delta_series(args.form, terms)
    return _tabulate(args.format, terms, {"coefficient": series.coeffs})


# -- decompose ------------------------------------------------------------


def cmd_decompose(args: argparse.Namespace) -> int:
    from .modforms import KNOWN_DECOMPOSITIONS, MIN_DECOMPOSE_ORDER

    try:
        a_txt, b_txt = args.pair.split(",")
        pair = (int(a_txt), int(b_txt))
    except ValueError:
        raise CliUsageError(f"--pair must look like 1,28 — got {args.pair!r}")
    if pair not in KNOWN_DECOMPOSITIONS:
        raise CliUsageError(
            f"pair {pair} not supported; choose from "
            + ", ".join(f"{p[0]},{p[1]}" for p in KNOWN_DECOMPOSITIONS)
        )
    n_max = MIN_DECOMPOSE_ORDER if args.n_max is None else args.n_max
    n_max = _require_size(n_max, "--n-max", MIN_DECOMPOSE_ORDER)

    _, _, vec = _decompose(pair, n_max, n_max)
    _write_json({
        "pair": list(pair),
        "x": {str(t): v for t, v in vec.x.items()},
        "y": list(vec.y),
    })
    return EXIT_OK


# -- parser ---------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="sigma-convolve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wab", help="tabulate the convolution sum W_{a,b}(n)")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--mode", choices=["formula", "brute", "both"], default="both")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_wab)

    p = sub.add_parser("verify", help="run the identity verification suite")
    p.add_argument("--order", type=int, default=100)
    p.add_argument("--report", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eta", help="report and expand an eta quotient")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--spec", type=str, required=True)
    p.add_argument("--terms", type=int, default=10)
    p.set_defaults(func=cmd_eta)

    p = sub.add_parser("r7", help="tabulate the eight-variable representation count")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--mode", choices=["closed", "via-w", "enumerate", "all"], default="all")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_r7)

    p = sub.add_parser("delta", help="coefficients of the named cusp form")
    # a metavar, so that add_argument does not list the choices
    p.add_argument("--form", choices=_DeltaFormNames(), metavar="FORM", required=True,
                   help="one of %(choices)s")
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("decompose", help="basis coordinates of a squared combination")
    p.add_argument("--pair", type=str, required=True)
    # None: MIN_DECOMPOSE_ORDER, read in cmd_decompose
    p.add_argument("--n-max", type=int)
    p.set_defaults(func=cmd_decompose)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliUsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OutOfRange as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
