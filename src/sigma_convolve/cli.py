"""Command-line interface.

Subcommands: wab (convolution tables), verify (identity suite), eta
(quotient report and expansion), r7 (representation counts), delta (cusp
form coefficients), decompose (basis coordinates as JSON).

Exit codes: 0 success, 1 usage error, 2 table mismatch, 3 identity
failure, 4 domain error (for example a fractional q-power). The
SIGMA_CONVOLVE_ORDER environment variable overrides the default
truncation order of verify and decompose when their flags are absent.
All arithmetic lives in the library modules; this file only parses flags
and renders rows.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from math import gcd
from typing import Callable, Sequence

from . import convolution, deltaforms, representations
from .errors import FractionalExponent, NegativeValuation
from .eisenstein import l_combination
from .eta import CuspTable, EtaQuotientSpec, expand, ligozat_check
from .modforms import (
    KNOWN_DECOMPOSITIONS,
    Basis28,
    decompose,
    reconstruct,
    sturm_bound,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_IDENTITY = 3
EXIT_DOMAIN = 4

ORDER_ENV_VAR = "SIGMA_CONVOLVE_ORDER"


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports flag problems as exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliUsageError(message)


def _env_default(fallback: int) -> int:
    raw = os.environ.get(ORDER_ENV_VAR)
    if raw is None:
        return fallback
    try:
        value = int(raw)
    except ValueError:
        raise CliUsageError(f"{ORDER_ENV_VAR} must be an integer, got {raw!r}")
    if value < 1:
        raise CliUsageError(f"{ORDER_ENV_VAR} must be >= 1, got {value}")
    return value


def _json_scalar(v: object) -> object:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return v


def _emit_csv(header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    sys.stdout.write("\n".join(lines) + "\n")


def _emit_json(header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    payload = [
        {key: _json_scalar(v) for key, v in zip(header, row)} for row in rows
    ]
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _emit(fmt: str, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    if fmt == "csv":
        _emit_csv(header, rows)
    else:
        _emit_json(header, rows)


def _require_positive(value: int, flag: str) -> int:
    if value < 1:
        raise CliUsageError(f"{flag} must be >= 1, got {value}")
    return value


# -- wab ----------------------------------------------------------------


def cmd_wab(args: argparse.Namespace) -> int:
    a = _require_positive(args.a, "--a")
    b = _require_positive(args.b, "--b")
    n_max = _require_positive(args.n_max, "--n-max")

    g = gcd(a, b)
    reduced = tuple(sorted((a // g, b // g)))
    if args.mode in ("formula", "both") and reduced not in convolution.FORMULAS:
        sys.stderr.write(
            f"no closed form for pair ({a},{b}) (reduces to {reduced})\n"
        )
        return EXIT_DOMAIN

    table = None
    if args.mode in ("formula", "both"):
        table = CuspTable(max(1, n_max // g))

    rows: list[list[object]] = []
    mismatch = False
    for n in range(1, n_max + 1):
        row: list[object] = [n]
        if args.mode in ("formula", "both"):
            row.append(convolution.w_reduce(a, b, n, table))
        if args.mode in ("brute", "both"):
            row.append(convolution.w_brute(a, b, n))
        if args.mode == "both":
            ok = row[1] == row[2]
            mismatch = mismatch or not ok
            row.append(int(ok))
        rows.append(row)

    header = {
        "formula": ["n", "w_formula"],
        "brute": ["n", "w_brute"],
        "both": ["n", "w_formula", "w_brute", "match"],
    }[args.mode]
    _emit(args.format, header, rows)
    return EXIT_MISMATCH if mismatch else EXIT_OK


# -- verify ---------------------------------------------------------------


def _check_decomposition(pair: tuple[int, int], order: int) -> tuple[bool, int]:
    eff = max(order, 16)
    basis = Basis28.at_order(eff)
    target = l_combination(pair[0], pair[1], eff) ** 2
    vec = decompose(target, basis, 16)
    ok = vec == KNOWN_DECOMPOSITIONS[pair]
    ok = ok and reconstruct(vec, basis).equal_up_to(target, eff)
    return ok, eff

def _check_shift(order: int) -> tuple[bool, int]:
    eff = max(order, 32)
    return representations.verify_cusp_shift_identity(eff), eff

def _check_root_vs_eta(order: int) -> tuple[bool, int]:
    eff = max(order, 3)
    lhs = deltaforms.delta_4_7_cuberoot(eff)
    return lhs == deltaforms.delta_4_7_eta(eff), eff

def _check_cube(order: int) -> tuple[bool, int]:
    eff = max(order, 3)
    bracket = deltaforms.cube_bracket(eff + 2)
    root = bracket.cube_root(3)
    return (root ** 3).equal_up_to(bracket.truncate(eff), eff), eff

def _check_royer(order: int) -> tuple[bool, int]:
    eff = max(order, 8)
    table = CuspTable(eff)
    ok = all(
        deltaforms.w_1_14_royer(n, table) == convolution.w_brute(1, 14, n)
        for n in range(1, eff + 1)
    )
    return ok, eff

def _check_lemire(order: int) -> tuple[bool, int]:
    eff = max(order, 3)
    table = CuspTable(eff)
    ok = all(
        deltaforms.w_1_7_lemire(n, table) == convolution.w_brute(1, 7, n)
        for n in range(1, eff + 1)
    )
    return ok, eff


# (name, Sturm bound or None, checker(order) -> (ok, checked_to))
_IDENTITY_SUITE: list[tuple[str, int | None, Callable[[int], tuple[bool, int]]]] = [
    ("decomposition (1,28)", sturm_bound(28), lambda o: _check_decomposition((1, 28), o)),
    ("decomposition (4,7)", sturm_bound(28), lambda o: _check_decomposition((4, 7), o)),
    ("decomposition (1,14)", sturm_bound(28), lambda o: _check_decomposition((1, 14), o)),
    ("decomposition (2,7)", sturm_bound(28), lambda o: _check_decomposition((2, 7), o)),
    ("decomposition (1,7)", sturm_bound(28), lambda o: _check_decomposition((1, 7), o)),
    ("cusp shift (level 56)", sturm_bound(56), _check_shift),
    ("cube root vs eta combination", sturm_bound(7), _check_root_vs_eta),
    ("cube root consistency", None, _check_cube),
    ("level-14 formula vs brute force", sturm_bound(14), _check_royer),
    ("level-7 formula vs brute force", sturm_bound(7), _check_lemire),
]


def cmd_verify(args: argparse.Namespace) -> int:
    order = _require_positive(args.order, "--order")
    results = []
    for name, bound, check in _IDENTITY_SUITE:
        ok, checked = check(order)
        results.append({
            "identity": name,
            "ok": ok,
            "sturm_bound": bound,
            "checked_to": checked,
        })

    if args.report == "json":
        sys.stdout.write(json.dumps(results, indent=2) + "\n")
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
    terms = args.terms
    if terms < 0:
        raise CliUsageError(f"--terms must be >= 0, got {terms}")
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
    out.write(f"weight_k={report.weight_k}\n")
    out.write(f"s_value={report.s_value}\n")
    for d, v in report.cusp_orders.items():
        out.write(f"cusp_order[{d}]={v}\n")
    for name in ("cond_i", "cond_ii", "cond_iii", "cond_iii_strict", "cond_iv", "cond_v"):
        out.write(f"{name}={str(getattr(report, name)).lower()}\n")
    out.write(f"is_modular={str(report.is_modular).lower()}\n")
    out.write(f"is_cusp={str(report.is_cusp).lower()}\n")

    try:
        series = expand(spec, terms)
    except (FractionalExponent, NegativeValuation) as exc:
        sys.stderr.write(f"cannot expand: {exc}\n")
        return EXIT_DOMAIN
    out.write("coefficients=" + ",".join(str(c) for c in series.coeffs) + "\n")
    return EXIT_OK


# -- r7 -------------------------------------------------------------------


def cmd_r7(args: argparse.Namespace) -> int:
    n_max = _require_positive(args.n_max, "--n-max")
    modes = ("closed", "via-w", "enumerate") if args.mode == "all" else (args.mode,)
    table = CuspTable(n_max) if {"closed", "via-w"} & set(modes) else None

    evaluators = {
        "closed": lambda n: representations.r7_closed(n, table),
        "via-w": lambda n: representations.r7_via_w(n, table),
        "enumerate": representations.r7_enumerate,
    }
    rows: list[list[object]] = []
    mismatch = False
    for n in range(1, n_max + 1):
        values = [evaluators[m](n) for m in modes]
        row: list[object] = [n, *values]
        if args.mode == "all":
            ok = len(set(values)) == 1
            mismatch = mismatch or not ok
            row.append(int(ok))
        rows.append(row)

    header = ["n"] + [m.replace("-", "_") for m in modes]
    if args.mode == "all":
        header.append("match")
    _emit(args.format, header, rows)
    return EXIT_MISMATCH if mismatch else EXIT_OK


# -- delta ----------------------------------------------------------------

def cmd_delta(args: argparse.Namespace) -> int:
    terms = _require_positive(args.terms, "--terms")
    series = deltaforms.delta_series(args.form, terms)
    rows = [[n, series.coefficient(n)] for n in range(1, terms + 1)]
    _emit(args.format, ["n", "coefficient"], rows)
    return EXIT_OK


# -- decompose ------------------------------------------------------------


def cmd_decompose(args: argparse.Namespace) -> int:
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
    n_max = args.n_max
    if n_max < 16:
        raise CliUsageError(f"--n-max must be >= 16, got {n_max}")

    basis = Basis28.at_order(n_max)
    target = l_combination(pair[0], pair[1], n_max) ** 2
    vec = decompose(target, basis, n_max)
    payload = {
        "pair": list(pair),
        "x": {str(t): _json_scalar(v) for t, v in vec.x.items()},
        "y": [_json_scalar(v) for v in vec.y],
    }
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
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
    p.add_argument("--order", type=int, default=None)
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
    p.add_argument("--form", choices=sorted(deltaforms.DELTA_FORMS), required=True)
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("decompose", help="basis coordinates of a squared combination")
    p.add_argument("--pair", type=str, required=True)
    p.add_argument("--n-max", type=int, default=None)
    p.set_defaults(func=cmd_decompose)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify" and args.order is None:
            args.order = _env_default(100)
        if args.command == "decompose" and args.n_max is None:
            args.n_max = max(16, _env_default(16))
        return args.func(args)
    except CliUsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
