"""End-to-end command-line tests.

Every test but one drives cli.main() in process with an argv list and
inspects the exit code plus captured stdout/stderr, so the suite exercises
the same path as the installed console script without spawning processes.
The exception runs ``python -m sigma_convolve.cli`` as a subprocess to
cover the module entry point itself.
"""

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from sigma_convolve import arith, cli, deltaforms, eta, modforms, representations
from sigma_convolve.cli import (
    EXIT_DOMAIN,
    EXIT_IDENTITY,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from sigma_convolve.deltaforms import delta_series
from sigma_convolve.modforms import KNOWN_DECOMPOSITIONS, CoeffVector
from sigma_convolve.qseries import QSeries


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- wab --------------------------------------------------------------


def test_wab_brute_csv_exact(capsys):
    code, out, err = run_cli(
        capsys, "wab", "--a", "1", "--b", "28", "--n-max", "3", "--mode", "brute"
    )
    assert code == EXIT_OK
    assert err == ""
    assert out == "n,w_brute\n1,0\n2,0\n3,0\n"


def test_wab_formula_first_hits(capsys):
    code, out, err = run_cli(
        capsys, "wab", "--a", "1", "--b", "28", "--n-max", "30", "--mode", "formula"
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "n,w_formula"
    assert len(lines) == 31
    # first nonzero terms: (l,m)=(1,1) at 29 and (2,1) at 30
    assert lines[29] == "29,1"
    assert lines[30] == "30,3"


def test_wab_csv_is_tidy(capsys):
    code, out, _ = run_cli(
        capsys, "wab", "--a", "4", "--b", "7", "--n-max", "20", "--mode", "both"
    )
    assert code == EXIT_OK
    assert out.endswith("\n") and not out.endswith("\n\n")
    assert "\r" not in out
    assert all(line == line.rstrip() for line in out.splitlines())


def test_wab_both_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "wab", "--a", "1", "--b", "7", "--n-max", "8",
        "--mode", "both", "--format", "json",
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert len(rows) == 8
    assert rows[0] == {"n": 1, "w_formula": 0, "w_brute": 0, "match": 1}
    assert rows[7] == {"n": 8, "w_formula": 1, "w_brute": 1, "match": 1}
    assert all(r["match"] == 1 for r in rows)


def test_wab_rejects_nonpositive_arguments(capsys):
    code, _, err = run_cli(capsys, "wab", "--a", "0", "--b", "7", "--n-max", "5")
    assert code == EXIT_USAGE
    assert "--a" in err

    code, _, err = run_cli(capsys, "wab", "--a", "1", "--b", "7", "--n-max", "0")
    assert code == EXIT_USAGE
    assert "--n-max" in err


def test_wab_formula_mode_needs_known_pair(capsys):
    code, out, err = run_cli(
        capsys, "wab", "--a", "3", "--b", "5", "--n-max", "10", "--mode", "formula"
    )
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "no closed form" in err


def test_wab_brute_mode_accepts_any_pair(capsys):
    code, out, _ = run_cli(
        capsys, "wab", "--a", "3", "--b", "5", "--n-max", "8", "--mode", "brute"
    )
    assert code == EXIT_OK
    assert out.splitlines()[8] == "8,1"  # 3*1+5*1


@pytest.mark.parametrize("a, b", [("99991", "99989"), ("1", "1000000000000")])
def test_wab_brute_with_dilations_past_n_max_is_all_zero(capsys, a, b):
    # one join per residue class at or below n_max, not a * b of them
    code, out, _ = run_cli(capsys, "wab", "--a", a, "--b", b, "--n-max", "10", "--mode", "brute")
    assert code == EXIT_OK
    assert out.splitlines()[1:] == [f"{n},0" for n in range(1, 11)]


def test_wab_scaled_pair_uses_reduction(capsys):
    # (2,56) reduces to (1,28); W_{2,56}(58) = W_{1,28}(29) = 1
    code, out, _ = run_cli(
        capsys, "wab", "--a", "2", "--b", "56", "--n-max", "58", "--mode", "both"
    )
    assert code == EXIT_OK
    assert out.splitlines()[58] == "58,1,1,1"


def test_wab_mismatch_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(
        cli.convolution, "w_reduce", lambda a, b, n: 999
    )
    code, out, _ = run_cli(
        capsys, "wab", "--a", "1", "--b", "28", "--n-max", "2", "--mode", "both"
    )
    assert code == EXIT_MISMATCH
    assert out.splitlines()[1] == "1,999,0,0"


def test_tabulate_evaluates_from_the_largest_n_and_prints_ascending(capsys):
    seen = []

    def square(n):
        seen.append(n)
        return n * n

    code = cli._tabulate("csv", 4, {"a": square, "b": lambda n: 0 if n == 2 else n * n})
    assert code == EXIT_MISMATCH
    assert seen == [4, 3, 2, 1]
    assert capsys.readouterr().out == "n,a,b,match\n1,1,1,1\n2,4,0,0\n3,9,9,1\n4,16,16,1\n"


# -- verify -----------------------------------------------------------


def test_verify_default_passes(capsys):
    code, out, err = run_cli(capsys, "verify")
    assert code == EXIT_OK
    assert err == ""
    assert "10/10 identities verified" in out
    assert "FAIL" not in out
    assert out.count("ok ") == 10


def test_verify_low_order_is_raised_to_minimums(capsys):
    code, out, _ = run_cli(capsys, "verify", "--order", "16")
    assert code == EXIT_OK
    # the dilation-shift identity needs 32 terms regardless of the flag
    assert "cusp shift (level 56) (sturm bound 32, checked to 32)" in out


def test_verify_json_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "--order", "16", "--report", "json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert len(report) == 10
    assert all(r["ok"] is True for r in report)
    by_name = {r["identity"]: r for r in report}
    assert by_name["decomposition (1,28)"]["sturm_bound"] == 16
    assert by_name["cusp shift (level 56)"]["sturm_bound"] == 32
    assert by_name["cube root consistency"]["sturm_bound"] is None
    assert by_name["level-14 formula vs brute force"]["sturm_bound"] == 8
    assert by_name["level-7 formula vs brute force"]["sturm_bound"] == 3
    for r in report:
        if r["sturm_bound"] is not None:
            assert r["checked_to"] >= r["sturm_bound"]


@functools.cache
def _verify_report(order):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--order", str(order), "--report", "json"]) == EXIT_OK
    return {r["identity"]: r for r in json.loads(out.getvalue())}


@pytest.mark.parametrize("order", [1, 40])
@pytest.mark.parametrize("name, bound", [
    ("decomposition (1,28)", 16),
    ("decomposition (4,7)", 16),
    ("decomposition (1,14)", 16),
    ("decomposition (2,7)", 16),
    ("decomposition (1,7)", 16),
    ("cusp shift (level 56)", 32),
    ("cube root vs eta combination", 3),
    ("cube root consistency", None),
    ("level-14 formula vs brute force", 8),
    ("level-7 formula vs brute force", 3),
])
def test_verify_checks_each_identity_at_order_raised_to_its_bound(name, bound, order):
    # one rule for every identity: the requested order, raised to the Sturm
    # bound, or to 3 (the cube root's least order) where there is none
    r = _verify_report(order)[name]
    assert r["ok"] is True
    assert r["sturm_bound"] == bound
    assert r["checked_to"] == max(order, bound or 3)


def test_verify_reports_broken_identity(capsys, monkeypatch):
    real = KNOWN_DECOMPOSITIONS[(1, 28)]
    fake = CoeffVector(dict(real.x), (real.y[0] + 1,) + real.y[1:])
    monkeypatch.setitem(modforms.KNOWN_DECOMPOSITIONS, (1, 28), fake)
    code, out, err = run_cli(capsys, "verify", "--order", "16")
    assert code == EXIT_IDENTITY
    assert "FAIL decomposition (1,28)" in out
    assert "9/10 identities verified" in out
    assert "identity failed: decomposition (1,28)" in err


def test_verify_reports_a_non_integral_identity_as_failed(capsys, monkeypatch):
    # a slipped coefficient leaves the cusp shift expression non-integral;
    # the identity fails like any other, without an exception
    coeffs = dict(representations.SHIFT_IDENTITY_COEFFS)
    coeffs[3] += Fraction(1, 1000)
    monkeypatch.setattr(representations, "SHIFT_IDENTITY_COEFFS", coeffs)
    code, out, err = run_cli(capsys, "verify", "--order", "32")
    assert code == EXIT_IDENTITY
    assert "FAIL cusp shift (level 56)" in out
    assert "9/10 identities verified" in out
    assert "Traceback" not in out + err


def test_verify_takes_one_cube_root(capsys, monkeypatch):
    # "cube root vs eta combination" and "cube root consistency" read one root
    roots = []
    cube_root = QSeries.cube_root

    def counting_cube_root(series):
        roots.append(series.order)
        return cube_root(series)

    monkeypatch.setattr(QSeries, "cube_root", counting_cube_root)
    cli._cube_root.cache_clear()
    code, out, _ = run_cli(capsys, "verify", "--order", "100")
    assert code == EXIT_OK and "10/10 identities verified" in out
    assert roots == [102]


def test_verify_builds_the_cube_bracket_once(capsys, monkeypatch):
    # the cube root and the consistency check read one bracket, two
    # indices past the order; each of its eta products is expanded once
    brackets, products = [], []
    cube_bracket, expand = deltaforms.cube_bracket, deltaforms.expand

    def counting_cube_bracket(order):
        brackets.append(order)
        return cube_bracket(order)

    def counting_expand(spec, order):
        products.append((spec, order))
        return expand(spec, order)

    monkeypatch.setattr(deltaforms, "cube_bracket", counting_cube_bracket)
    monkeypatch.setattr(deltaforms, "expand", counting_expand)
    cli._cube_root.cache_clear()
    code, out, _ = run_cli(capsys, "verify", "--order", "100")
    cli._cube_root.cache_clear()
    assert code == EXIT_OK and "10/10 identities verified" in out
    assert brackets == [102]
    assert products == [(eta.EtaQuotientSpec(deltaforms.CUBE_BRACKET_LEVEL, exps), 102)
                        for _, exps in deltaforms.CUBE_BRACKET_TERMS]


def test_verify_rejects_nonpositive_order(capsys):
    code, _, err = run_cli(capsys, "verify", "--order", "0")
    assert code == EXIT_USAGE
    assert "--order" in err


# -- eta --------------------------------------------------------------


def test_eta_report_for_cusp_generator(capsys):
    code, out, err = run_cli(
        capsys,
        "eta", "--level", "28", "--spec", "1:5,2:-1,7:5,14:-1", "--terms", "5",
    )
    assert code == EXIT_OK
    assert err == ""
    lines = out.splitlines()
    assert "level=28" in lines
    assert "spec=1:5,2:-1,7:5,14:-1" in lines
    assert "weight_k=4" in lines
    assert "s_value=2401/4" in lines
    assert "cond_v=true" in lines
    assert "is_modular=true" in lines
    assert "is_cusp=true" in lines
    assert any(line.startswith("cusp_order[28]=") for line in lines)
    assert lines[-1] == "coefficients=0,1,-5,6,5,-8"


def test_eta_fractional_power_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "eta", "--level", "28", "--spec", "1:1")
    assert code == EXIT_DOMAIN
    assert "cannot expand" in err
    # the structural report is still printed before expansion fails
    assert "weight_k=1/2" in out


def test_eta_bad_q_power_fails_before_expanding(capsys):
    # the q-power is checked first, so the largest --terms costs nothing
    start = time.monotonic()
    code, out, err = run_cli(
        capsys, "eta", "--level", "28", "--spec", "1:5", "--terms", str(arith.MAX_ORDER)
    )
    assert time.monotonic() - start < 5
    assert code == EXIT_DOMAIN
    assert "cannot expand" in err
    assert "weight_k=5/2" in out and "cond_i=false" in out
    assert "coefficients=" not in out


def test_eta_rejects_bad_divisor(capsys):
    code, _, err = run_cli(capsys, "eta", "--level", "28", "--spec", "3:1")
    assert code == EXIT_USAGE
    assert err.startswith("error:")


def test_eta_rejects_malformed_spec(capsys):
    for spec in ("1:", "1:1,1:2", "banana", ""):
        code, _, err = run_cli(capsys, "eta", "--level", "28", "--spec", spec)
        assert code == EXIT_USAGE, spec
        assert err.startswith("error:"), spec


def test_eta_rejects_negative_terms(capsys):
    code, _, err = run_cli(
        capsys, "eta", "--level", "28", "--spec", "1:5,2:-1,7:5,14:-1",
        "--terms", "-1",
    )
    assert code == EXIT_USAGE
    assert "--terms" in err


# -- shared cusp table -------------------------------------------------


@pytest.mark.parametrize("argv, order, generators", [
    (("wab", "--a", "2", "--b", "14", "--n-max", "300", "--mode", "formula"), 150, {1, 2}),
    (("r7", "--n-max", "200", "--mode", "all"), 200, set(range(1, 10))),
    (("verify", "--order", "100"), 100, set(range(1, 10))),
])
def test_cli_builds_the_cusp_table_once(capsys, fresh_cusp_store, argv, order, generators):
    # each command reads its largest n first, so the store grows once; grown
    # row by row it would expand every generator it reads again at each doubling
    code, _, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    reads = sorted((j, n) for j, n in fresh_cusp_store if isinstance(j, int))
    assert reads == [(j, order) for j in sorted(generators)]


@pytest.fixture
def grown_sizes(monkeypatch, fresh_cusp_store) -> list:
    """Empty sigma tables and cusp store, and each ``grown_size`` call as
    (have, need). Every sigma table and the store grow by it, so a table
    read at its largest index first makes one call, from empty (have <= 0)."""
    monkeypatch.setattr(arith, "_sigma_tables", {})
    sizes = []
    grown_size = arith.grown_size

    def recording_grown_size(have, need):
        sizes.append((have, need))
        return grown_size(have, need)

    monkeypatch.setattr(eta, "grown_size", recording_grown_size)
    monkeypatch.setattr(arith, "grown_size", recording_grown_size)
    return sizes


@pytest.mark.parametrize("argv, builds", [
    (("wab", "--a", "3", "--b", "11", "--n-max", "5000", "--mode", "brute"), 1),
    (("wab", "--a", "1", "--b", "28", "--n-max", "1000", "--mode", "both"), 3),
    (("wab", "--a", "2", "--b", "56", "--n-max", "1500", "--mode", "formula"), 3),
    (("r7", "--n-max", "700", "--mode", "all"), 3),
    # the sieve's top index varies with n mod a; its bound on l does not
    (("wab", "--a", "4", "--b", "7", "--n-max", "5422", "--mode", "brute"), 1),
    # the formula column reads the sigma sieve to 3000 before the brute
    # table, which needs only 3000 // 4, so the sieve is built once
    (("wab", "--a", "4", "--b", "7", "--n-max", "3000", "--mode", "both"), 3),
    # sigma_1 to order for the target, then below it for the basis
    (("verify", "--order", "600", "--report", "json"), 3),
    (("decompose", "--pair", "1,28", "--n-max", "300"), 3),
])
def test_cli_builds_each_table_once(capsys, grown_sizes, argv, builds):
    code, _, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert len(grown_sizes) == builds and all(have <= 0 for have, _ in grown_sizes), grown_sizes


def test_formula_vs_brute_check_builds_each_table_once(grown_sizes):
    assert cli._check_vs_brute(deltaforms.w_1_7_lemire, (1, 7), 500)
    assert len(grown_sizes) == 3 and all(have <= 0 for have, _ in grown_sizes), grown_sizes


@pytest.mark.parametrize("argv, expanded", [
    (("wab", "--a", "1", "--b", "7", "--n-max", "200", "--mode", "formula"), {1, 2}),
    (("wab", "--a", "2", "--b", "7", "--n-max", "200", "--mode", "formula"), {2, 3, 4}),
    (("r7", "--n-max", "200", "--mode", "closed"), set(range(1, 10))),
])
def test_cli_expands_only_the_generators_its_table_reads(capsys, fresh_cusp_store, argv,
                                                          expanded):
    code, _, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert set(eta._cusp_cache) == expanded


@pytest.mark.parametrize("argv, point_oracle", [
    (("wab", "--a", "3", "--b", "8", "--n-max", "300", "--mode", "brute"), "w_brute"),
    (("wab", "--a", "1", "--b", "7", "--n-max", "300", "--mode", "both"), "w_brute"),
    (("r7", "--n-max", "300", "--mode", "enumerate"), "r7_enumerate"),
])
def test_oracle_columns_read_whole_tables(capsys, monkeypatch, fresh_cusp_store, argv,
                                          point_oracle):
    module = cli.convolution if point_oracle == "w_brute" else cli.representations

    def no_point_oracle(*args):
        raise AssertionError(f"{point_oracle}{args} called")

    monkeypatch.setattr(module, point_oracle, no_point_oracle)
    code, _, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    # the table oracles never expand an eta quotient; --mode both still
    # reads the closed form's two generators
    expanded = {j for j, _ in fresh_cusp_store}
    assert expanded == ({1, 2} if "both" in argv else set())


# -- r7 ---------------------------------------------------------------


def test_r7_all_modes_agree(capsys):
    code, out, _ = run_cli(capsys, "r7", "--n-max", "10")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "n,closed,via_w,enumerate,match"
    assert lines[1] == "1,8,8,8,1"
    assert lines[7] == "7,72,72,72,1"
    assert lines[8] == "8,88,88,88,1"
    assert all(line.endswith(",1") for line in lines[1:])


def test_r7_single_mode_headers(capsys):
    code, out, _ = run_cli(capsys, "r7", "--n-max", "3", "--mode", "closed")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "n,closed"

    code, out, _ = run_cli(capsys, "r7", "--n-max", "3", "--mode", "via-w")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "n,via_w"

    code, out, _ = run_cli(capsys, "r7", "--n-max", "3", "--mode", "enumerate")
    assert code == EXIT_OK
    assert out.splitlines() == ["n,enumerate", "1,8", "2,24", "3,32"]


def test_r7_json_rows(capsys):
    code, out, _ = run_cli(
        capsys, "r7", "--n-max", "2", "--format", "json"
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert rows[0] == {"n": 1, "closed": 8, "via_w": 8, "enumerate": 8, "match": 1}


def test_r7_mismatch_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(
        cli.representations, "r7_closed", lambda n: -1
    )
    code, out, _ = run_cli(capsys, "r7", "--n-max", "2")
    assert code == EXIT_MISMATCH
    assert out.splitlines()[1].endswith(",0")


def test_r7_rejects_nonpositive_n_max(capsys):
    code, _, err = run_cli(capsys, "r7", "--n-max", "0")
    assert code == EXIT_USAGE
    assert "--n-max" in err


# -- delta ------------------------------------------------------------


def test_delta_4_7_matches_library(capsys):
    code, out, _ = run_cli(capsys, "delta", "--form", "4,7", "--terms", "6")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "n,coefficient"
    assert lines[1] == "1,1"
    assert lines[2] == "2,-1"
    series = delta_series("4,7", 6)
    for n in range(1, 7):
        assert lines[n] == f"{n},{series.coefficient(n)}"


def test_delta_4_14_leading_terms(capsys):
    for form in ("4,14,1", "4,14,2"):
        code, out, _ = run_cli(capsys, "delta", "--form", form, "--terms", "1")
        assert code == EXIT_OK
        assert out.splitlines() == ["n,coefficient", "1,1"]


def test_delta_json(capsys):
    code, out, _ = run_cli(
        capsys, "delta", "--form", "4,7", "--terms", "3", "--format", "json"
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert rows[0] == {"n": 1, "coefficient": 1}
    assert all(isinstance(r["coefficient"], int) for r in rows)


def test_delta_rejects_unknown_form(capsys):
    code, _, err = run_cli(capsys, "delta", "--form", "5,7", "--terms", "3")
    assert code == EXIT_USAGE
    assert err.startswith("error:")


# -- decompose ----------------------------------------------------------


def test_decompose_known_pair(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--pair", "1,7")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pair"] == [1, 7]
    assert list(payload["x"]) == ["1", "2", "4", "7", "14", "28"]
    assert payload["x"]["1"] == "18/25"
    assert payload["x"]["7"] == "882/25"
    assert payload["x"]["2"] == 0
    assert payload["y"][0] == "576/5"
    assert payload["y"][1] == "2304/5"
    assert payload["y"][2:] == [0] * 7


def test_decompose_matches_published_table(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--pair", "1,28", "--n-max", "20")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["x"]["1"] == "118/125"
    assert payload["x"]["28"] == "92512/125"
    assert payload["y"][2] == 252


def test_decompose_rejects_bad_input(capsys):
    for argv in (
        ["decompose", "--pair", "3,5"],
        ["decompose", "--pair", "eggs"],
        ["decompose", "--pair", "1,7", "--n-max", "10"],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert err.startswith("error:"), argv


# -- parser shell -------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("wab", "--a", "3", "--b", "8", "--n-max", "200", "--mode", "brute"),
    ("r7", "--n-max", "100", "--mode", "enumerate"),
])
def test_module_entry_point_matches_main(capsys, argv):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "sigma_convolve.cli", *argv],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert proc.stdout == out.encode()


PAST_MAX = str(arith.MAX_ORDER + 1)


@pytest.mark.parametrize("argv, flag", [
    (("wab", "--a", "1", "--b", "28", "--n-max", "100000000", "--mode", "brute"), "--n-max"),
    (("eta", "--level", "28", "--spec", "1:2,2:2,7:2,14:2", "--terms", "100000000"), "--terms"),
    (("r7", "--n-max", "100000000", "--mode", "enumerate"), "--n-max"),
    (("verify", "--order", PAST_MAX), "--order"),
    (("delta", "--form", "4,7", "--terms", PAST_MAX), "--terms"),
    (("decompose", "--pair", "1,7", "--n-max", PAST_MAX), "--n-max"),
])
def test_sizes_past_max_order_are_domain_errors(capsys, argv, flag):
    start = time.process_time()
    code, out, err = run_cli(capsys, *argv)
    assert time.process_time() - start < 0.5
    assert code == EXIT_DOMAIN
    assert out == ""
    value = argv[argv.index(flag) + 1]
    assert err == f"error: {flag} must be <= {arith.MAX_ORDER}, got {value}\n"


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == EXIT_USAGE
    assert err.startswith("error:")


def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == EXIT_USAGE
    assert err.startswith("error:")
