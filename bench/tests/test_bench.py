"""Tests of the benchmark itself: seeded inputs, the answer checker, the
tracer, and a tiny-size pass of every workload through bench/run.py."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from oracle import Mismatch, Oracle  # noqa: E402

from sigma_convolve import cli  # noqa: E402


def cli_stdout(capsys, argv: list[str]) -> bytes:
    assert cli.main(argv) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generation_is_deterministic_per_seed(workload):
    first = workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) == first
    assert workloads.inputs_digest(workloads.generate(workload, 7)) == \
        workloads.inputs_digest(first)
    assert workloads.generate(workload, 8) != first


def test_brute_pools_offer_pairs_with_and_without_closed_forms():
    assert len(workloads.BRUTE_CLOSED_POOL) >= 2
    assert len(workloads.BRUTE_OTHER_POOL) >= 2
    lo, hi = workloads.BRUTE_N_RANGE
    for a, b in workloads.BRUTE_CLOSED_POOL + workloads.BRUTE_OTHER_POOL:
        assert lo <= workloads.brute_n_max(a, b) <= hi


def test_checker_accepts_true_tables_and_rejects_a_corrupted_row(capsys):
    oracle = Oracle()
    for argv in (["wab", "--a", "2", "--b", "14", "--n-max", "60", "--mode", "formula"],
                 ["wab", "--a", "3", "--b", "5", "--n-max", "60", "--mode", "brute"],
                 ["r7", "--n-max", "40", "--mode", "closed"],
                 ["delta", "--form", "4,14,2", "--terms", "40"]):
        good = cli_stdout(capsys, argv)
        lines = good.decode().splitlines()
        assert oracle.check_step(argv, good) == len(lines) - 1
        n, value = lines[17].split(",")
        lines[17] = f"{n},{int(value) + 1}"
        with pytest.raises(Mismatch):
            oracle.check_step(argv, ("\n".join(lines) + "\n").encode())


def test_corrupted_step_counts_as_failed(capsys):
    argv = ["wab", "--a", "1", "--b", "7", "--n-max", "30", "--mode", "formula"]
    good = cli_stdout(capsys, argv)
    bad = good.replace(b"\n30,", b"\n30,1")
    checker = run.Checker()
    for out, expect_error in ((good, False), (bad, True)):
        rec = {"code": 0, "stdout": out, "stderr": b"", "sha256": hashlib.sha256(out).hexdigest()}
        rows, error = checker.cli_step(argv, rec)
        assert bool(error) == expect_error
        assert rows == (0 if expect_error else 30)
    crashed = {"code": 1, "stdout": b"", "stderr": b"boom", "sha256": ""}
    assert checker.cli_step(argv, crashed)[1]


def test_checker_verifies_decompose_verify_and_eta(capsys):
    oracle = Oracle()
    argv = ["decompose", "--pair", "4,7", "--n-max", "40"]
    assert oracle.check_step(argv, cli_stdout(capsys, argv)) == 15
    argv = ["verify", "--order", "40", "--report", "json"]
    good = cli_stdout(capsys, argv)
    assert oracle.check_step(argv, good) == 10
    with pytest.raises(Mismatch):
        oracle.check_step(argv, good.replace(b'"ok": true', b'"ok": false', 1))
    argv = ["eta", "--level", "7", "--spec", "1:12,7:12", "--terms", "50"]
    good = cli_stdout(capsys, argv)
    assert oracle.check_step(argv, good) == 51
    with pytest.raises(Mismatch):
        oracle.check_step(argv, good.replace(b"coefficients=0,", b"coefficients=1,"))


def test_query_oracle_matches_library():
    from sigma_convolve import r7_closed, w_1_7_lemire, w_1_14_royer, w_reduce

    oracle = Oracle()
    library = {"w_reduce": w_reduce, "w_1_7_lemire": w_1_7_lemire,
               "w_1_14_royer": w_1_14_royer, "r7_closed": r7_closed}
    stream = workloads.point_queries(3, scale=0.05)
    n_cap = max(q[-1] for q in stream)
    for kind, *args in stream:
        assert oracle.query_answer([kind, *args], n_cap) == library[kind](*args)


@pytest.mark.parametrize("argv", [
    ["wab", "--a", "2", "--b", "14", "--n-max", "80", "--mode", "formula"],
    ["decompose", "--pair", "1,28", "--n-max", "30"],
    ["verify", "--order", "40", "--report", "json"],
])
def test_traced_step_stdout_is_byte_identical(argv, tmp_path):
    deadline = time.perf_counter() + 120
    untraced = run.spawn(run.cli_command(argv, None, "0"), deadline)
    trace_file = tmp_path / "trace.json"
    traced = run.spawn(run.cli_command(argv, trace_file, "0"), deadline)
    assert untraced["code"] == traced["code"] == 0
    assert traced["stdout"] == untraced["stdout"]
    record = json.loads(trace_file.read_text())
    assert record["spans"] and all(span[0] == "0" for span in record["spans"])
    assert record["stats"]


def test_manifest_matches_benchmark_json():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == run.manifest()


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_tiny_traced_run_is_correct_and_reports_its_claim(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1", "--scale", "0.15"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    assert set(summary["metrics"]) == {name for name, *_ in run.PER_LAYER}
    # eta.share >= 0.5 needs full-size tables to outweigh interpreter start-up;
    # the other claims are counts and hold at any size
    verdict = "claim " if workload == "tables_formula" else "claim holds:"
    assert any(line.startswith(verdict) for line in lines), proc.stdout


def test_untraced_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "verify_suite", "--seed", "2",
         "--seconds", "0", "--trace", "0", "--scale", "0.1"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"]
    assert set(summary["metrics"]) == {name for name, *_ in run.END_TO_END}
    assert all(m["value"] > 0 for m in summary["metrics"].values())


def test_run_without_package_sources_fails_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "point_queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
