#!/usr/bin/env python3
"""Benchmark of the sigma-convolve CLI and library, driven from outside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]
    python3 bench/run.py --write-manifest

Run from anywhere; the package is imported from ``src/`` next to this
directory, and every step runs in a fresh process, one at a time. A run
generates its inputs from the seed, measures tables of passes over them
for about ``--seconds`` seconds, checks every answer (outside the timed
region; each distinct output is checked once and then matched by sha256)
and prints one line per metric followed by a JSON summary as the last
line. Times are CPU times (user + system) of the benchmark's own child
processes, so that other load on a shared host, which stretches wall time
but not the CPU time a step needs, does not move them; wall times are
printed beside them. ``--trace 1`` makes one untraced pass and then traced
passes, and reports the per-layer metrics instead of the end-to-end ones. Scratch
files (traces, query streams, result records) go to ``.bench_work/``.
See bench/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path[:0] = [str(HERE), str(SRC)]  # the oracle reads the package's published tables

import workloads  # noqa: E402
from oracle import Mismatch, Oracle  # noqa: E402

RUN_SECONDS = 30
SETUP_SAMPLES = 15  # fresh-import timings per run, spread over its passes
RUN_DEADLINE_S = 170.0  # a run must end within 180 s; steps past this are killed

# name, unit, better, bound (allowed relative regression of the median)
END_TO_END = (
    ("pass_cpu_s", "s", "lower", 0.2),
    ("rows_per_cpu_s", "1/s", "higher", 0.2),
    ("query_cpu_p50_us", "us", "lower", 0.25),
    ("query_cpu_p99_us", "us", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
)

PER_LAYER = (
    ("eta.expand.calls", "count", "lower"),
    ("eta.expand.self_s", "s", "lower"),
    ("eta.cusp_table.build_s", "s", "lower"),
    ("eta.c_series.hit_ratio", "ratio", "higher"),
    ("eta.share", "ratio", "lower"),
    ("qseries.mul.calls", "count", "lower"),
    ("qseries.mul.self_s", "s", "lower"),
    ("qseries.mul.term_products", "count", "lower"),
    ("qseries.pow.self_s", "s", "lower"),
    ("qseries.inverse.self_s", "s", "lower"),
    ("qseries.inverse.max_coeff_bits", "bits", "lower"),
    ("qseries.cube_root.self_s", "s", "lower"),
    ("arith.sigma.calls", "count", "lower"),
    ("arith.sigma.hit_ratio", "ratio", "higher"),
    ("arith.sigma.cache_entries", "count", "lower"),
    ("arith.sigma.self_s", "s", "lower"),
    ("convolution.w_formula.calls", "count", "lower"),
    ("convolution.w_formula.self_s", "s", "lower"),
    ("convolution.w_brute.self_s", "s", "lower"),
    ("convolution.shared_table.grows", "count", "lower"),
    ("convolution.shared_table.overshoot", "ratio", "lower"),
    ("deltaforms.cube_bracket.self_s", "s", "lower"),
    ("deltaforms.cuberoot.self_s", "s", "lower"),
    ("deltaforms.shared_cache.grows", "count", "lower"),
    ("deltaforms.shared_cache.overshoot", "ratio", "lower"),
    ("modforms.basis.self_s", "s", "lower"),
    ("modforms.decompose.self_s", "s", "lower"),
    ("modforms.reconstruct.self_s", "s", "lower"),
    ("eisenstein.l_combination.self_s", "s", "lower"),
    ("representations.r4_enumerate.calls", "count", "lower"),
    ("representations.r4_enumerate.self_s", "s", "lower"),
    ("representations.r7_closed.self_s", "s", "lower"),
    ("cli.process_s", "s", "lower"),
    ("cli.emit.self_s", "s", "lower"),
    ("cli.rows", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
)

WORKLOADS = {
    "tables_formula": "closed-form wab, r7 and delta tables in fresh CLI processes;"
                      " the eta-quotient kernel behind CuspTable does most of the work",
    "tables_oracle": "brute-force wab tables with and without closed forms and r7 by"
                     " enumeration; no eta code runs, so it bypasses eta-kernel changes",
    "verify_suite": "verify, decompose and eta in fresh CLI processes; dense q-series"
                    " products, the cube root and modforms Gauss-Jordan run only here",
    "point_queries": "one library session answering ~3000 unsorted point queries while"
                     " the module-wide doubling caches grow; the only cache workload",
}

# each workload's reason to exist, as a check on its traced run
CLAIMS = {
    "tables_formula": ("eta.share", ">=", 0.5),
    "tables_oracle": ("eta.expand.calls", "==", 0),
    "verify_suite": ("modforms.decompose.self_s", ">", 0),
    "point_queries": ("convolution.shared_table.grows", ">=", 1),
}


def manifest() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# -- processes ---------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("SIGMA_CONVOLVE_ORDER", None)
    return env


def spawn(cmd: list[str], deadline: float) -> dict:
    """Run one child to completion; returns its exit code, output, wall
    time, CPU time (user + system) and peak RSS. A child still running at ``deadline`` is killed."""
    start = time.perf_counter_ns()
    env = child_env()
    env["BENCH_SPAWN_NS"] = str(start)
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    chunks: dict[int, list[bytes]] = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    killed = False
    with selectors.DefaultSelector() as sel:
        for stream in (proc.stdout, proc.stderr):
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0 and not killed:
                proc.kill()
                killed = True
            for key, _ in sel.select(timeout=max(remaining, 0.1)):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.perf_counter_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = (b"".join(chunks[f]) for f in chunks)
    return {"code": proc.returncode, "stdout": out, "stderr": err,
            "seconds": (end - start) / 1e9, "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mib": usage.ru_maxrss / 1024.0}


def cli_command(argv: list[str], trace_file: Path | None, step: str) -> list[str]:
    if trace_file is None:
        return [sys.executable, "-m", "sigma_convolve.cli", *argv]
    return [sys.executable, str(HERE / "child.py"), "cli", "--trace", str(trace_file),
            "--step", step, "--", *argv]


def query_command(stream_file: Path, trace_file: Path | None, step: str) -> list[str]:
    cmd = [sys.executable, str(HERE / "child.py"), "queries", "--stream", str(stream_file),
           "--step", step]
    return cmd + (["--trace", str(trace_file)] if trace_file else [])


# -- checking ----------------------------------------------------------------


class Checker:
    """Checks each distinct (input, output digest) once against the oracle."""

    def __init__(self) -> None:
        self.oracle = Oracle()
        self.verdicts: dict[tuple[str, str], tuple[int, str]] = {}

    def cli_step(self, argv: list[str], rec: dict) -> tuple[int, str]:
        """(verified rows, error message or "") for one CLI step."""
        if rec["code"] != 0:
            return 0, f"exit code {rec['code']}: {rec['stderr'][-300:].decode(errors='replace')}"
        key = (" ".join(argv), rec["sha256"])
        if key not in self.verdicts:
            try:
                self.verdicts[key] = (self.oracle.check_step(argv, rec["stdout"]), "")
            except Mismatch as exc:
                self.verdicts[key] = (0, str(exc))
        return self.verdicts[key]

    def queries(self, stream: list[list], rec: dict) -> tuple[list[bool], str]:
        """Per-query verdicts for one session."""
        if rec["code"] != 0:
            return [False] * len(stream), f"exit code {rec['code']}"
        key = ("queries", rec["sha256"])
        if key not in self.verdicts:
            try:
                answers = json.loads(rec["stdout"])["answers"]
            except (json.JSONDecodeError, KeyError, TypeError):
                answers = []
            n_cap = max(q[-1] for q in stream)
            expected = [self.oracle.query_answer(q, n_cap) for q in stream]
            ok = [i < len(answers) and answers[i] == e for i, e in enumerate(expected)]
            wrong = ok.count(False)
            self.verdicts[key] = (ok, f"{wrong} wrong answers" if wrong else "")
        return self.verdicts[key]


# -- passes ------------------------------------------------------------------


class Run:
    """One benchmark invocation: a workload, a seed and a time budget."""

    def __init__(self, workload: str, seed: int, seconds: float, scale: float = 1.0):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.inputs = workloads.generate(workload, seed, scale)
        self.inputs_sha256 = workloads.inputs_digest(self.inputs)
        self.checker = Checker()
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.tag = f"{workload}-{seed}-{os.getpid()}"
        self.steps: dict[str, dict] = {}  # step label -> argv, digests, verdict
        self.attempted = self.failed = 0
        self.setup: list[float] = []  # CPU seconds per fresh import of the CLI module
        WORK.mkdir(exist_ok=True)

    def _record_step(self, label: str, argv, rec: dict, error: str) -> None:
        entry = self.steps.setdefault(label, {"argv": argv, "sha256": [], "seconds": [],
                                              "errors": []})
        entry["sha256"].append(rec["sha256"])
        entry["seconds"].append(rec["seconds"])
        if error and error not in entry["errors"]:
            entry["errors"].append(error)

    def fresh_trace_file(self, step: int) -> Path:
        """Where a traced step writes its spans, with any older file removed.
        Each traced pass replaces the last one's, so a run leaves the spans of
        its final traced pass."""
        path = WORK / f"trace-{self.workload}-seed{self.seed}-step{step}.json"
        path.unlink(missing_ok=True)
        return path

    def cli_pass(self, traced: bool, index: int) -> dict:
        recs, traces = [], []
        start = time.perf_counter()
        for i, argv in enumerate(self.inputs):
            trace = self.fresh_trace_file(i) if traced else None
            recs.append(spawn(cli_command(argv, trace, f"{index}-{i}"), self.deadline))
            traces.append(trace)
        wall = time.perf_counter() - start
        rows = 0
        for i, (argv, rec) in enumerate(zip(self.inputs, recs)):
            rec["sha256"] = hashlib.sha256(rec["stdout"]).hexdigest()
            verified, error = self.checker.cli_step(argv, rec)
            self._record_step(f"step{i}", argv, rec, error)
            self.attempted += 1
            self.failed += bool(error)
            rows += verified
        return {"wall": wall, "cpu": sum(r["cpu_s"] for r in recs), "rows": rows,
                "latency_us": [r["cpu_s"] * 1e6 for r in recs], "maxrss_mib": max(r["maxrss_mib"] for r in recs), "traced": traced,
                "traces": [t for t in traces if t is not None]}

    def query_pass(self, traced: bool, index: int) -> dict:
        stream_file = WORK / f"stream-{self.tag}.json"
        if not stream_file.exists():
            stream_file.write_text(json.dumps(self.inputs))
        trace = self.fresh_trace_file(0) if traced else None
        rec = spawn(query_command(stream_file, trace, f"{index}-0"), self.deadline)
        rec["sha256"] = hashlib.sha256(rec["stdout"]).hexdigest()
        ok, error = self.checker.queries(self.inputs, rec)
        self._record_step("session", ["queries", self.inputs_sha256], rec, error)
        self.attempted += len(ok)
        self.failed += ok.count(False)
        latency = []
        if rec["code"] == 0 and not error:
            latency = [ns / 1000.0 for ns in json.loads(rec["stdout"])["latency_ns"]]
        return {"wall": rec["seconds"], "cpu": rec["cpu_s"], "rows": ok.count(True),
                "latency_us": latency,
                "maxrss_mib": rec["maxrss_mib"], "traced": traced,
                "traces": [trace] if trace else []}

    def one_pass(self, traced: bool, index: int) -> dict:
        if self.workload == "point_queries":
            return self.query_pass(traced, index)
        return self.cli_pass(traced, index)

    def passes(self, trace: bool) -> list[dict]:
        """Rounds of passes until the next round would overrun --seconds (at
        least one). A round is one untraced pass, preceded by set-up timings
        (about SETUP_SAMPLES of them over the run), or with ``trace`` an
        untraced and a traced pass, so that the tracing overhead compares
        passes made under the same load."""
        done: list[dict] = []
        rounds = 0
        spent = 0.0  # pass and set-up time; checking answers is not counted
        setup_per_pass = 3
        self.warm_up()
        while True:
            if trace:
                done.append(self.one_pass(False, len(done)))
                done.append(self.one_pass(True, len(done)))
            else:
                spent += self.sample_setup(setup_per_pass)
                done.append(self.one_pass(False, len(done)))
            spent += sum(p["wall"] for p in done[-2 if trace else -1:])
            rounds += 1
            if rounds == 1 and self.seconds > 0:
                setup_per_pass = max(1, round(SETUP_SAMPLES * spent / self.seconds))
            if spent * (rounds + 1) / rounds > self.seconds or \
                    time.perf_counter() + 2 * spent / rounds > self.deadline:
                return done

    def _import_cli(self) -> dict:
        rec = spawn([sys.executable, "-c", "import sigma_convolve.cli"], self.deadline)
        if rec["code"] != 0:
            raise RuntimeError(f"cannot import sigma_convolve.cli: {rec['stderr'].decode()}")
        return rec

    def warm_up(self) -> None:
        """One untimed import, which compiles the package's bytecode."""
        self._import_cli()

    def sample_setup(self, count: int) -> float:
        """Time fresh interpreters importing the CLI module and exiting. Keeps
        their CPU times; returns the wall time they took."""
        recs = [self._import_cli() for _ in range(count)]
        self.setup.extend(r["cpu_s"] for r in recs)
        return sum(r["seconds"] for r in recs)


# -- metrics -----------------------------------------------------------------


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def end_to_end_metrics(passes: list[dict], setup: list[float], cli: bool) -> dict[str, float]:
    # a request's CPU time is its median over the passes (every pass repeats
    # the same requests), so a burst of load on the shared host during one
    # pass moves no percentile; percentiles are then taken over requests
    latency = [statistics.median(col)
               for col in zip(*(p["latency_us"] for p in passes if p["latency_us"]))]
    if cli:  # a typical pass is the sum of its steps' median CPU times
        cpu = sum(latency) / 1e6
    else:
        cpu = statistics.median(p["cpu"] for p in passes)
    return {
        "pass_cpu_s": cpu,
        "rows_per_cpu_s": statistics.median(p["rows"] for p in passes) / cpu,
        "query_cpu_p50_us": statistics.median(latency) if latency else 0.0,
        "query_cpu_p99_us": nearest_rank(latency, 99) if latency else 0.0,
        "setup_s": statistics.median(setup),
        "peak_rss_mib": max(p["maxrss_mib"] for p in passes),
    }


def _merge_traces(files: list[Path]) -> dict:
    merged = {"stats": {}, "layer_ns": {}, "counters": {}, "caches": {}, "lru": {},
              "import_ns": []}
    for path in files:
        if not path.exists():
            continue
        record = json.loads(path.read_text())
        for name, (calls, total, own) in record["stats"].items():
            acc = merged["stats"].setdefault(name, [0, 0, 0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for layer, ns in record["layer_ns"].items():
            merged["layer_ns"][layer] = merged["layer_ns"].get(layer, 0) + ns
        for key, value in record["counters"].items():
            peak = key.endswith("max_coeff_bits")
            old = merged["counters"].get(key, 0)
            merged["counters"][key] = max(old, value) if peak else old + value
        for name, info in record["caches"].items():
            acc = merged["caches"].setdefault(name, {"grows": 0, "overshoot": 0.0})
            acc["grows"] += info["grows"]
            if info["requested"]:
                acc["overshoot"] = max(acc["overshoot"], info["built"] / info["requested"])
        for name, info in record["lru"].items():
            acc = merged["lru"].setdefault(name, {"hits": 0, "misses": 0, "entries": 0})
            acc["hits"] += info["hits"]
            acc["misses"] += info["misses"]
            acc["entries"] = max(acc["entries"], info["entries"])
        merged["import_ns"].append(record.get("import_ns", 0))
    return merged


def layer_metrics(traced: dict) -> dict[str, float]:
    t = _merge_traces(traced["traces"])
    stats, counters, caches, lru = t["stats"], t["counters"], t["caches"], t["lru"]

    def calls(name: str) -> int:
        return stats.get(name, [0, 0, 0])[0]

    def self_s(name: str) -> float:
        return stats.get(name, [0, 0, 0])[2] / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def lru_field(name: str, field: str) -> int:
        return lru.get(name, {}).get(field, 0)

    def cache(names: tuple[str, ...], field: str) -> float:
        values = [caches.get(n, {}).get(field, 0) for n in names]
        return sum(values) if field == "grows" else max(values)

    sigma_calls = lru_field("arith.sigma", "hits") + lru_field("arith.sigma", "misses")
    delta_caches = ("deltaforms.shared_tau", "deltaforms.shared_u")
    return {
        "eta.expand.calls": calls("eta.expand"),
        "eta.expand.self_s": self_s("eta.expand"),
        "eta.cusp_table.build_s": stats.get("eta.cusp_table", [0, 0, 0])[1] / 1e9,
        "eta.c_series.hit_ratio": ratio(counters.get("eta.c_series.hits", 0),
                                        calls("eta.c_series")),
        "eta.share": ratio(t["layer_ns"].get("eta", 0) / 1e9, traced["wall"]),
        "qseries.mul.calls": calls("qseries.mul"),
        "qseries.mul.self_s": self_s("qseries.mul"),
        "qseries.mul.term_products": counters.get("qseries.mul.term_products", 0),
        "qseries.pow.self_s": self_s("qseries.pow"),
        "qseries.inverse.self_s": self_s("qseries.inverse"),
        "qseries.inverse.max_coeff_bits": counters.get("qseries.inverse.max_coeff_bits", 0),
        "qseries.cube_root.self_s": self_s("qseries.cube_root"),
        "arith.sigma.calls": sigma_calls,
        "arith.sigma.hit_ratio": ratio(lru_field("arith.sigma", "hits"), sigma_calls),
        "arith.sigma.cache_entries": lru_field("arith.sigma", "entries"),
        "arith.sigma.self_s": self_s("arith.sigma"),
        "convolution.w_formula.calls": calls("convolution.w_formula"),
        "convolution.w_formula.self_s": self_s("convolution.w_formula"),
        "convolution.w_brute.self_s": self_s("convolution.w_brute"),
        "convolution.shared_table.grows": cache(("convolution.shared_table",), "grows"),
        "convolution.shared_table.overshoot": cache(("convolution.shared_table",), "overshoot"),
        "deltaforms.cube_bracket.self_s": self_s("deltaforms.cube_bracket"),
        "deltaforms.cuberoot.self_s": self_s("deltaforms.cuberoot"),
        "deltaforms.shared_cache.grows": cache(delta_caches, "grows"),
        "deltaforms.shared_cache.overshoot": cache(delta_caches, "overshoot"),
        "modforms.basis.self_s": self_s("modforms.basis"),
        "modforms.decompose.self_s": self_s("modforms.decompose"),
        "modforms.reconstruct.self_s": self_s("modforms.reconstruct"),
        "eisenstein.l_combination.self_s": self_s("eisenstein.l_combination"),
        "representations.r4_enumerate.calls": (
            lru_field("representations.r4_enumerate", "hits")
            + lru_field("representations.r4_enumerate", "misses")),
        "representations.r4_enumerate.self_s": self_s("representations.r4_enumerate"),
        "representations.r7_closed.self_s": self_s("representations.r7_closed"),
        "cli.process_s": statistics.median(t["import_ns"]) / 1e9 if t["import_ns"] else 0.0,
        "cli.emit.self_s": self_s("cli.emit"),
        "cli.rows": counters.get("cli.rows", 0),
    }


def claim_holds(metrics: dict[str, float], workload: str) -> tuple[str, bool]:
    name, op, threshold = CLAIMS[workload]
    value = metrics[name]
    holds = {">=": value >= threshold, ">": value > threshold, "==": value == threshold}[op]
    return f"{name} {op} {threshold} (got {value:.6g})", holds


# -- environment and reporting -----------------------------------------------


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_digest() -> str:
    """sha256 over the package's source files, names included."""
    h = hashlib.sha256()
    for path in sorted((SRC / "sigma_convolve").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "loadavg_start": _loadavg(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, log=print) -> dict:
    """Run one workload and return its result record (also written to
    .bench_work/)."""
    env = environment()
    run = Run(workload, seed, seconds, scale)
    log(f"workload={workload} seed={seed} trace={int(trace)} "
        f"inputs_sha256={run.inputs_sha256} inputs={len(run.inputs)}")
    passes = run.passes(trace)
    if trace:
        per_pass = [layer_metrics(p) for p in passes if p["traced"]]
        metrics = {name: statistics.median_low(m[name] for m in per_pass)
                   for name, *_ in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in passes if p["traced"])
            - statistics.median(p["wall"] for p in passes if not p["traced"]))
        units = {name: unit for name, unit, _ in PER_LAYER}
        claim, holds = claim_holds(metrics, workload)
        log(f"claim {'holds' if holds else 'FAILS'}: {claim}")
    else:
        metrics = end_to_end_metrics(passes, run.setup, workload != "point_queries")
        units = {name: unit for name, unit, _, _ in END_TO_END}
        claim, holds = None, None
    env["loadavg_end"] = _loadavg()
    for label, entry in run.steps.items():
        verdict = "; ".join(entry["errors"]) or "ok"
        log(f"{label}: {' '.join(map(str, entry['argv']))} sha256={entry['sha256'][0][:16]} {verdict}")
    latency_n = sum(len(p["latency_us"]) for p in passes if not trace)
    log(f"passes={len(passes)} pass_wall_s={[round(p['wall'], 3) for p in passes]} "
        f"pass_cpu_s={[round(p['cpu'], 3) for p in passes]} "

        f"latency_samples={latency_n} requests={len(run.inputs)} "
        f"setup_samples={len(run.setup)}")
    log(f"env python={env['python']} commit={env['commit']} nproc={env['nproc']} "
        f"src_sha256={env['src_sha256'][:16]} loadavg_start=[{env['loadavg_start']}] "
        f"loadavg_end=[{env['loadavg_end']}]")
    for name, value in metrics.items():
        log(f"{name} = {value:.6g} {units[name]}")
    failed_frac = run.failed / run.attempted if run.attempted else 1.0
    log(f"failed_frac = {failed_frac:.6g} ({run.failed}/{run.attempted})")
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "inputs_sha256": run.inputs_sha256, "environment": env,
        "steps": run.steps, "passes": len(passes), "setup_cpu_s": run.setup,
        "attempted": run.attempted, "failed": run.failed, "failed_frac": failed_frac,
        "claim": claim, "claim_holds": holds,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    (WORK / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1))
    for stale in WORK.glob(f"stream-{run.tag}.json"):
        stale.unlink()
    return result


def summary_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size multiplier, for quick smoke runs")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the repository root")
    args = parser.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if not (SRC / "sigma_convolve" / "cli.py").is_file():
        print(f"error: no sigma_convolve sources under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        results = {}
        for name in WORKLOADS:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         args.scale)
            print(f"{name}: {summary_line(results[name])}", flush=True)
        out = WORK / "BENCH.json"
        out.write_text(json.dumps(results, indent=1))
        print(f"wrote {out}")
        return 0 if all(r["failed"] == 0 for r in results.values()) else 1
    if args.workload is None:
        parser.error("--workload is required (or --all / --write-manifest)")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.scale)
    print(summary_line(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
