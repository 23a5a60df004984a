"""Child process of the benchmark: one CLI step, or one library session.

    python3 bench/child.py cli [--trace FILE] [--step ID] -- ARGV...
    python3 bench/child.py queries --stream FILE [--trace FILE] [--step ID]

``cli`` calls ``sigma_convolve.cli.main(ARGV)`` exactly as the console
script does, so its stdout is the CLI's stdout byte for byte. ``queries``
replays a JSON stream of ``[function name, *arguments]`` through the
public library functions, in order and in this one process, so the
package's module-wide caches grow and serve reads as a long-lived session
would. It prints one JSON object: the answers and each call's latency,
as the CPU time of this process around the call.

With ``--trace`` the tracer's wrappers are installed after the package is
imported and the spans are written to FILE when the step ends. The
parent passes its spawn time in ``BENCH_SPAWN_NS`` (``perf_counter_ns``,
a system-wide monotonic clock on Linux), so the child can report the
interpreter-plus-import time of the step.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from time import perf_counter_ns, process_time_ns

QUERY_FUNCTIONS = {
    "w_reduce": ("convolution", "w_reduce"),
    "w_1_7_lemire": ("deltaforms", "w_1_7_lemire"),
    "w_1_14_royer": ("deltaforms", "w_1_14_royer"),
    "r7_closed": ("representations", "r7_closed"),
}


def _import_ns() -> int:
    import sigma_convolve.cli  # noqa: F401  (the whole package, as the CLI loads it)

    spawned = os.environ.get("BENCH_SPAWN_NS")
    return perf_counter_ns() - int(spawned) if spawned else 0


def _tracer(args):
    if not args.trace:
        return None
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import Tracer

    tracer = Tracer(args.step)
    tracer.install()
    return tracer


def run_cli(args) -> int:
    import_ns = _import_ns()
    tracer = _tracer(args)
    from sigma_convolve import cli

    code = cli.main(args.argv)
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(args.trace, import_ns=import_ns)
    return code


def run_queries(args) -> int:
    with open(args.stream) as fh:
        stream = json.load(fh)
    import_ns = _import_ns()
    tracer = _tracer(args)
    functions = {kind: getattr(importlib.import_module(f"sigma_convolve.{module}"), name)
                 for kind, (module, name) in QUERY_FUNCTIONS.items()}
    answers, latency_ns = [], []
    for kind, *call_args in stream:
        fn = functions[kind]
        start = process_time_ns()
        answer = fn(*call_args)
        latency_ns.append(process_time_ns() - start)
        answers.append(answer)
    json.dump({"answers": answers, "latency_ns": latency_ns}, sys.stdout)
    sys.stdout.write("\n")
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(args.trace, import_ns=import_ns)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--trace", default="")
    p.add_argument("--step", default="0")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("queries")
    p.add_argument("--stream", required=True)
    p.add_argument("--trace", default="")
    p.add_argument("--step", default="0")
    args = parser.parse_args(argv)
    if args.mode == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return run_cli(args)
    return run_queries(args)


if __name__ == "__main__":
    sys.exit(main())
