"""Span tracing of the sigma_convolve package, installed from outside it.

``Tracer.install()`` replaces the package's public functions and methods
with wrappers that time each call. Because modules import names directly
(``from .arith import sigma``), every module-level binding of a function
is patched, including values of module-level dicts such as the CLI's
builder table. The package itself is not modified on disk.

Each call becomes a span ``(id, parent id, name, start ns, end ns)``; a
span's self time is its duration minus the duration of its traced
children. Spans stay in memory and ``dump()`` writes them, with per-name
totals and layer counters, when the traced process exits. Functions
behind an ``lru_cache`` get a fresh cache around a timed copy of the
undecorated function, so cache hits stay untimed and the cache's own
statistics give the call and hit counts; their misses are aggregated
without keeping a span each.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import sys
from time import perf_counter_ns

PACKAGE = "sigma_convolve"
LAYERS = ("arith", "qseries", "eta", "eisenstein", "modforms", "convolution",
          "deltaforms", "representations", "cli")

# (layer module, attribute path, span name); the span name defaults to
# "<module>.<attribute>"
TRACED: tuple[tuple[str, str, str | None], ...] = (
    ("arith", "sigma", None),
    ("qseries", "QSeries.__mul__", "qseries.mul"),
    ("qseries", "QSeries.__rmul__", "qseries.mul"),
    ("qseries", "QSeries.__pow__", "qseries.pow"),
    ("qseries", "QSeries.inverse", "qseries.inverse"),
    ("qseries", "QSeries.cube_root", "qseries.cube_root"),
    ("eta", "expand", None),
    ("eta", "eta_factor", None),
    ("eta", "c_series", None),
    ("eta", "CuspTable.__init__", "eta.cusp_table"),
    ("eta", "ligozat_check", None),
    ("eisenstein", "l_series", None),
    ("eisenstein", "m_series", None),
    ("eisenstein", "l_combination", None),
    ("modforms", "Basis28.at_order", "modforms.basis"),
    ("modforms", "decompose", None),
    ("modforms", "reconstruct", None),
    ("modforms", "matrix_rank", None),
    ("modforms", "verify_identity", None),
    ("convolution", "w_brute", None),
    ("convolution", "w_formula", None),
    ("convolution", "w_reduce", None),
    ("convolution", "shared_cusp_table", "convolution.shared_table"),
    ("deltaforms", "cube_bracket", None),
    ("deltaforms", "delta_4_7_cuberoot", "deltaforms.cuberoot"),
    ("deltaforms", "delta_4_7_eta", None),
    ("deltaforms", "delta_4_14", None),
    ("deltaforms", "TauTables.at_order", "deltaforms.tau_tables"),
    ("deltaforms", "shared_tau_tables", "deltaforms.shared_tau"),
    ("deltaforms", "shared_u_series", "deltaforms.shared_u"),
    ("deltaforms", "w_1_14_royer", None),
    ("deltaforms", "w_1_7_lemire", None),
    ("representations", "r4_enumerate", None),
    ("representations", "r4_jacobi", None),
    ("representations", "r7_enumerate", None),
    ("representations", "r7_via_w", None),
    ("representations", "r7_closed", None),
    ("representations", "r7_closed_raw", None),
    ("representations", "verify_cusp_shift_identity", None),
    ("cli", "cmd_wab", None),
    ("cli", "cmd_verify", None),
    ("cli", "cmd_eta", None),
    ("cli", "cmd_r7", None),
    ("cli", "cmd_delta", None),
    ("cli", "cmd_decompose", None),
    ("cli", "_emit", "cli.emit"),
)

# module-wide growing caches: span name -> (module, global holding the cache)
GROWING_CACHES = {
    "convolution.shared_table": ("convolution", "_shared_table"),
    "deltaforms.shared_tau": ("deltaforms", "_tau_tables"),
    "deltaforms.shared_u": ("deltaforms", "_u_series"),
}


def _support(coeffs) -> list[int]:
    return [i for i, c in enumerate(coeffs) if c]


class Tracer:
    """Collects spans for one step (one process); see the module docstring."""

    def __init__(self, step: str) -> None:
        self.step = step
        self.spans: list[tuple[int, int | None, str, int, int]] = []
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.layer_ns: dict[str, int] = {}  # outermost spans of each layer
        self.counters: dict[str, int] = {}
        self.caches: dict[str, dict[str, int]] = {}
        self._lru: dict[str, object] = {}
        self._stack: list[list[int]] = []  # [span id, traced child ns]
        self._depth: dict[str, int] = {}
        self._next_id = 0

    # -- recording -------------------------------------------------------

    def _call(self, name: str, layer: str, keep: bool, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [span_id, 0]
        self._stack.append(frame)
        depth = self._depth.get(layer, 0)
        self._depth[layer] = depth + 1
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self._depth[layer] = depth
            duration = end - start
            if parent is not None:
                parent[1] += duration
            stat = self.stats.setdefault(name, [0, 0, 0])
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[1]
            if depth == 0:
                self.layer_ns[layer] = self.layer_ns.get(layer, 0) + duration
            if keep:
                self.spans.append(
                    (span_id, parent[0] if parent else None, name, start, end))

    def _count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _peak(self, key: str, value: int) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    # -- per-name hooks, run outside the timed interval ----------------------

    def _before(self, name: str, args) -> object:
        if name == "qseries.mul" and len(args) == 2 and type(args[1]) is type(args[0]):
            a, b = args
            n = min(a.order, b.order)
            sup_b = _support(b.coeffs[: n + 1])
            self._count("qseries.mul.term_products", sum(
                bisect.bisect_right(sup_b, n - i) for i in _support(a.coeffs[: n + 1])))
        elif name == "eta.c_series":
            cache = getattr(sys.modules[f"{PACKAGE}.eta"], "_cusp_cache", {})
            cached = cache.get(args[0])
            if cached is not None and cached.order >= args[1]:
                self._count("eta.c_series.hits")
        elif name in GROWING_CACHES:
            module, attr = GROWING_CACHES[name]
            return getattr(sys.modules[f"{PACKAGE}.{module}"], attr, None)
        return None

    def _after(self, name: str, args, result, before: object) -> None:
        if name == "qseries.inverse":
            bits = max((getattr(c, "numerator", c).bit_length() for c in result.coeffs),
                       default=0)
            self._peak("qseries.inverse.max_coeff_bits", bits)
        elif name == "cli.emit":
            self._count("cli.rows", len(args[2]))
        elif name in GROWING_CACHES:
            info = self.caches.setdefault(name, {"grows": 0, "requested": 0, "built": 0})
            info["requested"] = max(info["requested"], args[0])
            if result is not before:
                info["grows"] += 1
            info["built"] = max(info["built"], getattr(result, "order", 0))

    # -- installation ------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn, keep: bool = True):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = tracer._before(name, args)
            result = tracer._call(name, layer, keep, fn, args, kwargs)
            tracer._after(name, args, result, before)
            return result

        return traced

    def install(self) -> None:
        """Patch every traced function of the (already importable) package."""
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        replaced: dict[int, object] = {}
        for layer, path, span_name in TRACED:
            name = span_name or f"{layer}.{path}"
            module = sys.modules[f"{PACKAGE}.{layer}"]
            owner_path, _, attr = path.rpartition(".")
            owner = getattr(module, owner_path) if owner_path else module
            raw = vars(owner).get(attr)
            if raw is None:
                continue  # renamed or removed since this table was written
            if id(raw) in replaced:  # an alias such as __rmul__ = __mul__
                setattr(owner, attr, replaced[id(raw)])
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, layer, raw.__func__))
            elif hasattr(raw, "cache_info") and hasattr(raw, "__wrapped__"):
                inner = self._wrap(name, layer, raw.__wrapped__, keep=False)
                new = functools.lru_cache(raw.cache_parameters()["maxsize"])(inner)
                self._lru[name] = new
            else:
                new = self._wrap(name, layer, raw)
            replaced[id(raw)] = new
            if isinstance(owner, type):
                setattr(owner, attr, new)
            else:
                _rebind(modules, raw, new)

    def lru_stats(self) -> dict[str, dict[str, int]]:
        out = {}
        for name, fn in self._lru.items():
            info = fn.cache_info()
            out[name] = {"hits": info.hits, "misses": info.misses,
                         "entries": info.currsize}
        return out

    def dump(self, path: str, **extra) -> None:
        record = {
            "step": self.step,
            "stats": self.stats,
            "layer_ns": self.layer_ns,
            "counters": self.counters,
            "caches": self.caches,
            "lru": self.lru_stats(),
            "spans": [[self.step, *span] for span in self.spans],
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(record, fh)


def _rebind(modules, old, new) -> None:
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)
            elif type(value) is dict:
                for dkey, dvalue in value.items():
                    if dvalue is old:
                        value[dkey] = new
