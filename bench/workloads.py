"""Seeded input generation for the four benchmark workloads.

Every function here is pure: the same (seed, scale) gives byte-identical
argv lists and query streams, and the program under test receives nothing
else. A seed changes *which* inputs run; the sizes are chosen so that it
barely changes *how much* work a pass does, because the spread of a metric
over seeds is what the benchmark's bounds must absorb:

- tables_formula permutes a fixed multiset of gcd scales over the five
  closed-form pairs, so every seed tabulates the same number of rows from
  reduced tables of the same order;
- tables_oracle sizes each brute-force table from a cost model of
  ``w_brute`` (loop iterations, weighted by how many reach ``sigma``);
- verify_suite spreads the five decomposition orders over fixed narrow strata;
- point_queries opens every stage of its stream with one query at the
  stage cap, so the doubling caches grow through the same orders for
  every seed (the last stage still overshoots, see ``STAGE_CAPS``).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from math import gcd

# the five pairs with a published closed form (convolution.FORMULAS)
CLOSED_FORM_PAIRS = ((1, 28), (4, 7), (1, 14), (2, 7), (1, 7))

# each tables_formula pass tabulates W for every closed-form pair once, at
# n_max = g * order, with the gcd scales g drawn as a permutation of this
# multiset: rows and table orders stay fixed while the argv changes
FORMULA_SCALES = (1, 1, 2, 2, 3)
FORMULA_ORDER = 750
DELTA_FORMS = ("4,7", "4,14,1", "4,14,2")

# w_brute cost per loop iteration is ALPHA + BETA / a microseconds (the
# BETA part is the two sigma lookups, reached when a divides n - b*m), plus
# GAMMA per row; fitted on a 2-CPU x86 container, Python 3.11
BRUTE_ALPHA_US, BRUTE_BETA_US, BRUTE_GAMMA_US = 0.15, 0.63, 10.0
BRUTE_STEP_US = 700_000.0
BRUTE_N_RANGE = (4000, 6000)
R7_ENUMERATE_RANGE = (980, 1000)

VERIFY_ORDER = 600
# one decomposition order per stratum, each stratum 8 wide, so the orders of
# a pass always span 100..300 alike
DECOMPOSE_STRATA = (100, 148, 196, 244, 292)
ETA_TERMS = 1000
# the three weight-12 eta products of the level-7 cube bracket
# (deltaforms.CUBE_BRACKET_TERMS): positive exponents only
ETA_SPECS = ("1:16,7:8", "1:12,7:12", "1:8,7:16")

# point_queries: stage caps of the query stream. Each stage opens with one
# query per cached evaluator at its cap, and a cache grows to
# max(request, 2 * its order), so every cache grows to 96, 192, 384, and
# then the 500 stage doubles it to 768. The caps stay small so that a pass
# takes about 1.5 s and a run holds many passes to take the median of.
STAGE_CAPS = (96, 192, 384, 500)
QUERIES_PER_STAGE = {"w_reduce": 525, "w_1_7_lemire": 75,
                     "w_1_14_royer": 75, "r7_closed": 75}
QUERY_SCALES = (1, 2, 3)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, round(value * scale))


def tables_formula(seed: int, scale: float = 1.0) -> list[list[str]]:
    """argv lists: ``wab --mode formula`` for each closed-form pair times a
    gcd scale, then ``r7 --mode closed`` and one ``delta`` table."""
    rng = _rng("tables_formula", seed)
    order = _scaled(FORMULA_ORDER, scale, 20)
    jitter = max(1, order // 50)
    scales = list(FORMULA_SCALES)
    rng.shuffle(scales)
    steps = []
    for (a, b), g in zip(CLOSED_FORM_PAIRS, scales):
        n_max = g * (order + rng.randrange(jitter))
        steps.append(["wab", "--a", str(g * a), "--b", str(g * b),
                      "--n-max", str(n_max), "--mode", "formula"])
    steps.append(["r7", "--n-max", str(order + rng.randrange(jitter)),
                  "--mode", "closed"])
    steps.append(["delta", "--form", rng.choice(DELTA_FORMS),
                  "--terms", str(order + rng.randrange(jitter))])
    return steps


def brute_n_max(a: int, b: int, target_us: float = BRUTE_STEP_US) -> int:
    """Table size at which the modelled brute-force cost reaches the target."""
    per_iter = BRUTE_ALPHA_US + BRUTE_BETA_US / a
    # iterations ~ n^2 / (2b): solve per_iter n^2 / (2b) + gamma n = target
    qa, qb = per_iter / (2 * b), BRUTE_GAMMA_US
    return round((-qb + math.sqrt(qb * qb + 4 * qa * target_us)) / (2 * qa))


def _brute_pool() -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    lo, hi = BRUTE_N_RANGE
    closed, other = [], []
    for b in range(2, 41):
        for a in range(1, b):
            if gcd(a, b) != 1 or not lo <= brute_n_max(a, b) <= hi:
                continue
            (closed if (a, b) in CLOSED_FORM_PAIRS else other).append((a, b))
    return closed, other


BRUTE_CLOSED_POOL, BRUTE_OTHER_POOL = _brute_pool()


def tables_oracle(seed: int, scale: float = 1.0) -> list[list[str]]:
    """argv lists: ``wab --mode brute`` for two closed-form pairs and two
    pairs without one, then ``r7 --mode enumerate``."""
    rng = _rng("tables_oracle", seed)
    pairs = rng.sample(BRUTE_CLOSED_POOL, 2) + rng.sample(BRUTE_OTHER_POOL, 2)
    rng.shuffle(pairs)
    steps = []
    for a, b in pairs:
        n_max = _scaled(brute_n_max(a, b), scale, 20)
        steps.append(["wab", "--a", str(a), "--b", str(b),
                      "--n-max", str(n_max), "--mode", "brute"])
    lo, hi = R7_ENUMERATE_RANGE
    steps.append(["r7", "--n-max", str(_scaled(rng.randint(lo, hi), scale, 20)),
                  "--mode", "enumerate"])
    return steps


def verify_suite(seed: int, scale: float = 1.0) -> list[list[str]]:
    """argv lists: the identity suite, the five decompositions, and one eta
    expansion."""
    rng = _rng("verify_suite", seed)
    strata = list(DECOMPOSE_STRATA)
    rng.shuffle(strata)
    steps = [["verify", "--order", str(_scaled(VERIFY_ORDER, scale, 1)),
              "--report", "json"]]
    for (a, b), low in zip(CLOSED_FORM_PAIRS, strata):
        n_max = _scaled(low + rng.randrange(8), scale, 16)
        steps.append(["decompose", "--pair", f"{a},{b}", "--n-max", str(n_max)])
    steps.append(["eta", "--level", "7", "--spec", rng.choice(ETA_SPECS),
                  "--terms", str(_scaled(ETA_TERMS, scale, 10))])
    return steps


def _log_uniform(rng: random.Random, cap: int) -> int:
    return min(cap, int(math.exp(rng.uniform(0.0, math.log(cap + 1)))))


def _query(rng: random.Random, kind: str, n: int, g: int = 1) -> list:
    if kind == "w_reduce":
        a, b = rng.choice(CLOSED_FORM_PAIRS)
        return [kind, g * a, g * b, n]
    return [kind, n]


def point_queries(seed: int, scale: float = 1.0) -> list[list]:
    """Query stream ``[function name, *arguments]`` for one library session."""
    rng = _rng("point_queries", seed)
    stream: list[list] = []
    for cap in STAGE_CAPS:
        cap = _scaled(cap, scale, 4)
        # each stage opens at its cap, so every seed grows the caches alike
        stream.extend(_query(rng, kind, cap) for kind in QUERIES_PER_STAGE)
        body = []
        for kind, count in QUERIES_PER_STAGE.items():
            for _ in range(_scaled(count, scale, 1)):
                g = rng.choice(QUERY_SCALES) if kind == "w_reduce" else 1
                body.append(_query(rng, kind, _log_uniform(rng, cap), g))
        rng.shuffle(body)
        stream.extend(body)
    return stream


GENERATORS = {
    "tables_formula": tables_formula,
    "tables_oracle": tables_oracle,
    "verify_suite": verify_suite,
    "point_queries": point_queries,
}


def generate(workload: str, seed: int, scale: float = 1.0) -> list[list]:
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    return GENERATORS[workload](seed, scale)


def inputs_digest(inputs: list[list]) -> str:
    """sha256 of the canonical JSON of a generated argv list or stream."""
    blob = json.dumps(inputs, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
