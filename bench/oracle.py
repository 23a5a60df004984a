"""Answer checks for every benchmark step, independent of the fast paths.

The harness recomputes each answer with code of its own wherever that is
cheap: divisor sums by a sieve, convolution sums and lattice counts by
Kronecker substitution (pack a series into one big int, multiply once),
and eta products by the logarithmic-derivative recurrence. Formula rows
are checked against the library's own brute-force oracle ``w_brute``,
and decompositions against its published ``KNOWN_DECOMPOSITIONS`` data.

A checker returns the number of values it verified; any mismatch raises
``Mismatch`` with the first wrong value.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt


class Mismatch(Exception):
    """A step printed a wrong or malformed answer."""


def sigma_table(k: int, n_max: int) -> list[int]:
    """sigma_k(n) for n = 0..n_max (0 at n = 0), by a divisor sieve."""
    table = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        dk = d**k
        for m in range(d, n_max + 1, d):
            table[m] += dk
    return table


def _poly_mul(a: list[int], b: list[int], n_max: int) -> list[int]:
    """Product of two series with nonnegative integer coefficients,
    truncated at q^n_max, by Kronecker substitution."""
    bound = max(a, default=0) * max(b, default=0) * (min(len(a), len(b)) + 1)
    width = bound.bit_length() // 8 + 1
    pack = lambda cs: int.from_bytes(
        b"".join(c.to_bytes(width, "little") for c in cs[: n_max + 1]), "little")
    product = (pack(a) * pack(b)).to_bytes(width * (2 * n_max + 2), "little")
    return [int.from_bytes(product[width * i: width * (i + 1)], "little")
            for i in range(n_max + 1)]


def w_table(a: int, b: int, n_max: int) -> list[int]:
    """W_{a,b}(n) for n = 0..n_max: coefficients of
    (sum sigma(l) q^(a l)) * (sum sigma(m) q^(b m))."""
    sig = sigma_table(1, n_max)
    left = [0] * (n_max + 1)
    right = [0] * (n_max + 1)
    for l in range(1, n_max // a + 1):
        left[a * l] = sig[l]
    for m in range(1, n_max // b + 1):
        right[b * m] = sig[m]
    return _poly_mul(left, right, n_max)


def r4_table(n_max: int) -> list[int]:
    """Number of integer points on x1^2 + .. + x4^2 = n, n = 0..n_max, as
    theta(q)^4 with theta = sum over all integers x of q^(x^2)."""
    theta = [0] * (n_max + 1)
    for x in range(-isqrt(n_max), isqrt(n_max) + 1):
        theta[x * x] += 1
    square = _poly_mul(theta, theta, n_max)
    return _poly_mul(square, square, n_max)


def r7_table(n_max: int) -> list[int]:
    """R7(n) for n = 0..n_max: r4(q) * r4(q^7)."""
    r4 = r4_table(n_max)
    dilated = [0] * (n_max + 1)
    for m in range(n_max // 7 + 1):
        dilated[7 * m] = r4[m]
    return _poly_mul(r4, dilated, n_max)


def eta_product(exponents: dict[int, int], n_max: int) -> list[int]:
    """Coefficients of q^0..q^n_max of prod_delta prod_n (1 - q^(delta n))^r_delta
    shifted by q^(sum delta r_delta / 24), via n a_n = sum_k c_k a_(n-k) with
    c_k = -sum over delta | k of r_delta * delta * sigma(k / delta)."""
    offset24 = sum(d * r for d, r in exponents.items())
    if offset24 % 24 or offset24 < 0:
        raise ValueError(f"q-power {offset24}/24 is not a nonnegative integer")
    shift = offset24 // 24
    length = max(0, n_max - shift)
    sig = sigma_table(1, length)
    c = [0] * (length + 1)
    for k in range(1, length + 1):
        c[k] = -sum(r * d * sig[k // d] for d, r in exponents.items() if k % d == 0)
    body = [1] + [0] * length
    for n in range(1, length + 1):
        total = sum(c[k] * body[n - k] for k in range(1, n + 1))
        if total % n:
            raise ArithmeticError("eta recurrence left a remainder")
        body[n] = total // n
    return ([0] * shift + body)[: n_max + 1]


class Oracle:
    """Checks step outputs; every table it builds is cached for the run."""

    def __init__(self) -> None:
        self._cache: dict[tuple, list[int]] = {}

    def _table(self, key: tuple, build) -> list[int]:
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def w(self, a: int, b: int, n_max: int) -> list[int]:
        return self._table(("w", a, b, n_max), lambda: w_table(a, b, n_max))

    def r7(self, n_max: int) -> list[int]:
        return self._table(("r7", n_max), lambda: r7_table(n_max))

    def eta(self, exponents: dict[int, int], n_max: int) -> list[int]:
        key = ("eta", tuple(sorted(exponents.items())), n_max)
        return self._table(key, lambda: eta_product(exponents, n_max))

    # -- CLI steps -------------------------------------------------------

    def check_step(self, argv: list[str], stdout: bytes) -> int:
        """Verify one CLI step's stdout; returns the number of values checked."""
        command = argv[0]
        flags = dict(zip(argv[1::2], argv[2::2]))
        text = stdout.decode()
        if command == "wab":
            return self._check_wab(flags, text)
        if command == "r7":
            return self._check_r7(flags, text)
        if command == "delta":
            return self._check_delta(flags, text)
        if command == "verify":
            return self._check_verify(text)
        if command == "decompose":
            return self._check_decompose(flags, text)
        if command == "eta":
            return self._check_eta(flags, text)
        raise ValueError(f"no checker for command {command!r}")

    @staticmethod
    def _csv_column(text: str, header: list[str], n_max: int) -> list[int]:
        lines = text.splitlines()
        if not lines or lines[0].split(",") != header:
            raise Mismatch(f"expected header {header}, got {lines[:1]}")
        if len(lines) != n_max + 1:
            raise Mismatch(f"expected {n_max} rows, got {len(lines) - 1}")
        values = []
        for n, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            if len(fields) != 2 or fields[0] != str(n):
                raise Mismatch(f"malformed row {n}: {line!r}")
            try:
                values.append(int(fields[1]))
            except ValueError:
                raise Mismatch(f"non-integer value in row {n}: {line!r}") from None
        return values

    @staticmethod
    def _compare(label: str, got: list[int], want) -> int:
        for n, value in enumerate(got, start=1):
            if value != want(n):
                raise Mismatch(f"{label}({n}) = {value}, expected {want(n)}")
        return len(got)

    def _check_wab(self, flags: dict[str, str], text: str) -> int:
        a, b, n_max = int(flags["--a"]), int(flags["--b"]), int(flags["--n-max"])
        mode = flags["--mode"]
        got = self._csv_column(text, ["n", f"w_{mode}"], n_max)
        label = f"W({a},{b})"
        if mode == "formula":
            from sigma_convolve.convolution import w_brute

            return self._compare(label, got, lambda n: w_brute(a, b, n))
        table = self.w(a, b, n_max)
        return self._compare(label, got, table.__getitem__)

    def _check_r7(self, flags: dict[str, str], text: str) -> int:
        n_max = int(flags["--n-max"])
        got = self._csv_column(text, ["n", flags["--mode"]], n_max)
        return self._compare("R7", got, self.r7(n_max).__getitem__)

    # delta forms as combinations of the level-28 generators C_j
    DELTA_COMBINATIONS = {
        "4,7": {1: 1, 2: 4},
        "4,14,1": {3: -1, 4: 1},
        "4,14,2": {2: -4, 3: 1, 4: 1},
    }

    def _check_delta(self, flags: dict[str, str], text: str) -> int:
        from sigma_convolve.eta import CUSP_GENERATORS

        terms = int(flags["--terms"])
        got = self._csv_column(text, ["n", "coefficient"], terms)
        combo = self.DELTA_COMBINATIONS[flags["--form"]]
        parts = {j: self.eta(CUSP_GENERATORS[j], terms) for j in combo}
        return self._compare(f"delta {flags['--form']}", got,
                             lambda n: sum(k * parts[j][n] for j, k in combo.items()))

    @staticmethod
    def _load_json(text: str):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise Mismatch(f"stdout is not JSON: {exc}") from None

    def _check_verify(self, text: str) -> int:
        results = self._load_json(text)
        if not isinstance(results, list) or len(results) != 10:
            raise Mismatch("verify must report ten identities")
        failed = [r.get("identity") for r in results if r.get("ok") is not True]
        if failed:
            raise Mismatch(f"identities not verified: {failed}")
        return len(results)

    def _check_decompose(self, flags: dict[str, str], text: str) -> int:
        from sigma_convolve.modforms import KNOWN_DECOMPOSITIONS

        pair = tuple(int(v) for v in flags["--pair"].split(","))
        payload = self._load_json(text)
        known = KNOWN_DECOMPOSITIONS[pair]
        want_x = {str(t): Fraction(v) for t, v in known.x.items()}
        want_y = [Fraction(v) for v in known.y]
        try:
            got_x = {t: Fraction(v) for t, v in payload["x"].items()}
            got_y = [Fraction(v) for v in payload["y"]]
            got_pair = tuple(payload["pair"])
        except (KeyError, TypeError, ValueError, AttributeError):
            raise Mismatch("decompose payload is malformed") from None
        if got_pair != pair or got_x != want_x or got_y != want_y:
            raise Mismatch(f"decomposition of {pair} differs from the published table")
        return len(want_x) + len(want_y)

    def _check_eta(self, flags: dict[str, str], text: str) -> int:
        terms = int(flags["--terms"])
        exponents = {int(d): int(r) for d, r in
                     (part.split(":") for part in flags["--spec"].split(","))}
        lines = [l for l in text.splitlines() if l.startswith("coefficients=")]
        if len(lines) != 1:
            raise Mismatch("eta output has no coefficients line")
        try:
            got = [int(v) for v in lines[0].removeprefix("coefficients=").split(",")]
        except ValueError:
            raise Mismatch("non-integer eta coefficient") from None
        want = self.eta(exponents, terms)
        if got != want:
            first = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y),
                         min(len(got), len(want)))
            raise Mismatch(f"eta coefficient {first} differs (or length {len(got)})")
        return len(got)

    # -- library queries --------------------------------------------------

    def query_answer(self, query: list, n_cap: int) -> int:
        """Expected answer of one point query; tables are built to n_cap."""
        kind, *args = query
        if kind == "w_reduce":
            a, b, n = args
            return self.w(a, b, n_cap)[n]
        if kind == "w_1_7_lemire":
            return self.w(1, 7, n_cap)[args[0]]
        if kind == "w_1_14_royer":
            return self.w(1, 14, n_cap)[args[0]]
        if kind == "r7_closed":
            return self.r7(n_cap)[args[0]]
        raise ValueError(f"no oracle for query {kind!r}")
