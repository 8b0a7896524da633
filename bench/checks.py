"""Output checkers for the benchmark, written without any call into symkron.

Every checker takes one op (as generated by ``workloads.py``) and what the
program returned for it, and gives ``None`` when the output is right or a
one-line reason when it is not.  The identities come from textbook
combinatorics (hook length and hook-content formulas, margin counts,
permutation characters), computed here from scratch, so a defect in the
program cannot hide behind the same defect in its checker.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

BASES = ("m", "e", "h", "p", "s")


# -- partitions --------------------------------------------------------------


@lru_cache(maxsize=None)
def partitions(d: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of ``d`` in reverse lexicographic order, ``(d)`` first."""

    def gen(rem: int, cap: int):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, cap), 0, -1):
            for rest in gen(rem - first, first):
                yield (first,) + rest

    return tuple(gen(d, d))


def conjugate(lam) -> tuple[int, ...]:
    lam = tuple(lam)
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0))


def multinomial(d: int, parts) -> int:
    out = math.factorial(d)
    for p in parts:
        out //= math.factorial(p)
    return out


def hooks_and_contents(lam):
    cols = conjugate(lam)
    for i, row in enumerate(lam):
        for j in range(row):
            yield (row - j) + (cols[j] - i) - 1, j - i


def f_lambda(lam) -> int:
    """Number of standard tableaux, by the hook length formula."""
    return math.factorial(sum(lam)) // math.prod(h for h, _ in hooks_and_contents(lam))


def centralizer(rho) -> int:
    out = 1
    for k in set(rho):
        m = rho.count(k)
        out *= k**m * math.factorial(m)
    return out


def spec_atom(basis: str, lam, n: int) -> Fraction:
    """Basis element evaluated at ``n`` variables set to 1 and the rest to 0."""
    lam = tuple(lam)
    if basis == "s":
        num = den = 1
        for hook, content in hooks_and_contents(lam):
            num *= n + content
            den *= hook
        return Fraction(num, den)
    if basis == "e":
        return Fraction(math.prod(math.comb(n, k) for k in lam))
    if basis == "h":
        return Fraction(math.prod(math.comb(n + k - 1, k) for k in lam))
    if basis == "p":
        return Fraction(n ** len(lam))
    if len(lam) > n:
        return Fraction(0)
    ways = math.factorial(n) // math.factorial(n - len(lam))
    for k in set(lam):
        ways //= math.factorial(lam.count(k))
    return Fraction(ways)


def dim_atom(basis: str, lam) -> int:
    """Pairing of a basis element with ``p_1^d``: the dimension of its character."""
    lam = tuple(lam)
    d = sum(lam)
    if basis == "s":
        return f_lambda(lam)
    if basis in ("h", "e"):
        return multinomial(d, lam)
    if basis == "p":
        return math.factorial(d) if lam == (1,) * d else 0
    return 1 if lam == (1,) * d else 0


def spec(basis: str, terms: dict, n: int) -> Fraction:
    return sum((c * spec_atom(basis, lam, n) for lam, c in terms.items()), Fraction(0))


def dim(basis: str, terms: dict) -> Fraction:
    return sum((c * dim_atom(basis, lam) for lam, c in terms.items()), Fraction(0))


@lru_cache(maxsize=None)
def count_tables(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    """Number of nonnegative integer matrices with the given row and column sums."""
    if not rows:
        return 1 if not any(cols) else 0
    total = 0

    def place(j: int, left: int, rest: tuple[int, ...]):
        nonlocal total
        if j == len(cols):
            if left == 0:
                total += count_tables(rows[1:], tuple(sorted(rest, reverse=True)))
            return
        for v in range(min(left, cols[j]), -1, -1):
            place(j + 1, left - v, rest + (cols[j] - v,))

    place(0, rows[0], ())
    return total


def perm_char(lam, rho) -> int:
    """Fixed tuples of content ``lam`` under a permutation of cycle type ``rho``.

    A tuple is fixed exactly when it is constant on cycles, so this counts
    the ways to hand every cycle to one value so that value ``i`` receives
    ``lam[i]`` positions.
    """

    @lru_cache(maxsize=None)
    def ways(k: int, left: tuple[int, ...]) -> int:
        if k == len(rho):
            return 1 if not any(left) else 0
        return sum(
            ways(k + 1, left[:i] + (left[i] - rho[k],) + left[i + 1 :])
            for i in range(len(left))
            if left[i] >= rho[k]
        )

    return ways(0, tuple(lam))


def count_ssyt(shape, content) -> int:
    """Semistandard tableaux by filling cells one at a time in row order."""
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    left = list(content)
    grid: dict[tuple[int, int], int] = {}

    def fill(k: int) -> int:
        if k == len(cells):
            return 1
        i, j = cells[k]
        lo = 1
        if j:
            lo = max(lo, grid[(i, j - 1)])
        if i:
            lo = max(lo, grid[(i - 1, j)] + 1)
        total = 0
        for v in range(lo, len(left) + 1):
            if left[v - 1]:
                left[v - 1] -= 1
                grid[(i, j)] = v
                total += fill(k + 1)
                left[v - 1] += 1
        return total

    return fill(0)


# -- parsing the CLI's text output ---------------------------------------------

_TERM = re.compile(r"\s*(?:([+-])\s*)?(?:(\d+(?:/\d+)?)\*)?([mehps])\[([0-9,]*)\]")
_MTERM = re.compile(r"\s*(?:(\+)\s*)?(?:(\d+)\*)?M\[([0-9,]*)\]")


def _parts(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",")) if text else ()


def parse_symfunc(text: str) -> tuple[str | None, dict]:
    """Rendered symmetric function, e.g. ``s[2,1] - 3/2*s[1,1,1]``."""
    text = text.strip()
    if text == "0":
        return None, {}
    terms: dict = {}
    basis = None
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or (pos and m.group(1) is None) or (not pos and m.group(1) == "+"):
            raise ValueError(f"unparseable term at offset {pos}: {text[pos:pos + 30]!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        if basis not in (None, m.group(3)):
            raise ValueError("terms in more than one basis")
        basis = m.group(3)
        lam = _parts(m.group(4))
        if lam in terms:
            raise ValueError(f"repeated term {lam}")
        terms[lam] = sign * coeff
        pos = m.end()
    return basis, terms


def parse_multiset(text: str) -> list[tuple[tuple[int, ...], int]]:
    """``decompose-perm`` output, e.g. ``2*M[2,1,1] + M[1,1,1,1]``, in order."""
    out = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _MTERM.match(text, pos)
        if not m or bool(pos) != bool(m.group(1)):
            raise ValueError(f"unparseable term at offset {pos}")
        out.append((_parts(m.group(3)), int(m.group(2) or 1)))
        pos = m.end()
    return out


def _check_symfunc(text: str, basis: str, degree: int) -> tuple[dict, str | None]:
    got_basis, terms = parse_symfunc(text)
    if terms and got_basis != basis:
        return terms, f"output in basis {got_basis}, expected {basis}"
    keys = list(terms)
    if keys != sorted(keys, reverse=True):
        return terms, "terms not in canonical order"
    bad = [lam for lam in keys if lam not in partitions(degree)]
    if bad:
        return terms, f"term {bad[0]} is not a partition of {degree}"
    return terms, None


def _same_function(terms, basis, expected, degree) -> str | None:
    """Compare with ``expected(n)`` at 1^n for n = 1..degree (d variables suffice)."""
    for n in range(1, degree + 1):
        got = spec(basis, terms, n)
        want = expected(n)
        if got != want:
            return f"value at 1^{n} is {got}, expected {want}"
    return None


# -- checkers --------------------------------------------------------------------


def check_kron_pair(op, terms: dict) -> str | None:
    """One row of the Kronecker table: ``terms`` maps nu to g(lam, mu, nu)."""
    lam, mu = tuple(op["lam"]), tuple(op["mu"])
    d = sum(lam)
    for nu, g in terms.items():
        if nu not in partitions(d):
            return f"{nu} is not a partition of {d}"
        if g.denominator != 1 or g < 0:
            return f"g{lam, mu, nu} = {g} is not a nonnegative integer"
    total = sum(g * f_lambda(nu) for nu, g in terms.items())
    if total != f_lambda(lam) * f_lambda(mu):
        return f"sum g*f^nu = {total}, expected f^lam*f^mu = {f_lambda(lam) * f_lambda(mu)}"
    if terms.get((d,), 0) != int(lam == mu):
        return f"g(lam, mu, ({d})) = {terms.get((d,), 0)}, expected {int(lam == mu)}"
    if terms.get((1,) * d, 0) != int(conjugate(lam) == mu):
        return f"g(lam, mu, 1^{d}) = {terms.get((1,) * d, 0)}, expected {int(conjugate(lam) == mu)}"
    return None


def check_kron_table(table: dict) -> dict:
    """Symmetry of g under all permutations of its three arguments.

    ``table`` maps the unordered pair ``(lam, mu)`` (lam first in canonical
    order) to its row; pairs missing from the table are skipped.  Returns a
    reason per pair that breaks symmetry.
    """

    def g(a, b, c):
        key = (a, b) if a >= b else (b, a)
        return table[key].get(c, 0) if key in table else None

    bad = {}
    for (lam, mu), row in table.items():
        for nu in partitions(sum(lam)):
            values = {g(*p) for p in permutations((lam, mu, nu))} - {None}
            if len(values) > 1:
                bad[(lam, mu)] = f"g{lam, mu, nu} is not symmetric: {sorted(values)}"
                break
    return bad


def _convert_like(stdout, basis, degree, expected_basis, expected_terms):
    terms, err = _check_symfunc(stdout, basis, degree)
    if err:
        return err
    err = _same_function(terms, basis, lambda n: spec(expected_basis, expected_terms, n), degree)
    if err:
        return err
    if dim(basis, terms) != dim(expected_basis, expected_terms):
        return "dimension differs from the input's"
    return None


def check_convert(op, stdout):
    lam = tuple(op["lam"])
    return _convert_like(stdout, op["target"], sum(lam), op["src"], {lam: Fraction(1)})


def check_ch(op, stdout):
    lam = tuple(op["lam"])
    src = "h" if op["rep"] == "perm" else "s"
    return _convert_like(stdout, op["target"], sum(lam), src, {lam: Fraction(1)})


def check_kron_hash(op, stdout):
    lam, mu = tuple(op["lam"]), tuple(op["mu"])
    d = sum(lam)
    terms, err = _check_symfunc(stdout, op["target"], d)
    if err:
        return err
    want = dim_atom(op["a"], lam) * dim_atom(op["b"], mu)
    if dim(op["target"], terms) != want:
        return f"dimension {dim(op['target'], terms)}, expected {want}"
    if op["a"] == op["b"] == op["target"] == "s":
        if any(c.denominator != 1 or c < 0 for c in terms.values()):
            return "Kronecker coefficients must be nonnegative integers"
    return None


def check_kron_dot(op, stdout):
    lam, mu = tuple(op["lam"]), tuple(op["mu"])
    d1, d2 = sum(lam), sum(mu)
    terms, err = _check_symfunc(stdout, op["target"], d1 + d2)
    if err:
        return err
    err = _same_function(
        terms,
        op["target"],
        lambda n: spec_atom(op["a"], lam, n) * spec_atom(op["b"], mu, n),
        d1 + d2,
    )
    if err:
        return err
    want = math.comb(d1 + d2, d1) * dim_atom(op["a"], lam) * dim_atom(op["b"], mu)
    if dim(op["target"], terms) != want:
        return f"dimension {dim(op['target'], terms)}, expected {want}"
    return None


def check_decompose(op, stdout):
    lam, mu = tuple(op["lam"]), tuple(op["mu"])
    d = sum(lam)
    pieces = parse_multiset(stdout)
    keys = [p for p, _ in pieces]
    if keys != sorted(set(keys), reverse=True):
        return "classes not distinct in canonical order"
    if any(p not in partitions(d) or m < 1 for p, m in pieces):
        return "class is not a partition of d or multiplicity is not positive"
    if sum(m for _, m in pieces) != count_tables(lam, mu):
        return f"{sum(m for _, m in pieces)} summands, expected {count_tables(lam, mu)}"
    size = sum(m * multinomial(d, p) for p, m in pieces)
    if size != multinomial(d, lam) * multinomial(d, mu):
        return f"summand dimensions add to {size}, expected {multinomial(d, lam) * multinomial(d, mu)}"
    return None


def check_contingency(op, stdout):
    lam, mu = tuple(op["lam"]), tuple(op["mu"])
    blocks = stdout.strip("\n").split("\n\n") if stdout.strip() else []
    flat = []
    for block in blocks:
        rows = [tuple(int(v) for v in line.split(",")) for line in block.split("\n")]
        if len(rows) != len(lam) or any(len(r) != len(mu) for r in rows):
            return "matrix has the wrong shape"
        if any(v < 0 for r in rows for v in r):
            return "negative entry"
        if tuple(map(sum, rows)) != lam or tuple(map(sum, zip(*rows))) != mu:
            return "margins differ from lambda and mu"
        flat.append(tuple(v for r in rows for v in r))
    if any(a <= b for a, b in zip(flat, flat[1:])):
        return "matrices not distinct in descending order"
    if len(flat) != count_tables(lam, mu):
        return f"{len(flat)} matrices, expected {count_tables(lam, mu)}"
    return None


def check_contingency_count(op, stdout):
    want = count_tables(tuple(op["lam"]), tuple(op["mu"]))
    return None if stdout.strip() == str(want) else f"count {stdout.strip()!r}, expected {want}"


def _character_values(op, stdout):
    d = sum(op["lam"])
    lines = stdout.strip().split("\n")
    rhos = [tuple(int(v) for v in line.split(":")[0].split(",")) for line in lines]
    if tuple(rhos) != partitions(d):
        raise ValueError("cycle types missing or out of canonical order")
    return {rho: int(line.split(":")[1]) for rho, line in zip(rhos, lines)}


def check_character(op, stdout):
    lam = tuple(op["lam"])
    d = sum(lam)
    chi = _character_values(op, stdout)
    if op["rep"] == "perm":
        for rho, v in chi.items():
            if v != perm_char(lam, rho):
                return f"value at {rho} is {v}, expected {perm_char(lam, rho)}"
        return None
    order = math.factorial(d)
    if chi[(1,) * d] != f_lambda(lam):
        return f"degree {chi[(1,) * d]}, expected f^lam = {f_lambda(lam)}"
    if sum(order // centralizer(r) * v * v for r, v in chi.items()) != order:
        return "character is not irreducible (norm differs from 1)"
    if sum(order // centralizer(r) * v * perm_char(lam, r) for r, v in chi.items()) != order:
        return "multiplicity in the permutation module of lam differs from 1"
    return None


def check_kostka(op, stdout):
    want = count_ssyt(op["shape"], op["content"])
    return None if stdout.strip() == str(want) else f"count {stdout.strip()!r}, expected {want}"


def check_partitions(op, stdout):
    got = tuple(tuple(int(v) for v in line.split(",")) for line in stdout.strip().split("\n"))
    return None if got == partitions(op["d"]) else "partition list differs"


def check_compositions(op, stdout):
    n, d = op["n"], op["d"]
    got = [tuple(int(v) for v in line.split(",")) for line in stdout.strip().split("\n")]
    if any(len(c) != n or sum(c) != d or min(c) < 0 for c in got):
        return "entry is not a composition of d into n parts"
    if any(a <= b for a, b in zip(got, got[1:])):
        return "compositions not distinct in descending order"
    if len(got) != math.comb(d + n - 1, n - 1):
        return f"{len(got)} compositions, expected {math.comb(d + n - 1, n - 1)}"
    return None


def check_verify(op, stdout):
    last = stdout.strip().split("\n")[-1] if stdout.strip() else ""
    if not re.fullmatch(rf"PASS {re.escape(op['suite'])}: \d+ checks", last):
        return f"last line {last!r} is not a PASS summary"
    return None


CLI_CHECKERS = {
    "convert": check_convert,
    "ch": check_ch,
    "kron#": check_kron_hash,
    "kron.": check_kron_dot,
    "decompose-perm": check_decompose,
    "contingency": check_contingency,
    "contingency-count": check_contingency_count,
    "character": check_character,
    "kostka": check_kostka,
    "partitions": check_partitions,
    "compositions": check_compositions,
    "verify": check_verify,
}


def classify_cli(op, result) -> tuple[str, str] | None:
    """``None`` for a correct CLI op, else ``(kind, reason)``.

    Kinds: ``wrong`` (wrong output, exit 1, or exit 2 on valid input),
    ``refused`` (exit 3, over budget), ``crash`` (traceback or lost child),
    ``timeout``.
    """
    if result.get("status") in ("crash", "timeout"):
        return result["status"], result.get("detail", "")
    rc = result["rc"]
    if rc == 3:
        return "refused", result["stderr"].strip()[-200:]
    if rc in (1, 2):
        return "wrong", f"exit {rc}: {result['stderr'].strip()[-200:]}"
    if rc != 0:
        return "crash", f"exit {rc}"
    try:
        reason = CLI_CHECKERS[op["kind"]](op, result["stdout"])
    except (ValueError, KeyError, IndexError) as exc:
        reason = f"unparseable output: {exc}"
    return ("wrong", reason) if reason else None
