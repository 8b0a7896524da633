"""Seeded op lists for the three workloads.

A seed fixes the op list completely: the same seed gives the same list, and
``digest`` names it so that runs on two commits can be shown to have
measured the same work.  The seed picks partitions and order inside a fixed
template, so every seed gives the same mix of commands and degrees and the
cost of a list varies little between seeds.
"""

from __future__ import annotations

import hashlib
import json
import random

from checks import BASES, count_tables, multinomial, partitions

# kron-table: every unordered pair at this degree, one warm session per table.
KRON_DEGREE = 7

# verify-suites: every suite at every degree up to the default verification
# cap (8) that finishes under the default budgets.  ``monoidal`` and ``all``
# at 6..8 exit 3 after about 24 s each; they are left out (see README.md).
VERIFY_MAX_DEGREE = 8
VERIFY_SUITE_MAX = {
    "monoidal": 5,
    "orthonormality": VERIFY_MAX_DEGREE,
    "kostka": VERIFY_MAX_DEGREE,
    "jacobi-trudi": VERIFY_MAX_DEGREE,
    "all": 5,
}

# cli-mix: the degree of the character-table path (p basis, Specht
# characters).  At 8 one such op takes about 3 s, too long for 22 per list.
CHAR_DEGREE = 7


def _fmt(parts) -> str:
    return ",".join(str(p) for p in parts)


def kron_table(seed: int) -> list[dict]:
    parts = partitions(KRON_DEGREE)
    pairs = [(a, b) for i, a in enumerate(parts) for b in parts[i:]]
    random.Random(seed).shuffle(pairs)
    return [{"kind": "kron-pair", "lam": list(a), "mu": list(b)} for a, b in pairs]


def verify_suites(seed: int) -> list[dict]:
    ops = [
        {
            "kind": "verify",
            "suite": suite,
            "d": e,
            "argv": ["verify", "--suite", suite, "--d", str(e), "--seed", str(seed)],
        }
        for suite, top in VERIFY_SUITE_MAX.items()
        for e in range(1, top + 1)
    ]
    random.Random(seed).shuffle(ops)
    return ops


def cli_mix(seed: int) -> list[dict]:
    """114 invocations covering every command except ``verify``.

    The template puts about a third of the ops in a band of nearly equal
    cost (conversions whose work is the degree-8 Kostka table), with fewer
    cheaper ops than ops in or above the band, so that the median latency
    falls inside the band for every seed.
    """
    rng = random.Random(seed)
    ops: list[dict] = []

    def part(d, ok=lambda p: True):
        return rng.choice([p for p in partitions(d) if ok(p)])

    def pair(d, cap):
        while True:
            lam, mu = part(d), part(d)
            if count_tables(lam, mu) <= cap:
                return lam, mu

    def convert(src, dst, d):
        lam = part(d)
        ops.append({"kind": "convert", "src": src, "lam": lam, "target": dst,
                    "argv": ["convert", "--expr", f"{src}[{_fmt(lam)}]", "--basis", dst]})

    # Every ordered pair of distinct bases: the p pairs at the character-table
    # degree, the rest at 8; the four pairs that only need the Kostka table
    # eight times each.
    for src in BASES:
        for dst in BASES:
            if src == dst:
                continue
            if "p" in (src, dst):
                convert(src, dst, CHAR_DEGREE)
            else:
                for _ in range(8 if src + dst in ("ms", "hs", "sm", "hm") else 1):
                    convert(src, dst, 8)
    # Internal product; outputs in s, h or e, where every term has nonzero dimension.
    for d in (5,) * 6 + (6,) * 6:
        a, b = rng.choice("she"), rng.choice("she")
        lam, mu = part(d), part(d)
        target = rng.choice((None, "s", "h", "e"))
        argv = ["kron", "--expr", f"{a}[{_fmt(lam)}] # {b}[{_fmt(mu)}]"]
        ops.append({"kind": "kron#", "a": a, "lam": lam, "b": b, "mu": mu,
                    "target": target or a, "argv": argv + (["--basis", target] if target else [])})
    # Ring product to degree 8, read back in m or s through the Kostka table; a
    # p factor stays at degree 5 or less, below the character-table degree.
    for d1, d2 in ((2, 6), (3, 5), (4, 4), (5, 3), (6, 2), (1, 7), (7, 1), (4, 4)):
        a, b = rng.choice("ms"), rng.choice(BASES if d2 <= 5 else "mehs")
        lam, mu = part(d1), part(d2)
        target = rng.choice((None, "m", "s"))
        argv = ["kron", "--expr", f"{a}[{_fmt(lam)}] . {b}[{_fmt(mu)}]"]
        ops.append({"kind": "kron.", "a": a, "lam": lam, "b": b, "mu": mu,
                    "target": target or a, "argv": argv + (["--basis", target] if target else [])})
    for d in (6, 6, 7, 7, 7, 8, 8, 8):
        lam, mu = pair(d, 1000)
        ops.append({"kind": "decompose-perm", "lam": lam, "mu": mu,
                    "argv": ["decompose-perm", "--lambda", _fmt(lam), "--mu", _fmt(mu)]})
    for d in (5, 6, 7, 7):
        lam, mu = pair(d, 300)
        ops.append({"kind": "contingency", "lam": lam, "mu": mu,
                    "argv": ["contingency", "--lambda", _fmt(lam), "--mu", _fmt(mu)]})
    for d in (6, 7, 8, 8):
        lam, mu = part(d), part(d)
        ops.append({"kind": "contingency-count", "lam": lam, "mu": mu,
                    "argv": ["contingency", "--lambda", _fmt(lam), "--mu", _fmt(mu), "--count-only"]})
    for _ in range(6):
        lam = part(CHAR_DEGREE)
        ops.append({"kind": "character", "rep": "specht", "lam": lam,
                    "argv": ["character", "--kind", "specht", "--lambda", _fmt(lam)]})
    for d in (6, 7, 7, 8, 8, 8):
        lam = part(d, lambda p: multinomial(d, p) <= 2000)
        ops.append({"kind": "character", "rep": "perm", "lam": lam,
                    "argv": ["character", "--kind", "perm", "--lambda", _fmt(lam)]})
    # Characteristic map; a perm image leaves p only through the character table.
    for rep, targets in (("specht", BASES), ("perm", "mehs")) * 4:
        lam, target = part(CHAR_DEGREE), rng.choice(targets)
        ops.append({"kind": "ch", "rep": rep, "lam": lam, "target": target,
                    "argv": ["ch", "--kind", rep, "--lambda", _fmt(lam), "--basis", target]})
    for d in (6, 7, 8) * 2:
        shape = part(d)
        cuts = sorted(rng.sample(range(1, d), rng.randrange(d)))
        content = [b - a for a, b in zip([0] + cuts, cuts + [d])]
        ops.append({"kind": "kostka", "shape": shape, "content": content,
                    "argv": ["kostka", "--shape", _fmt(shape), "--content", _fmt(content)]})
    for d in (7, 8):
        ops.append({"kind": "partitions", "d": d, "argv": ["partitions", "--d", str(d)]})
    for n, d in ((3, 5), (4, 4)):
        ops.append({"kind": "compositions", "n": n, "d": d,
                    "argv": ["compositions", "--n", str(n), "--d", str(d)]})
    rng.shuffle(ops)
    return ops


def pass_order(ops: list[dict], seed: int, k: int) -> list[dict]:
    """Order of the ``k``-th pass of a run: the list itself, then seeded shuffles.

    In the kron-table session, memo caches are shared across pairs, so the
    pair that pays for a large shared decomposition depends on the order;
    varying it per pass makes a run's latency tail an average over orders.
    """
    if k == 0:
        return ops
    ops = list(ops)
    random.Random(f"{seed}/{k}").shuffle(ops)
    return ops


WORKLOADS = {"kron-table": kron_table, "cli-mix": cli_mix, "verify-suites": verify_suites}


def digest(ops: list[dict]) -> str:
    """Short content hash of an op list."""
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()[:16]
