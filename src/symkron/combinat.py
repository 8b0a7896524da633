"""Integer partitions, compositions, dominance order, and tableau counting.

Conventions used across the package:

* A partition is a weakly decreasing tuple of positive integers; zero parts
  are never stored.  A composition is a tuple of nonnegative integers whose
  length and zero parts are both meaningful.
* Partitions of ``d`` are listed in reverse lexicographic order, ``(d)``
  first and ``(1, ..., 1)`` last.  This total order refines the dominance
  order, which keeps tableau-count matrices unit upper triangular.
* Compositions of ``d`` into ``n`` parts are listed lexicographically
  descending, ``(d, 0, ..., 0)`` first.

All values are immutable and all functions are pure; the memoized tables
are write-once and safe to share between threads.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import accumulate
from operator import ge

from .errors import DegreeMismatchError


class Partition(tuple):
    """Weakly decreasing tuple of positive integers."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        t = tuple(int(p) for p in parts)
        for i, p in enumerate(t):
            if p < 1:
                raise ValueError(f"partition parts must be positive, got {t}")
            if i and t[i - 1] < p:
                raise ValueError(f"partition parts must be weakly decreasing, got {t}")
        return tuple.__new__(cls, t)

    @property
    def degree(self) -> int:
        return sum(self)


class Composition(tuple):
    """Tuple of nonnegative integers; zero parts are kept."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Composition":
        t = tuple(int(p) for p in parts)
        for p in t:
            if p < 0:
                raise ValueError(f"composition parts must be nonnegative, got {t}")
        return tuple.__new__(cls, t)

    @property
    def degree(self) -> int:
        return sum(self)


def sort_to_partition(parts: Iterable[int]) -> Partition:
    """Drop zero parts and sort the rest weakly decreasing."""
    c = Composition(parts)
    return Partition(sorted((p for p in c if p > 0), reverse=True))


def _check_degrees(lam: Iterable[int], mu: Iterable[int]) -> tuple[Composition, Composition]:
    """Two margins as compositions, refused unless they have the same total."""
    lam = Composition(lam)
    mu = Composition(mu)
    if lam.degree != mu.degree:
        raise DegreeMismatchError(
            f"margins have different totals: {lam.degree} and {mu.degree}"
        )
    return lam, mu


def enumerate_compositions(n: int, d: int) -> list[Composition]:
    """All compositions of ``d`` into ``n`` ordered parts, lex descending."""
    if n < 0 or d < 0:
        raise ValueError("n and d must be nonnegative")
    return [Composition(c) for c in _bounded_compositions(d, (d,) * n)]


def _bounded_compositions(total: int, caps: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Compositions of ``total`` with entry ``j`` at most ``caps[j]``, lex descending.

    Each successor lowers the last entry that can pass one unit to the
    entries after it and refills those greedily, so the walk keeps no stack.
    """
    n = len(caps)
    row = [0] * n
    start, rem = 0, total
    while True:
        for j in range(start, n):
            row[j] = min(caps[j], rem)
            rem -= row[j]
        if rem:
            return
        yield tuple(row)
        room = 0  # rem and room are the sums of row[start:] and caps[start:]
        for start in range(n, 0, -1):
            if row[start - 1] and rem < room:
                row[start - 1] -= 1
                rem += 1
                break
            rem += row[start - 1]
            room += caps[start - 1]
        else:
            return


@lru_cache(maxsize=None)
def enumerate_partitions(d: int) -> tuple[Partition, ...]:
    """All partitions of ``d`` in reverse lexicographic order."""
    if d < 0:
        raise ValueError("d must be nonnegative")

    def gen(rem: int, cap: int) -> Iterator[tuple[int, ...]]:
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, cap), 0, -1):
            for rest in gen(rem - first, first):
                yield (first,) + rest

    return tuple(Partition(p) for p in gen(d, d))


def conjugate(lam: Iterable[int]) -> Partition:
    """Transpose of the Young diagram: part j counts rows of length >= j."""
    lam = Partition(lam)
    if not lam:
        return lam
    return Partition(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def dominance_leq(mu: Iterable[int], lam: Iterable[int]) -> bool:
    """True iff every prefix sum of ``mu`` is at most the one of ``lam``."""
    mu = Partition(mu)
    lam = Partition(lam)
    if mu.degree != lam.degree:
        raise DegreeMismatchError(
            f"dominance compares partitions of equal degree, got {mu.degree} and {lam.degree}"
        )
    total_mu = 0
    total_lam = 0
    for i in range(max(len(mu), len(lam))):
        total_mu += mu[i] if i < len(mu) else 0
        total_lam += lam[i] if i < len(lam) else 0
        if total_mu > total_lam:
            return False
    return True


def count_ssyt(shape: Iterable[int], content: Iterable[int]) -> int:
    """Number of semistandard tableaux of the given shape and content.

    Fillings place ``content[k-1]`` copies of the entry ``k`` so that rows
    weakly increase and columns strictly increase.  The entries ``k`` fill a
    horizontal strip: one Pieri step per part, keeping the shapes inside.
    """
    shape = Partition(shape)
    content = Composition(content)
    if shape.degree != content.degree:
        raise DegreeMismatchError(
            f"shape has degree {shape.degree} but content has degree {content.degree}"
        )
    column = {(): 1}
    for part in content:
        column = _pieri_step(column, part, {})
        column = {
            s: n for s, n in column.items() if len(s) <= len(shape) and all(map(ge, shape, s))
        }
    return column.get(shape, 0)


def count_partitions_inside(shape: Iterable[int]) -> int:
    """Number of partitions, the empty one included, whose diagrams fit inside ``shape``'s.

    These are lattice paths: ``C(c + b, c)`` for ``c`` parts equal to ``b``,
    and the Catalan number ``C(n + 1)`` for the staircase ``(n, ..., 1)``.
    """
    # ways[x]: the choices of this row and the rows below it, with x boxes in this row.
    ways = [1]
    for cap in reversed(Partition(shape)):
        ways = list(accumulate(ways))
        ways += [ways[-1]] * (cap + 1 - len(ways))
    return sum(ways)


def _kostka_columns(d: int) -> Iterator[dict[tuple[int, ...], int]]:
    """Kostka columns ``{shape: count}`` of every partition of ``d``, in canonical order.

    One depth-first walk over partition prefixes, in the order of
    :func:`enumerate_partitions`, takes one Pieri step per prefix, so a
    column shares its chain with every column of the same prefix; each
    strip set is found once per call in a dict dropped when the walk ends.
    """
    strips: dict = {}

    def walk(column: dict, rem: int, cap: int) -> Iterator[dict]:
        if not rem:
            yield column
        for part in range(min(rem, cap), 0, -1):
            yield from walk(_pieri_step(column, part, strips), rem - part, part)

    return walk({(): 1}, d, d)


def _pieri_step(column: dict, size: int, strips: dict) -> dict[tuple[int, ...], int]:
    """``h_size`` times the Schur expansion ``column``, by the Pieri rule.

    ``strips`` memoizes :func:`_strip_additions` under ``(shape, size)``.
    """
    out: dict[tuple[int, ...], int] = {}
    for shape, count in column.items():
        outers = strips.get((shape, size))
        if outers is None:
            outers = strips[shape, size] = _strip_additions(shape, size)
        for outer in outers:
            out[outer] = out.get(outer, 0) + count
    return out


def _strip_additions(shape: tuple[int, ...], size: int) -> list[tuple[int, ...]]:
    """Shapes made by adding ``size`` boxes, no two in one column.

    Row ``i`` grows by at most its overhang over row ``i - 1`` and the first
    row by any amount, so the additions are the bounded compositions of
    ``size`` under those caps, one per row and one for a new row.
    """
    rows = shape + (0,)
    caps = (size,) + tuple(a - b for a, b in zip(shape, rows[1:]))
    return [
        tuple([r + a for r, a in zip(rows, added) if r + a])
        for added in _bounded_compositions(size, caps)
    ]


def count_standard_tableaux(lam: Partition) -> int:
    """Number of standard tableaux of the given shape."""
    lam = Partition(lam)
    return count_ssyt(lam, (1,) * lam.degree)


def centralizer_order(rho: Iterable[int]) -> int:
    """Centralizer order ``z_rho``: the product of ``k**m * m!`` over the parts
    ``k`` of ``rho`` that occur ``m`` times."""
    z = 1
    for k, m in Counter(Partition(rho)).items():
        z *= k**m * math.factorial(m)
    return z


@lru_cache(maxsize=None)
def class_sizes(d: int) -> tuple[int, ...]:
    """Conjugacy class sizes ``d!/z_rho`` of the degree-d symmetric group, in canonical order."""
    order = math.factorial(d)
    return tuple(order // centralizer_order(rho) for rho in enumerate_partitions(d))


def _check_row(d: int, row: tuple[int, ...]) -> None:
    """Refuse a character row unless it has one value per cycle type of degree ``d``."""
    n = len(enumerate_partitions(d))
    if len(row) != n:
        raise DegreeMismatchError(f"a character of degree {d} has {n} values, got {len(row)}")


def multinomial(d: int, parts: Iterable[int]) -> int:
    """d! divided by the factorials of the parts; the parts must sum to d."""
    parts = tuple(parts)
    if any(p < 0 for p in parts) or sum(parts) != d:
        raise ValueError(f"parts {parts} do not decompose {d}")
    out = math.factorial(d)
    for p in parts:
        out //= math.factorial(p)
    return out


def format_parts(parts: Iterable[int]) -> str:
    """Render a partition or composition as comma-separated integers.

    The empty sequence renders as ``[]``.
    """
    parts = tuple(parts)
    return ",".join(str(p) for p in parts) if parts else "[]"


# The digits of every integer symkron reads: ASCII only, so ``1_0``, ``+3``
# and ``٣`` are refused where ``int()`` would take them.
DIGITS = frozenset("0123456789")


def parse_int(text: str) -> int:
    """The one integer syntax: optional surrounding whitespace, then ``-?[0-9]+``."""
    s = text.strip()
    digits = s[1:] if s.startswith("-") else s
    if not digits or not DIGITS.issuperset(digits):
        raise ValueError(f"invalid integer {text!r}")
    return int(s)


def parse_parts(text: str) -> tuple[int, ...]:
    """Inverse of :func:`format_parts`; accepts ``[]`` or an empty string."""
    s = text.strip()
    if s in ("", "[]"):
        return ()
    try:
        return tuple(parse_int(tok) for tok in s.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None
