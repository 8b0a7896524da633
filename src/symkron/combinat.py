"""Integer partitions, compositions, dominance order, and strip walks.

A strip walk (:func:`_walk`) adds or removes one strip per entry of a size
sequence: horizontal strips give tableau counts, and border strips
Murnaghan-Nakayama characters.  The Kostka columns of
:mod:`symkron.symfunc` read the same horizontal-strip lister, one part at a
time, and its Kostka rows :func:`_removal_strips`, which lists the removals
of every size from a shape at once.

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
are write-once and safe to share between threads.  :func:`_shared` gives
the Kostka memos and the margin rule one shared, unchecked key per shape.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import accumulate

from .errors import DegreeMismatchError


class Partition(tuple):
    """Weakly decreasing tuple of positive integers.

    A ``Partition`` is immutable and was checked when it was made, so
    ``Partition(p)`` returns ``p`` itself when ``p`` is one.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        if type(parts) is Partition:
            return parts
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


_SHAPES: dict = {}  # the one key per shape of the Kostka memos and the margin-rule classes


def _shared(entries: Iterable[tuple[tuple[int, ...], int]]) -> dict[Partition, int]:
    """The ``(shape, count)`` pairs by shared key; shapes must be partitions, built here unchecked."""
    out = {}
    for nu, k in entries:
        key = _SHAPES.get(nu)
        if key is None:
            key = _SHAPES[nu] = tuple.__new__(Partition, nu)
        out[key] = k
    return out


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
    horizontal strip: one is removed per part, the last first.
    """
    shape = Partition(shape)
    content = Composition(content)
    if shape.degree != content.degree:
        raise DegreeMismatchError(
            f"shape has degree {shape.degree} but content has degree {content.degree}"
        )
    removals = [tuple(-k for k in content[::-1])]
    return next(_walk(removals, _horizontal_strips, {shape: 1})).get((), 0)


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


def _walk(sizes: Iterable[tuple[int, ...]], strips, start: dict) -> Iterator[dict]:
    """The Schur expansion ``start`` after one step per entry, for each size sequence.

    A step of signed size ``k`` sends each shape to the ``(shape, sign)``
    pairs of ``strips(shape, k)``, which both strip listers memoize.  A
    sequence reuses the steps it shares with the one before, so the
    partitions of ``d`` in canonical order cost one depth-first walk.  Only
    read the yielded dicts.
    """
    chain, path = [start], []  # chain[i + 1] is chain[i] after a step of size path[i]
    for seq in sizes:
        for i, k in enumerate(seq):
            if i < len(path) and path[i] == k:
                continue
            del chain[i + 1 :], path[i:]
            out: dict = {}
            for shape, c in chain[i].items():
                if c:  # a zero sum takes no step
                    for outer, sign in strips(shape, k):
                        out[outer] = out.get(outer, 0) + sign * c
            chain.append(out)
            path.append(k)
        yield chain[len(seq)]


@lru_cache(maxsize=None)
def _horizontal_strips(shape: tuple[int, ...], size: int) -> tuple[tuple[tuple, int], ...]:
    """Shapes made by adding (``size > 0``) or removing a horizontal strip, each with sign 1.

    No two boxes share a column, so row ``i`` grows by at most its overhang
    over row ``i - 1`` (the first row by any amount), or shrinks by at most
    its overhang over row ``i + 1``: a bounded composition of ``|size|``.
    """
    rows = shape + (0,)
    caps = tuple(a - b for a, b in zip(shape, rows[1:]))
    step, caps = (1, (size,) + caps) if size > 0 else (-1, caps)
    return tuple(
        (tuple([r + step * a for r, a in zip(rows, moved) if r + step * a]), 1)
        for moved in _bounded_compositions(abs(size), caps)
    )


@lru_cache(maxsize=None)
def _removal_strips(shape: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Shapes left by removing a horizontal strip from a nonempty ``shape``, at the strip's size.

    Row ``i`` shrinks by at most its overhang over row ``i + 1``, so one
    pass over the rows lists the strips of every size at once, where
    :func:`_horizontal_strips` lists one size per call.  The lists are
    tuples, since every caller shares the cached value.
    """
    left = [((), 0)]  # (the rows kept so far, the boxes removed from them)
    for r, below in zip(shape, shape[1:] + (0,)):
        left = [
            (nu + (r - a,) if r - a else nu, k + a) for nu, k in left for a in range(r - below + 1)
        ]
    out: list[list[tuple[int, ...]]] = [[] for _ in range(shape[0] + 1)]
    for nu, k in left:
        out[k].append(nu)
    return tuple(map(tuple, out))


@lru_cache(maxsize=None)
def _border_strips(shape: tuple[int, ...], size: int) -> tuple[tuple[tuple, int], ...]:
    """Shapes made by adding (``size > 0``) or removing (``size < 0``) a border strip, with signs.

    On the beta set of ``n`` parts (``shape[i] + n - 1 - i``, padded with
    ``size`` zero parts when adding) a strip of ``|size|`` boxes moves one
    bead by ``size`` places onto a free place.  Its sign is the parity of the
    beads jumped over, ``(-1)**(rows - 1)`` (Macdonald I.3, Example 11).
    """
    n = len(shape) + max(size, 0)
    beads = [p + n - 1 - i for i, p in enumerate(shape + (0,) * (n - len(shape)))]
    out = []
    for i, b in enumerate(beads):
        c = b + size
        if c < 0 or c in beads:
            continue
        moved = sorted(beads[:i] + [c] + beads[i + 1 :], reverse=True)
        parts = tuple(p for p in (x - (n - 1 - j) for j, x in enumerate(moved)) if p)
        out.append((parts, (-1) ** sum(min(b, c) < x < max(b, c) for x in beads)))
    return tuple(out)


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
