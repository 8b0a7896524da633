"""Brute-force symmetric group layer: the independent verifier.

Everything here is computed from first principles on explicit tuples and
permutations, so it can cross-check the structural rules implemented in
:mod:`symkron.contingency`, :mod:`symkron.kronecker` and :mod:`symkron.symfunc`:

* permutation modules are spanned by tuples with a prescribed multiplicity
  of each value, acted on by place permutation from the right;
* orbits are walked one way, by closing explicit tuples under the
  adjacent transpositions through :func:`act`, never by scanning a group;
* tensor products of two such modules are decomposed into the orbits of
  basis pairs, walked on index maps of the generators; every member of an
  orbit must carry the same multiset of value pairs as its start, compared
  as the sorted list of one integer code per pair, and the orbit size must
  be the multinomial of their overlap matrix;
* a character is a tuple of values in canonical cycle-type order; the
  permutation characters count fixed tuples under one representative per
  class, every tuple tested at every position, in bulk on the basis packed
  column by column into integers with a byte per tuple, its values
  relabelled 1..k by dropping the zero parts.  Gram-Schmidt over
  them gives the irreducible characters, whose identity column holds the
  Specht dimensions, and which check the Murnaghan-Nakayama characters of
  symfunc.  The character route to the internal product is
  :func:`permutation_character` through
  :func:`symkron.symfunc.characteristic_map`;
* Schur functions are expanded in the h and e bases by the Jacobi-Trudi
  determinants, summed over every permutation with no zero entry, which
  check the Kostka-table conversions of symfunc.

Permutation convention: a permutation of degree d is a tuple of 1-based
images, composition is ``(sigma tau)(t) = sigma(tau(t))``, and the place
action on tuples is ``act(sigma, i)[t] = i[sigma(t)]``, which makes
``act(tau, act(sigma, i)) == act(compose(sigma, tau), i)``.

Orbit enumeration refuses more than :data:`MAX_ORBIT_PAIRS` = 6!² basis
pairs (:func:`_check_orbit_pairs`), so every pair of degree 6 fits, and
permutation characters, the character table and the Jacobi-Trudi
determinants refuse more than 8! tuples or determinant terms; this layer
exists for desk-scale verification, not production counting.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from operator import add

from . import symfunc
from .combinat import (
    Composition,
    Partition,
    _check_degrees,
    _check_row,
    class_sizes,
    conjugate,
    enumerate_partitions,
    multinomial,
    sort_to_partition,
)
from .errors import BudgetExceededError, DegreeMismatchError, InternalConsistencyError

MAX_ORBIT_PAIRS = math.factorial(6) ** 2
MAX_GROUP_ORDER = math.factorial(8)

IndexTuple = tuple[int, ...]
Perm = tuple[int, ...]


def _refuse_above(cap: int, count: int, things: str) -> None:
    """Refuse work on ``count`` of ``things`` when it is more than ``cap``."""
    if count > cap:
        raise BudgetExceededError(f"{count} {things} exceed the cap of {cap}")


# -- permutations ------------------------------------------------------------


def compose(sigma: Perm, tau: Perm) -> Perm:
    """Product with ``(sigma tau)(t) = sigma(tau(t))``."""
    return tuple(sigma[t - 1] for t in tau)


def _cycle_lengths(sigma: Perm) -> list[int]:
    """Lengths of the cycles of ``sigma``, in order of their smallest point."""
    seen = [False] * len(sigma)
    lengths = []
    for start in range(len(sigma)):
        if seen[start]:
            continue
        length = 0
        t = start
        while not seen[t]:
            seen[t] = True
            t = sigma[t] - 1
            length += 1
        lengths.append(length)
    return lengths


def perm_sign(sigma: Perm) -> int:
    """``(-1)`` to the degree minus the number of cycles."""
    return (-1) ** (len(sigma) - len(_cycle_lengths(sigma)))


def cycle_type(sigma: Perm) -> Partition:
    return Partition(sorted(_cycle_lengths(sigma), reverse=True))


def representative_permutation(rho: Iterable[int]) -> Perm:
    """Canonical element of a conjugacy class: decreasing cycles on consecutive points."""
    rho = Partition(rho)
    images = []
    start = 1
    for length in rho:
        images.extend(range(start + 1, start + length))
        images.append(start)
        start += length
    return tuple(images)


def act(sigma: Perm, i: IndexTuple) -> IndexTuple:
    """Right place permutation: position t receives the entry at sigma(t)."""
    if len(sigma) != len(i):
        raise DegreeMismatchError(
            f"permutation degree {len(sigma)} does not match tuple length {len(i)}"
        )
    return tuple([i[s - 1] for s in sigma])


# -- permutation module bases ------------------------------------------------


def enumerate_tuples(lam: Iterable[int]) -> list[IndexTuple]:
    """All tuples with ``lam[l-1]`` entries equal to ``l``, lexicographic order.

    Starts from the sorted word and steps to the lexicographic successor:
    swap the last ascent with the last larger entry, then reverse the tail.
    """
    word = [value for value, count in enumerate(Composition(lam), start=1) for _ in range(count)]
    out = [tuple(word)]
    n = len(word)
    while True:
        k = n - 2
        while k >= 0 and word[k] >= word[k + 1]:
            k -= 1
        if k < 0:
            return out
        last = n - 1
        while word[last] <= word[k]:
            last -= 1
        word[k], word[last] = word[last], word[k]
        word[k + 1 :] = word[:k:-1]
        out.append(tuple(word))


def _check_orbit_pairs(lam: Composition, mu: Composition) -> None:
    """Refuse a pair of modules with more than :data:`MAX_ORBIT_PAIRS` basis pairs."""
    n_pairs = multinomial(lam.degree, lam) * multinomial(mu.degree, mu)
    _refuse_above(MAX_ORBIT_PAIRS, n_pairs, "basis pairs")


def _adjacent_transpositions(d: int) -> list[Perm]:
    """The transpositions ``(k, k+1)`` for k = 1..d-1, which generate the whole group."""
    return [(*range(1, k), k + 1, k, *range(k + 2, d + 1)) for k in range(1, d)]


def _index_maps(gens: list[Perm], basis: list[IndexTuple]) -> list[list[int]]:
    """For each generator, the position in ``basis`` of ``act(g, t)`` for every ``t``."""
    index = {t: k for k, t in enumerate(basis)}
    try:
        return [[index[act(g, t)] for t in basis] for g in gens]
    except KeyError as exc:
        raise InternalConsistencyError(
            f"the place action leaves the basis at {exc.args[0]}"
        ) from None


def tensor_orbit_decompose(lam: Iterable[int], mu: Iterable[int]) -> dict[Partition, int]:
    """Decompose a tensor product of permutation modules by explicit orbits.

    The basis of the product is the set of tuple pairs; orbits under the
    simultaneous place action are closed under adjacent transpositions.  Each
    transposition acts on each numbered tuple basis as an index map, built
    once through :func:`act`, and orbits are walked on pairs of indices.  For
    every orbit this verifies, rather than assumes, that all members share
    the multiset of value pairs ``zip(i, j)`` of its start (which is the
    value-overlap matrix) and that the orbit size is the multinomial of that
    matrix; the orbit's class is the matrix's nonzero entries, sorted.  Each
    member's pairs are compared as the sorted codes ``x * scale + y``, one
    integer per value pair, with ``scale`` above every value of ``j``.
    """
    lam, mu = _check_degrees(lam, mu)
    d = lam.degree
    _check_orbit_pairs(lam, mu)
    left = enumerate_tuples(lam)
    right = enumerate_tuples(mu)
    gens = _adjacent_transpositions(d)
    maps = list(zip(_index_maps(gens, left), _index_maps(gens, right)))
    scale = len(mu) + 1
    scaled_left = [[x * scale for x in i] for i in left]

    width = len(right)
    seen = bytearray(len(left) * width)
    classes: Counter[Partition] = Counter()
    for a0 in range(len(left)):
        for b0 in range(width):
            if seen[a0 * width + b0]:
                continue
            seen[a0 * width + b0] = 1
            orbit = [(a0, b0)]
            # The loop also visits the pairs appended while it runs.
            for a, b in orbit:
                for left_map, right_map in maps:
                    na, nb = left_map[a], right_map[b]
                    if not seen[na * width + nb]:
                        seen[na * width + nb] = 1
                        orbit.append((na, nb))
            codes = sorted(map(add, scaled_left[a0], right[b0]))
            for a, b in orbit:
                if sorted(map(add, scaled_left[a], right[b])) != codes:
                    raise InternalConsistencyError(
                        "orbit members disagree on the overlap matrix"
                    )
            # The nonzero overlap-matrix entries, row-major.
            overlap = tuple(Counter(codes).values())
            if len(orbit) != multinomial(d, overlap):
                raise InternalConsistencyError(
                    f"orbit size {len(orbit)} differs from multinomial of {overlap}"
                )
            classes[sort_to_partition(overlap)] += 1
    return {p: classes[p] for p in sorted(classes, reverse=True)}


# -- characters ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _perm_char(lam: Composition) -> tuple[int, ...]:
    """Fixed basis tuples per cycle type, every tuple tested at every position.

    The tuples are enumerated for ``lam`` without its zero parts, which
    relabels the values that occur as 1..k; a word of k letters has at least
    k! arrangements, so k is at most 8 under the cap.  Column t of the basis
    is packed into one int, a byte per tuple holding its entry.  A tuple is
    fixed by ``rep`` when it agrees with its image ``act(rep, t)`` at every
    position, that is when its byte is zero in the OR over t of
    ``column[t] ^ column[rep[t]-1]``.
    """
    tuples = enumerate_tuples([p for p in lam if p])
    columns = [int.from_bytes(bytes(col), "little") for col in zip(*tuples)]
    row = []
    for rho in enumerate_partitions(lam.degree):
        diff = 0
        for t, s in enumerate(representative_permutation(rho)):
            diff |= columns[t] ^ columns[s - 1]
        row.append(diff.to_bytes(len(tuples), "little").count(0))
    return tuple(row)


def permutation_character(lam: Iterable[int]) -> tuple[int, ...]:
    """Character of the permutation module: fixed basis tuples per cycle type.

    Refuses modules with more than 8! basis tuples, before enumerating them.
    """
    lam = Composition(lam)
    _refuse_above(MAX_GROUP_ORDER, multinomial(lam.degree, lam), "basis tuples")
    return _perm_char(lam)


def character_scalar_product(d: int, phi: tuple[int, ...], psi: tuple[int, ...]) -> Fraction:
    """Group-averaged pairing of two degree-d rows, summed with the class sizes.

    Characters of a symmetric group are constant on inverse pairs, so the
    usual inverse in the second slot drops out.
    """
    _check_row(d, phi)
    _check_row(d, psi)
    total = sum(z * a * b for z, a, b in zip(class_sizes(d), phi, psi))
    return Fraction(total, math.factorial(d))


@lru_cache(maxsize=None)
def character_table(d: int) -> tuple[tuple[int, ...], ...]:
    """Irreducible characters, rows and columns in canonical partition order.

    Gram-Schmidt over the permutation characters in canonical order: that of
    ``mu`` is the irreducible of ``mu`` plus multiples of earlier rows (the
    partitions dominating ``mu``), so subtracting its projections onto them
    leaves the next row, which must have norm 1 and a positive degree.

    The last row, ``1^d``, needs all ``d!`` tuples, so a degree whose group
    order exceeds the permutation-character cap is refused before any work.
    """
    order = math.factorial(d)
    _refuse_above(MAX_GROUP_ORDER, order, "basis tuples")
    sizes = class_sizes(d)
    rows: list[tuple[int, ...]] = []
    for mu in enumerate_partitions(d):
        perm = permutation_character(mu)
        row = list(perm)
        for chi in rows:
            mult, rest = divmod(sum(z * a * b for z, a, b in zip(sizes, perm, chi)), order)
            if rest:
                raise InternalConsistencyError(f"fractional multiplicity in {tuple(mu)}")
            row = [a - mult * b for a, b in zip(row, chi)]
        if sum(z * a * a for z, a in zip(sizes, row)) != order or row[-1] <= 0:
            raise InternalConsistencyError(f"row {tuple(mu)} is not an irreducible character")
        rows.append(tuple(row))
    return tuple(rows)


# -- Jacobi-Trudi determinants ------------------------------------------------


@lru_cache(maxsize=None)
def _det_expansion(parts: tuple[int, ...]) -> dict[Partition, int]:
    """Signed expansion of ``det(x_{parts[i] - i + j})`` with x_0 = 1, x_{<0} = 0.

    Every permutation that picks no zero entry x_{<0} contributes its sign on
    the sorted tuple of positive indices, ``parts[i] - i - 1`` plus its image
    of ``i``; the result maps partitions to integer coefficients, in
    decreasing order.  ``parts`` is a partition, so the offsets
    ``parts[i] - i - 1`` fall strictly down the rows, and the top rows whose
    offset is at least -1 take any column.
    The rows below them are walked from the last, which has the fewest
    columns, extending a partial permutation only by columns whose index is
    not negative; the top rows then take every arrangement of the columns
    left.  Refuses more than 8! permutations before any work.
    """
    n = len(parts)
    _refuse_above(MAX_GROUP_ORDER, math.factorial(n), "determinant terms")
    base = [p - i - 1 for i, p in enumerate(parts)]
    free = sum(1 for b in base if b >= -1)
    tails: list[Perm] = [()]
    for b in reversed(base[free:]):
        tails = [(j, *tail) for tail in tails for j in range(-b, n + 1) if j not in tail]
    acc: dict[tuple[int, ...], int] = {}
    for tail in tails:
        for head in itertools.permutations(sorted(set(range(1, n + 1)).difference(tail))):
            perm = head + tail
            # Every index is at least 0, so the zeros sort to the end.
            key = tuple(sorted(map(add, base, perm), reverse=True))
            acc[key] = acc.get(key, 0) + perm_sign(perm)
    return {
        Partition([k for k in key if k]): v for key, v in sorted(acc.items(), reverse=True) if v
    }


def jacobi_trudi(lam: Iterable[int]) -> symfunc.SymFunc:
    """Schur function as the signed determinant expansion in the h basis."""
    lam = Partition(lam)
    return symfunc.SymFunc("h", lam.degree, _det_expansion(tuple(lam)))


def jacobi_trudi_dual(lam: Iterable[int]) -> symfunc.SymFunc:
    """Schur function as the conjugate-shape determinant in the e basis."""
    lam = Partition(lam)
    return symfunc.SymFunc("e", lam.degree, _det_expansion(tuple(conjugate(lam))))
