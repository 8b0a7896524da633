"""Nonnegative integer matrices with prescribed margins.

These matrices index the decomposition of a tensor product of permutation
modules: every matrix with row sums ``lam`` and column sums ``mu``
contributes one transitive summand, whose class is the matrix read
row-major as a composition and sorted to a partition.  The decomposition
itself is counted row by row, like ``hom_dimension``, and never builds a
matrix; only the listing materializes them.

Transposing a matrix keeps its class, so both counts are symmetric in the
two margins.  They walk the rows of the margin with more parts, the shorter
margin giving the column budgets, and stop when one row or one column is
left, since the rest of the matrix is then forced.  The walk recurses once
per row, so when the longer margin has too many parts for the recursion
room left, the rows run along the first margin, as given; a walk that is
then still too deep, such as ``1^1100`` against ``1099,1``, is refused at
Python's recursion limit.

Enumeration order is canonical and documented: matrices are produced in
lexicographically descending order of their row-major entry vector, so
output is byte-stable across runs.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Iterable
from functools import lru_cache

from .combinat import (
    Composition,
    Partition,
    _bounded_compositions,
    _check_degrees,
    sort_to_partition,
)
from .errors import BudgetExceededError

# The same 8! as the permutation-character cap: 1^8 x 1^8 still lists.
MAX_LISTED_MATRICES = math.factorial(8)


class ContingencyMatrix(namedtuple("ContingencyMatrix", "rows row_sums col_sums")):
    """Matrix of nonnegative integers with fixed row and column sums."""

    __slots__ = ()

    def __new__(
        cls, rows: tuple[tuple[int, ...], ...], row_sums: Composition, col_sums: Composition
    ):
        n = len(col_sums)
        if len(rows) != len(row_sums):
            raise ValueError("row count does not match row_sums")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("column count does not match col_sums")
            if sum(row) != row_sums[i]:
                raise ValueError(f"row {i} sums to {sum(row)}, expected {row_sums[i]}")
        # The zero row keeps every column when there are no rows.
        cols = map(sum, zip((0,) * n, *rows))
        for j, (col, want) in enumerate(zip(cols, col_sums)):
            if col != want:
                raise ValueError(f"column {j} sums to {col}, expected {want}")
        return super().__new__(cls, rows, row_sums, col_sums)

    def as_composition(self) -> Composition:
        """Row-major reading of the entries."""
        return Composition(v for row in self.rows for v in row)

    def transpose(self) -> "ContingencyMatrix":
        flipped = tuple(zip(*self.rows)) if self.rows else ((),) * len(self.col_sums)
        return ContingencyMatrix(flipped, self.col_sums, self.row_sums)

    def to_json_dict(self) -> dict:
        return {
            "rows": [list(row) for row in self.rows],
            "row_sums": list(self.row_sums),
            "col_sums": list(self.col_sums),
        }


def contingency_matrices(lam: Iterable[int], mu: Iterable[int]) -> list[ContingencyMatrix]:
    """All matrices with row sums ``lam`` and column sums ``mu``.

    Rows are generated one at a time as bounded compositions of the row sum,
    the bounds being the remaining column budgets, depth first on an explicit
    stack, so the listing keeps no Python frame per row.  More than
    ``MAX_LISTED_MATRICES`` matrices, counted by ``hom_dimension`` first,
    are refused before any is built.
    """
    lam, mu = _check_degrees(lam, mu)
    count = hom_dimension(lam, mu)
    if count > MAX_LISTED_MATRICES:
        raise BudgetExceededError(
            f"{count} margin matrices exceed the listing cap of {MAX_LISTED_MATRICES}"
        )
    out: list[ContingencyMatrix] = []
    # (rows so far, budgets left); each node's next rows are pushed in
    # reverse, so they come off in canonical order.
    stack = [((), tuple(mu))]
    while stack:
        acc, budgets = stack.pop()
        if len(acc) == len(lam):
            out.append(ContingencyMatrix(acc, lam, mu))
            continue
        rows = list(_bounded_compositions(lam[len(acc)], budgets))
        stack.extend(
            (acc + (row,), tuple(b - r for b, r in zip(budgets, row))) for row in reversed(rows)
        )
    return out


def decompose_permutation_tensor(lam: Iterable[int], mu: Iterable[int]) -> dict[Partition, int]:
    """Multiset of transitive classes in the tensor product of two permutation modules.

    Each margin matrix contributes its row-major composition, sorted to a
    partition; the result maps each class to its multiplicity, keys in
    canonical partition order.  The matrices only index the summands: the
    classes are counted row by row, memoized on the remaining row sums and
    the sorted column budgets, without building any matrix.  Transposing a
    matrix keeps its class, so the result is symmetric in ``lam`` and ``mu``;
    the rows run along the margin with more parts when they fit in the
    recursion limit.  Partitions of one degree are taken as they are; any
    other input is checked and sorted once.
    """
    rows, budgets = _walk(lam, mu)
    counts = _count_classes(rows, budgets)
    # Keys are sorted tuples of positive entries, built by the count itself.
    return {tuple.__new__(Partition, p): counts[p] for p in sorted(counts, reverse=True)}


def _walk(lam: Iterable[int], mu: Iterable[int]) -> tuple[Partition, Partition]:
    """Row sums and column budgets for a count, each sorted without zeros.

    Permuting rows or columns, dropping zero ones, or transposing the matrix
    keeps both the count and the class multiset.  More rows mean fewer
    budgets, so fewer bounded compositions per row.  A second margin with
    more parts gives the rows only if they fit in the recursion room left;
    otherwise the rows stay on the first margin, as given, since a short
    margin's rows over many budgets can take far longer than a refusal.
    """
    if not (type(lam) is Partition and type(mu) is Partition and sum(lam) == sum(mu)):
        lam, mu = _check_degrees(lam, mu)
        lam, mu = sort_to_partition(lam), sort_to_partition(mu)
    if len(lam) < len(mu) and _fits(len(mu)):
        lam, mu = mu, lam
    return lam, mu


# Units of the recursion limit kept for calls above the count that make no
# Python frame, such as the caches between a command and the count.
_SPARE_DEPTH = 50


def _fits(rows: int) -> bool:
    """Whether a walk of ``rows`` rows stays within the recursion limit.

    Each row costs two units of the limit, the count's frame and the call
    through its cache (CPython 3.10-3.12; 3.13 counts the frame only); the
    frames already on the stack use the rest.
    """
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return 2 * rows + depth + _SPARE_DEPTH < sys.getrecursionlimit()


@lru_cache(maxsize=None)
def _count_classes(
    row_sums: tuple[int, ...], budgets: tuple[int, ...]
) -> dict[tuple[int, ...], int]:
    # Both margins arrive sorted without zeros.  One row or one column left
    # is forced: the row is the budgets, the column the row sums.  The cached
    # dict is shared: read it, never hand it out.
    if len(row_sums) <= 1:
        return {budgets: 1}
    if len(budgets) == 1:
        return {row_sums: 1}
    out: dict[tuple[int, ...], int] = {}
    rest_rows = row_sums[1:]
    for row in _bounded_compositions(row_sums[0], budgets):
        rest = tuple(sorted((b - r for b, r in zip(budgets, row) if b > r), reverse=True))
        entries = tuple(r for r in row if r)
        for cls, mult in _count_classes(rest_rows, rest).items():
            key = tuple(sorted(cls + entries, reverse=True))
            out[key] = out.get(key, 0) + mult
    return out


def hom_dimension(lam: Iterable[int], mu: Iterable[int]) -> int:
    """Number of matrices with the given margins, without materializing them.

    Counts row by row along the same walk as ``decompose_permutation_tensor``,
    so it is symmetric too; the count from a partially filled matrix depends
    only on the remaining rows and the multiset of remaining column budgets,
    which keeps the memo table small.
    """
    return _count_tables(*_walk(lam, mu))


@lru_cache(maxsize=None)
def _count_tables(row_sums: tuple[int, ...], budgets: tuple[int, ...]) -> int:
    if len(row_sums) <= 1 or len(budgets) == 1:
        return 1
    total = 0
    rest_rows = row_sums[1:]
    for row in _bounded_compositions(row_sums[0], budgets):
        rest = tuple(sorted((b - r for b, r in zip(budgets, row) if b > r), reverse=True))
        total += _count_tables(rest_rows, rest)
    return total
