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
left, since the rest of the matrix is then forced.  The walk is depth first
on an explicit stack, so it keeps no Python frame per row, and a walk whose
predicted work exceeds ``MAX_MARGIN_STATES`` is refused before it starts.

Enumeration order is canonical and documented: matrices are produced in
lexicographically descending order of their row-major entry vector, so
output is byte-stable across runs.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable
from operator import sub

from .combinat import (
    Composition,
    Partition,
    _bounded_compositions,
    _check_degrees,
    _shared,
    count_partitions_inside,
    sort_to_partition,
)
from .errors import BudgetExceededError

# The same 8! as the permutation-character cap: 1^8 x 1^8 still lists.
MAX_LISTED_MATRICES = math.factorial(8)
# Children a margin walk may list times its rows, predicted by _check_walk:
# 300,300 against 1^600 (5.5e7) still counts, 550,550 against 1^1100 (3.3e8)
# is refused.
MAX_MARGIN_STATES = 10**8


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
    classes are counted row by row, without building any matrix, so the
    result is symmetric in ``lam`` and ``mu``.  Partitions of one degree are
    taken as they are; any other input is checked and sorted once.
    """
    counts = _count(*_walk(lam, mu), classes=True)
    # Each class is a sorted tuple of positive entries, so a partition: key it by its shape.
    return _shared((p, counts[p]) for p in sorted(counts, reverse=True))


def hom_dimension(lam: Iterable[int], mu: Iterable[int]) -> int:
    """Number of matrices with the given margins, without materializing them.

    Counts along the same walk as ``decompose_permutation_tensor``, so it is
    symmetric too.
    """
    return _count(*_walk(lam, mu), classes=False)


def _walk(lam: Iterable[int], mu: Iterable[int]) -> tuple[Partition, Partition]:
    """Row sums and column budgets for a count, each sorted without zeros.

    Permuting rows or columns, dropping zero ones, or transposing the matrix
    keeps both the count and the class multiset.  More rows mean fewer
    budgets, so fewer bounded compositions per row and fewer states.
    """
    if not (type(lam) is Partition and type(mu) is Partition and sum(lam) == sum(mu)):
        lam, mu = _check_degrees(lam, mu)
        lam, mu = sort_to_partition(lam), sort_to_partition(mu)
    return (mu, lam) if len(lam) < len(mu) else (lam, mu)


# Values of the states (row sums left, sorted budgets left) of every walk so
# far, shared by all calls.  A value is stored complete and never changed.
_CLASSES: dict = {}
_TABLES: dict = {}


def _count(rows: tuple, budgets: tuple, *, classes: bool):
    """Class multiset or matrix count of the state ``(rows, budgets)``.

    A state lists its children once, one per bounded composition of its first
    row sum under its budgets, and its value is stored after theirs.
    """
    memo = _CLASSES if classes else _TABLES
    root = (rows, budgets)
    value = memo.get(root)
    if value is not None:
        return value
    if len(rows) > 1 < len(budgets):
        _check_walk(rows, budgets)
    # Every state at one depth has the same rows left: share one tuple.
    tails: dict = {}
    stack = [(root, None)]
    while stack:
        state, kids = stack.pop()
        rows, budgets = state
        if kids is not None:
            memo[state] = _merge(kids, memo) if classes else sum(map(memo.__getitem__, kids))
        elif state in memo:  # stored since it was pushed
            continue
        elif len(rows) <= 1 or len(budgets) == 1:
            memo[state] = {budgets if len(rows) <= 1 else rows: 1} if classes else 1
        else:
            rest, kids = tails.setdefault(len(rows), rows[1:]), []
            stack.append((state, kids))  # its children go above it
            for row in _bounded_compositions(rows[0], budgets):
                left = sorted(filter(None, map(sub, budgets, row)), reverse=True)
                child = (rest, tuple(left))
                kids.append((row, child) if classes else child)  # classes gain the row
                if child not in memo:
                    stack.append((child, None))
    return memo[root]


def _check_walk(rows: tuple[int, ...], budgets: tuple[int, ...]) -> None:
    """Refuse a walk predicted to list more than ``MAX_MARGIN_STATES`` row sums.

    Each child the walk lists is a state keyed by up to ``len(rows)`` row
    sums.  A state lists at most ``C(k + c - 1, c - 1)`` children, ``k``
    being the smaller of its row sum and the budget it leaves, which shrinks
    row by row.  So the children are at most the products of those counts
    down the rows, and the first row's count times the partitions inside the
    budgets' diagram (first bounded by its rectangle), which hold every state.
    """
    c, left, limit = len(budgets), sum(rows), MAX_MARGIN_STATES // len(rows)
    widest = math.comb(min(rows[0], left - rows[0]) + c - 1, c - 1)
    if math.comb(c + budgets[0], c) * widest <= limit:
        return
    listed = layer = 1
    for r in rows[:-1]:
        left -= r
        layer *= math.comb(min(r, left) + c - 1, c - 1)
        listed += layer
        if listed > limit:
            break
    else:
        return
    states = count_partitions_inside(budgets)
    if states * widest > limit:
        raise BudgetExceededError(
            f"{states} margin states x {widest} children x {len(rows)} rows = "
            f"{states * widest * len(rows)} exceed the cap of {MAX_MARGIN_STATES}"
        )


def _merge(kids: list, memo: dict) -> dict[tuple[int, ...], int]:
    # Each child's classes gain its row's entries; memoized dicts are only read.
    out: dict[tuple[int, ...], int] = {}
    for row, child in kids:
        entries = tuple(filter(None, row))
        for cls, mult in memo[child].items():
            key = tuple(sorted(cls + entries, reverse=True))
            out[key] = out.get(key, 0) + mult
    return out
