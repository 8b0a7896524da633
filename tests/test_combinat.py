import math
import itertools
from operator import ge

import pytest

from symkron.combinat import (
    Composition,
    Partition,
    _border_strips,
    _horizontal_strips,
    _removal_strips,
    _walk,
    conjugate,
    count_partitions_inside,
    count_ssyt,
    count_standard_tableaux,
    dominance_leq,
    enumerate_compositions,
    enumerate_partitions,
    format_parts,
    multinomial,
    parse_parts,
    sort_to_partition,
)
from symkron.errors import DegreeMismatchError

from oracles import brute_compositions, brute_conjugate, brute_partitions, brute_ssyt


def test_partition_validation():
    assert Partition((3, 1)) == (3, 1)
    assert Partition() == ()
    assert Partition((3, 1)).degree == 4
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Composition((1, -1))
    assert Composition((2, 0, 1)).degree == 3


def test_composition_enumeration_examples():
    assert enumerate_compositions(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert enumerate_compositions(1, 5) == [(5,)]
    assert len(enumerate_compositions(3, 4)) == 15
    assert enumerate_compositions(0, 0) == [()]
    assert enumerate_compositions(0, 3) == []


def test_composition_counts_and_brute_force():
    for n in range(1, 9):
        for d in range(9):
            comps = enumerate_compositions(n, d)
            assert len(comps) == math.comb(d + n - 1, n - 1)
            assert len(set(comps)) == len(comps)
    # The whole canonical order: lexicographically descending.
    for n in range(5):
        for d in range(7):
            assert enumerate_compositions(n, d) == sorted(brute_compositions(n, d), reverse=True)


def test_compositions_of_many_parts_keep_no_stack():
    # The walk's depth does not grow with the number of parts.
    comps = enumerate_compositions(1500, 1)
    assert len(comps) == 1500
    assert comps[0] == (1,) + (0,) * 1499 and comps[-1] == (0,) * 1499 + (1,)


def test_partition_enumeration():
    assert enumerate_partitions(0) == ((),)
    assert enumerate_partitions(2) == ((2,), (1, 1))
    assert len(enumerate_partitions(4)) == 5
    for d in range(11):
        parts = enumerate_partitions(d)
        assert set(map(tuple, parts)) == brute_partitions(d)
        # reverse lexicographic, no repeats
        assert list(parts) == sorted(parts, reverse=True)
        assert len(set(parts)) == len(parts)


def test_conjugate_examples():
    assert conjugate((1, 1)) == (2,)
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((4, 3, 3, 1)) == (4, 3, 3, 1)
    assert conjugate(()) == ()


def test_conjugate_involution_and_brute_force():
    for d in range(11):
        for lam in enumerate_partitions(d):
            assert conjugate(lam) == brute_conjugate(lam)
            assert conjugate(conjugate(lam)) == lam


def test_dominance_examples():
    assert dominance_leq((1, 1, 1), (2, 1))
    assert dominance_leq((2, 2), (3, 1))
    assert not dominance_leq((2, 1), (1, 1, 1))
    with pytest.raises(DegreeMismatchError):
        dominance_leq((2,), (2, 1))


def test_dominance_is_a_partial_order():
    for d in range(9):
        parts = enumerate_partitions(d)
        for lam in parts:
            assert dominance_leq(lam, lam)
        for lam, mu in itertools.product(parts, repeat=2):
            if dominance_leq(lam, mu) and dominance_leq(mu, lam):
                assert lam == mu
        for lam, mu, nu in itertools.product(parts, repeat=3):
            if dominance_leq(lam, mu) and dominance_leq(mu, nu):
                assert dominance_leq(lam, nu)


def test_canonical_order_refines_dominance():
    for d in range(9):
        parts = enumerate_partitions(d)
        for i, lam in enumerate(parts):
            for j, mu in enumerate(parts):
                if dominance_leq(mu, lam) and lam != mu:
                    assert i < j


def test_sort_to_partition():
    assert sort_to_partition((2, 0, 1, 0, 1, 0)) == (2, 1, 1)
    assert sort_to_partition((5,)) == (5,)
    assert sort_to_partition((0, 0)) == ()
    assert sort_to_partition(()) == ()


def test_count_ssyt_examples():
    assert count_ssyt((2, 1), (2, 1)) == 1
    assert count_ssyt((2, 1), (1, 1, 1)) == 2
    assert count_ssyt((1, 1, 1), (2, 1)) == 0
    with pytest.raises(DegreeMismatchError):
        count_ssyt((2, 1), (2, 2))
    # One Pieri step per part of the content, no frame per part.
    assert count_ssyt((1100,), (1,) * 1100) == count_ssyt((1,) * 1100, (1,) * 1100) == 1
    assert count_ssyt((150, 150), (1,) * 300) == math.comb(300, 150) // 151


def test_count_ssyt_against_brute_force():
    for d in range(6):
        contents = [c for n in range(min(d, 4) + 1) for c in enumerate_compositions(n, d)]
        if d == 0:
            contents = [Composition()]
        for lam in enumerate_partitions(d):
            for mu in contents:
                assert count_ssyt(lam, mu) == len(brute_ssyt(lam, mu))


def test_count_ssyt_content_permutation_invariance():
    for d in range(7):
        for lam in enumerate_partitions(d):
            for mu in enumerate_partitions(d):
                base = count_ssyt(lam, mu)
                for perm in set(itertools.permutations(mu)):
                    assert count_ssyt(lam, perm) == base


def test_count_ssyt_positive_iff_dominated():
    for d in range(9):
        for lam in enumerate_partitions(d):
            for mu in enumerate_partitions(d):
                positive = count_ssyt(lam, mu) > 0
                assert positive == dominance_leq(sort_to_partition(mu), lam)


def test_one_pieri_walk_gives_every_kostka_column():
    for d in range(11):
        parts = enumerate_partitions(d)
        for mu, column in zip(parts, _walk(parts, _horizontal_strips, {(): 1})):
            assert column == {lam: n for lam in parts if (n := count_ssyt(lam, mu))}


def _is_strip(outer, inner, border):
    """Whether ``outer / inner`` is a border strip, or else a horizontal strip (brute force)."""
    outer, inner = list(outer), list(inner) + [0] * (len(outer) - len(inner))
    if border:
        rows = [i for i, (a, b) in enumerate(zip(outer, inner)) if a != b]
        return rows == list(range(rows[0], rows[-1] + 1)) and all(
            outer[i + 1] == inner[i] + 1 for i in rows[:-1]
        )
    return all(outer[i + 1] <= inner[i] for i in range(len(outer) - 1))


@pytest.mark.parametrize("strips", [_horizontal_strips, _border_strips])
def test_adding_and_removing_strips_are_inverse(strips):
    border = strips is _border_strips
    for d in range(10):
        for shape in enumerate_partitions(d):
            for k in range(1, 10):
                added = strips(shape, k)
                for outer, sign in added:
                    assert (shape, sign) in strips(outer, -k)
                    # A border strip's sign is -1 to the number of rows it spans, less one.
                    rows = itertools.zip_longest(outer, shape, fillvalue=0)
                    assert sign == ((-1) ** (sum(a != b for a, b in rows) - 1) if border else 1)
                bigger = enumerate_partitions(d + k)
                inside = [p for p in bigger if len(p) >= len(shape) and all(map(ge, p, shape))]
                assert {outer for outer, _ in added} == {
                    p for p in inside if _is_strip(p, shape, border)
                }
                assert len(added) == len(set(added))
                for inner, sign in strips(shape, -k):
                    assert (shape, sign) in strips(inner, k) and Partition(inner).degree == d - k


def test_one_pass_removal_lists_the_strips_of_every_size():
    for d in range(1, 11):
        for shape in enumerate_partitions(d):
            by_size = _removal_strips(shape)
            assert len(by_size) == shape[0] + 1 and by_size[0] == (shape,)
            for k in range(1, d + 1):
                listed = by_size[k] if k <= shape[0] else []
                assert sorted(listed) == sorted(nu for nu, _ in _horizontal_strips(shape, -k))


def test_removal_walk_rows_are_the_addition_walk_columns_transposed():
    for d in range(11):
        parts = enumerate_partitions(d)
        columns = list(_walk(parts, _horizontal_strips, {(): 1}))
        removals = [tuple(-k for k in mu) for mu in parts]
        for lam in parts:
            row = [leaf.get((), 0) for leaf in _walk(removals, _horizontal_strips, {lam: 1})]
            assert row == [column.get(lam, 0) for column in columns]


def test_count_ssyt_is_the_same_for_every_reordering_of_the_content():
    # Bender-Knuth symmetry, which a walk that removes strips in any order relies on.
    for d in range(9):
        for mu in enumerate_partitions(d):
            orders = set(itertools.permutations(mu + (0,)))
            for lam in enumerate_partitions(d):
                assert len({count_ssyt(lam, order) for order in orders}) == 1


def test_partitions_inside_a_diagram():
    def brute(shape):
        return sum(
            len(lam) <= len(shape) and all(a <= b for a, b in zip(lam, shape))
            for e in range(sum(shape) + 1)
            for lam in brute_partitions(e)
        )

    for d in range(9):
        for shape in enumerate_partitions(d):
            assert count_partitions_inside(shape) == brute(shape)
    # c equal parts b: lattice paths in a c x b box; a staircase: Catalan numbers.
    assert count_partitions_inside((300, 300)) == math.comb(302, 2)
    assert count_partitions_inside((2,) * 400) == math.comb(402, 2)
    for n in range(13):
        staircase = tuple(range(n, 0, -1))
        assert count_partitions_inside(staircase) == math.comb(2 * n + 2, n + 1) // (n + 2)


def test_count_standard_tableaux():
    assert count_standard_tableaux(Partition((6,))) == 1
    assert count_standard_tableaux(Partition((2, 1))) == 2
    for d in range(9):
        total = sum(count_standard_tableaux(lam) ** 2 for lam in enumerate_partitions(d))
        assert total == math.factorial(d)


def test_multinomial():
    assert multinomial(4, (3, 1)) == 4
    assert multinomial(0, ()) == 1
    assert multinomial(3, (1, 1, 1)) == 6
    with pytest.raises(ValueError):
        multinomial(3, (2, 2))


def test_parts_text_round_trip():
    assert format_parts((3, 1)) == "3,1"
    assert format_parts(()) == "[]"
    assert parse_parts("3,1") == (3, 1)
    assert parse_parts("[]") == ()
    assert parse_parts("") == ()
    # One integer syntax: ASCII -?[0-9]+, where int() would also read these.
    for text in ("3,x", "1_0", "+1,1", "٣", "3,,1", "-"):
        with pytest.raises(ValueError, match="expected comma-separated integers"):
            parse_parts(text)
    for d in range(6):
        for lam in enumerate_partitions(d):
            assert parse_parts(format_parts(lam)) == tuple(lam)
