import importlib
import itertools
import sys
from collections import Counter

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # only the margin property below needs it
    given = None

from symkron import contingency
from symkron.combinat import (
    count_partitions_inside,
    enumerate_compositions,
    enumerate_partitions,
    multinomial,
)
from symkron.contingency import (
    MAX_LISTED_MATRICES,
    ContingencyMatrix,
    contingency_matrices,
    decompose_permutation_tensor,
    hom_dimension,
)
from symkron.errors import BudgetExceededError, DegreeMismatchError
from symkron.symfunc import basis_element

from oracles import brute_contingency

# The package re-exports the function ``kronecker`` under the submodule's name.
kronecker = importlib.import_module("symkron.kronecker")


def test_worked_example_matrices_and_order():
    mats = contingency_matrices((3, 1), (2, 1, 1))
    assert [m.rows for m in mats] == [
        ((2, 1, 0), (0, 0, 1)),
        ((2, 0, 1), (0, 1, 0)),
        ((1, 1, 1), (1, 0, 0)),
    ]
    assert all(m.row_sums == (3, 1) and m.col_sums == (2, 1, 1) for m in mats)


def test_single_row_and_permutation_matrices():
    assert [m.rows for m in contingency_matrices((4,), (2, 1, 1))] == [((2, 1, 1),)]
    assert [m.rows for m in contingency_matrices((1, 1), (1, 1))] == [
        ((1, 0), (0, 1)),
        ((0, 1), (1, 0)),
    ]


def test_validation_and_errors():
    with pytest.raises(DegreeMismatchError):
        contingency_matrices((2, 1), (1, 1))
    with pytest.raises(ValueError):
        ContingencyMatrix(((1, 0), (0, 0)), (1, 1), (1, 0))
    with pytest.raises(ValueError, match="row 1 sums to 0, expected 1"):
        ContingencyMatrix(((1, 0), (0, 0)), (1, 1), (1, 1))
    with pytest.raises(ValueError, match="column 0 sums to 2, expected 1"):
        ContingencyMatrix(((1, 0), (1, 0)), (1, 1), (1, 1))
    # With no rows every column still sums to 0.
    with pytest.raises(ValueError, match="column 0 sums to 0, expected 1"):
        ContingencyMatrix((), (), (1,))


def test_matrix_helpers():
    mat = contingency_matrices((3, 1), (2, 1, 1))[0]
    assert mat.as_composition() == (2, 1, 0, 0, 0, 1)
    t = mat.transpose()
    assert t.rows == ((2, 0), (1, 0), (0, 1))
    assert t.row_sums == (2, 1, 1) and t.col_sums == (3, 1)
    assert mat.to_json_dict() == {
        "rows": [[2, 1, 0], [0, 0, 1]],
        "row_sums": [3, 1],
        "col_sums": [2, 1, 1],
    }


def test_enumeration_matches_brute_force():
    for d in range(5):
        margins = [c for n in range(1, 4) for c in enumerate_compositions(n, d)]
        for lam, mu in itertools.product(margins, repeat=2):
            got = {m.rows for m in contingency_matrices(lam, mu)}
            assert got == brute_contingency(lam, mu)


def test_enumeration_order_is_row_major_descending():
    for lam, mu in [((2, 2), (2, 1, 1)), ((3, 2, 1), (2, 2, 2)), ((1, 1, 1), (1, 1, 1))]:
        flats = [m.as_composition() for m in contingency_matrices(lam, mu)]
        assert flats == sorted(flats, reverse=True)
        assert len(set(flats)) == len(flats)


def test_transpose_bijection():
    for d in range(7):
        margins = [c for n in range(5) for c in enumerate_compositions(n, d)]
        for lam, mu in itertools.combinations_with_replacement(margins, 2):
            direct = {m.rows for m in contingency_matrices(mu, lam)}
            flipped = {m.transpose().rows for m in contingency_matrices(lam, mu)}
            assert direct == flipped


def test_zero_margins_keep_zero_rows():
    mats = contingency_matrices((2, 0, 1), (1, 1, 1))
    assert all(m.rows[1] == (0, 0, 0) for m in mats)
    assert contingency_matrices((), ())[0].rows == ()


def test_decompose_examples():
    assert decompose_permutation_tensor((3, 1), (2, 1, 1)) == {
        (2, 1, 1): 2,
        (1, 1, 1, 1): 1,
    }
    assert decompose_permutation_tensor((5,), (3, 2)) == {(3, 2): 1}
    assert decompose_permutation_tensor((1, 1), (1, 1)) == {(1, 1): 2}
    assert decompose_permutation_tensor((), ()) == {(): 1}


def test_decompose_symmetry_and_margin_sorting():
    for d in range(8):
        for lam in enumerate_partitions(d):
            for mu in enumerate_partitions(d):
                assert decompose_permutation_tensor(lam, mu) == decompose_permutation_tensor(mu, lam)
    # zero parts and ordering of the margins are irrelevant
    assert decompose_permutation_tensor((2, 0, 1, 0, 1, 0), (1, 3)) == decompose_permutation_tensor(
        (2, 1, 1), (3, 1)
    )
    assert decompose_permutation_tensor((1, 2), (0, 3)) == decompose_permutation_tensor((2, 1), (3,))
    from symkron.combinat import sort_to_partition

    for d in range(5):
        margins = [c for n in range(1, 4) for c in enumerate_compositions(n, d)]
        for lam, mu in itertools.product(margins, repeat=2):
            assert decompose_permutation_tensor(lam, mu) == decompose_permutation_tensor(
                sort_to_partition(lam), sort_to_partition(mu)
            )


def _brute_decompose(lam, mu):
    return Counter(
        tuple(sorted((v for row in rows for v in row if v), reverse=True))
        for rows in brute_contingency(lam, mu)
    )


def _check_both_orders(lam, mu):
    expected = _brute_decompose(lam, mu)
    got = decompose_permutation_tensor(lam, mu)
    assert got == decompose_permutation_tensor(mu, lam) == expected
    assert list(got) == sorted(got, reverse=True)
    assert sum(got.values()) == hom_dimension(lam, mu) == hom_dimension(mu, lam)


def test_forced_rows_and_columns_in_both_orders():
    # One row or one column, before or after dropping zeros, and walks that
    # reach one column after some rows.
    for lam, mu in [
        ((), ()),
        ((0,), (0, 0)),
        ((5,), (2, 0, 2, 1)),
        ((0, 4, 0), (1, 1, 1, 1)),
        ((7,), (3, 2, 1, 1)),
        ((1,) * 6, (6,)),
        ((1,) * 6, (5, 1)),
        ((3, 1, 1, 1), (5, 1)),
        ((2, 2, 1, 1), (3, 3)),
    ]:
        _check_both_orders(lam, mu)


def test_walk_puts_the_longer_margin_first():
    walk = contingency._walk
    ones = (1,) * 1100
    for lam, mu, rows, budgets in [
        ((2, 2), (1, 1, 1, 1), (1, 1, 1, 1), (2, 2)),
        ((1, 3), (0, 1, 1, 2), (2, 1, 1), (3, 1)),
        ((1099, 1), ones, ones, (1099, 1)),
    ]:
        assert walk(lam, mu) == walk(mu, lam) == (rows, budgets)
    # Margins with as many parts keep their order.
    assert walk((3, 1), (2, 2)) == ((3, 1), (2, 2))
    for lam, mu in [((2, 2), (1, 1, 1, 1)), ((3, 1), (1, 1, 1, 1)), ((4, 2), (2, 1, 1, 1, 1))]:
        _check_both_orders(lam, mu)


def test_deep_count_answers_near_the_recursion_limit():
    # The walk keeps no frame per row, so 1100 rows answer however deep the caller is.
    def depth():
        frame, n = sys._getframe(), 0
        while frame is not None:
            frame, n = frame.f_back, n + 1
        return n

    def counts(levels):
        if levels:
            return counts(levels - 1)
        ones = (1,) * 1100
        return (
            hom_dimension(ones, (1099, 1)),
            hom_dimension((1099, 1), ones),
            decompose_permutation_tensor(ones, (1099, 1)),
        )

    levels = sys.getrecursionlimit() - 60 - depth()
    assert counts(levels) == (1100, 1100, {(1,) * 1100: 1100})


def test_margin_state_cap(monkeypatch):
    # 2,2 against 1^4: 6 states inside the 2 x 2 box, 2 children each, 4 rows.
    # 3,2,1 against 1^6: the 14 states of the staircase, under the
    # rectangle's 20, 3 children each, 6 rows.
    for lam, mu, states, work in [
        ((2, 2), (1, 1, 1, 1), 6, 48),
        ((3, 2, 1), (1,) * 6, 14, 252),
    ]:
        for memo in (contingency._CLASSES, contingency._TABLES):
            memo.clear()
        monkeypatch.setattr(contingency, "MAX_MARGIN_STATES", work - 1)
        message = f"^{states} margin states x .* = {work} exceed the cap of {work - 1}$"
        with pytest.raises(BudgetExceededError, match=message):
            hom_dimension(lam, mu)
        with pytest.raises(BudgetExceededError, match=message):
            decompose_permutation_tensor(mu, lam)
        monkeypatch.setattr(contingency, "MAX_MARGIN_STATES", work)
        assert sum(decompose_permutation_tensor(lam, mu).values()) == hom_dimension(mu, lam)
    monkeypatch.undo()
    # Two rows list one state's children: 551 of them, however large the box.
    assert hom_dimension((550, 550), (550, 550)) == 551
    assert decompose_permutation_tensor((600, 400), (700, 300))[(400, 300, 200, 100)] == 1
    # Big parts leave few choices down the rows: 400,300,300 against 500,500.
    assert hom_dimension((400, 300, 300), (500, 500)) == 80501


def test_stored_states_stay_within_the_prediction():
    # A state is fixed by its sorted budgets left, which fit inside the
    # diagram of the budgets.
    for d in range(9):
        for lam, mu in itertools.product(enumerate_partitions(d), repeat=2):
            budgets = contingency._walk(lam, mu)[1]
            for memo, count in [
                (contingency._CLASSES, decompose_permutation_tensor),
                (contingency._TABLES, hom_dimension),
            ]:
                memo.clear()
                count(lam, mu)
                assert len(memo) <= count_partitions_inside(budgets)


if given is not None:

    @st.composite
    def _margin_pair(draw):
        d = draw(st.integers(0, 7))

        def composition():
            cuts = sorted(draw(st.lists(st.integers(0, d), max_size=5)))
            return tuple(b - a for a, b in zip((0, *cuts), (*cuts, d)))

        return composition(), composition()

    @settings(deadline=None, max_examples=150)
    @given(_margin_pair())
    def test_margin_rule_is_symmetric_and_matches_the_listing(pair):
        _check_both_orders(*pair)


def test_decompose_matches_brute_force_matrices():
    pairs = []
    for d in range(5):
        margins = [c for n in range(1, 4) for c in enumerate_compositions(n, d)]
        pairs.extend(itertools.product(margins, repeat=2))
    for d in range(7):
        pairs.extend(itertools.product(enumerate_partitions(d), repeat=2))
    for lam, mu in pairs:
        got = decompose_permutation_tensor(lam, mu)
        assert got == _brute_decompose(lam, mu)
        assert list(got) == sorted(got, reverse=True)


def test_decompose_total_is_hom_dimension():
    for d in range(9):
        for lam, mu in itertools.product(enumerate_partitions(d), repeat=2):
            assert sum(decompose_permutation_tensor(lam, mu).values()) == hom_dimension(lam, mu)


def test_kronecker_table_never_materializes_matrices(monkeypatch):
    parts = enumerate_partitions(6)

    def table():
        return {
            (lam, mu): kronecker.kronecker(basis_element("s", lam), basis_element("s", mu))
            for lam, mu in itertools.product(parts, repeat=2)
        }

    expected = table()

    def refuse(*args, **kwargs):
        raise AssertionError("margin matrices materialized")

    monkeypatch.setattr(contingency, "contingency_matrices", refuse)
    monkeypatch.setattr(ContingencyMatrix, "__init__", refuse)
    contingency._CLASSES.clear()
    kronecker._kronecker_h.cache_clear()
    assert table() == expected


def test_decompose_returns_a_fresh_dict():
    first = decompose_permutation_tensor((2, 1, 1), (2, 2))
    expected = dict(first)
    first[(4,)] = 7
    first[(2, 1, 1)] = 0
    del first[(1, 1, 1, 1)]
    assert decompose_permutation_tensor((2, 1, 1), (2, 2)) == expected
    assert decompose_permutation_tensor((1, 2, 1), (2, 0, 2)) == expected


def test_dimension_count_is_conserved():
    for d in range(8):
        for lam in enumerate_partitions(d):
            for mu in enumerate_partitions(d):
                pieces = contingency_matrices(lam, mu)
                total = sum(multinomial(d, m.as_composition()) for m in pieces)
                assert total == multinomial(d, lam) * multinomial(d, mu)


def test_hom_dimension():
    assert hom_dimension((3, 1), (2, 1, 1)) == 3
    assert hom_dimension((4,), (4,)) == 1
    assert hom_dimension((1, 1), (1, 1)) == 2
    with pytest.raises(DegreeMismatchError):
        hom_dimension((2,), (1,))
    for d in range(7):
        for lam in enumerate_partitions(d):
            for mu in enumerate_partitions(d):
                assert hom_dimension(lam, mu) == len(contingency_matrices(lam, mu))
    # compositions with zero parts keep their zero rows and columns
    assert hom_dimension((2, 0, 2), (1, 1, 1, 1)) == len(
        contingency_matrices((2, 0, 2), (1, 1, 1, 1))
    )


def test_listing_budget(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("margin matrix built")

    monkeypatch.setattr(ContingencyMatrix, "__init__", refuse)
    with pytest.raises(BudgetExceededError, match="362880 margin matrices exceed the listing cap of 40320"):
        contingency_matrices((1,) * 9, (1,) * 9)
    # 1^8 x 1^8 sits at the cap and still lists; a cheap stand-in counts it.
    monkeypatch.setattr(contingency, "ContingencyMatrix", lambda rows, lam, mu: rows)
    assert hom_dimension((1,) * 8, (1,) * 8) == MAX_LISTED_MATRICES == 40320
    assert len(contingency_matrices((1,) * 8, (1,) * 8)) == 40320
