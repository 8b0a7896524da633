import ast
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from symkron import grouporacle, symfunc
from symkron.combinat import (
    Partition,
    centralizer_order,
    class_sizes,
    conjugate,
    count_standard_tableaux,
    enumerate_compositions,
    enumerate_partitions,
)
from symkron.contingency import decompose_permutation_tensor
from symkron.errors import BudgetExceededError, DegreeMismatchError, InternalConsistencyError
from symkron.grouporacle import (
    act,
    character_scalar_product,
    character_table,
    compose,
    cycle_type,
    enumerate_tuples,
    perm_sign,
    permutation_character,
    representative_permutation,
    tensor_orbit_decompose,
)
from symkron.symfunc import (
    basis_element,
    characteristic_map,
    convert,
    scalar_product,
    specht_character,
)

from oracles import brute_character_pairing, det_expansion_all_permutations, inverse_of, multinomial


def test_enumerate_tuples_examples():
    assert enumerate_tuples((2, 1)) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert enumerate_tuples((4,)) == [(1, 1, 1, 1)]
    assert len(enumerate_tuples((1, 1, 1, 1))) == 24
    assert enumerate_tuples(()) == [()]
    # zero parts skip their value but keep the labels of later parts
    assert enumerate_tuples((2, 0, 1)) == [(1, 1, 3), (1, 3, 1), (3, 1, 1)]


def test_enumerate_tuples_matches_distinct_permutations():
    for d in range(7):
        for n in range(1, 5):
            for lam in enumerate_compositions(n, d):
                word = [v for v, count in enumerate(lam, start=1) for _ in range(count)]
                assert enumerate_tuples(lam) == sorted(set(itertools.permutations(word)))


def test_act_examples():
    assert act((1, 2, 3), (1, 1, 2)) == (1, 1, 2)
    assert act((2, 1, 3), (1, 1, 2)) == (1, 1, 2)
    assert act((2, 3, 1), (1, 2, 3)) == (2, 3, 1)
    with pytest.raises(DegreeMismatchError):
        act((1, 2), (1, 1, 2))


def test_act_right_action_law():
    rng = random.Random(777)
    for _ in range(200):
        d = rng.randint(1, 6)
        i = tuple(rng.randrange(1, d + 1) for _ in range(d))
        sigma = tuple(rng.sample(range(1, d + 1), d))
        tau = tuple(rng.sample(range(1, d + 1), d))
        assert act(tau, act(sigma, i)) == act(compose(sigma, tau), i)


def test_cycle_type_and_representatives():
    assert representative_permutation((3, 2)) == (2, 3, 1, 5, 4)
    for d in range(8):
        for rho in enumerate_partitions(d):
            assert cycle_type(representative_permutation(rho)) == rho


def test_sign_and_class_sizes_counted_on_the_group():
    for d in range(7):
        perms = list(itertools.permutations(range(1, d + 1)))
        for sigma in perms:
            inversions = sum(1 for a, b in itertools.combinations(sigma, 2) if a > b)
            assert perm_sign(sigma) == (-1) ** inversions
        sizes = {rho: math.factorial(d) // centralizer_order(rho) for rho in enumerate_partitions(d)}
        assert Counter(cycle_type(sigma) for sigma in perms) == sizes


def test_centralizer_orders():
    assert {rho: 6 // centralizer_order(rho) for rho in enumerate_partitions(3)} == {
        (3,): 2, (2, 1): 3, (1, 1, 1): 1
    }
    assert {rho: centralizer_order(rho) for rho in enumerate_partitions(2)} == {
        (2,): 2, (1, 1): 2
    }
    assert class_sizes(3) == (2, 3, 1)
    for d in range(9):
        sizes = [math.factorial(d) // centralizer_order(rho) for rho in enumerate_partitions(d)]
        assert sum(sizes) == math.factorial(d)
        assert class_sizes(d) == tuple(sizes)
        assert sum(class_sizes(d)) == math.factorial(d)
        for rho, size in zip(enumerate_partitions(d), sizes):
            assert size * centralizer_order(rho) == math.factorial(d)


def test_tensor_orbit_examples():
    assert tensor_orbit_decompose((3, 1), (2, 1, 1)) == {(2, 1, 1): 2, (1, 1, 1, 1): 1}
    assert tensor_orbit_decompose((4,), (4,)) == {(4,): 1}
    assert tensor_orbit_decompose((1, 1), (1, 1)) == {(1, 1): 2}
    assert tensor_orbit_decompose((), ()) == {(): 1}


def test_tensor_orbit_budget(monkeypatch):
    monkeypatch.setattr(grouporacle, "MAX_ORBIT_PAIRS", 5)
    with pytest.raises(BudgetExceededError, match="18 basis pairs exceed the cap of 5"):
        tensor_orbit_decompose((2, 1), (1, 1, 1))
    with pytest.raises(DegreeMismatchError):
        tensor_orbit_decompose((2,), (1,))


def test_tensor_orbit_checks_every_orbit(monkeypatch):
    # With (1 2) acting as the identity, the orbits come out too small.
    real = grouporacle.act

    def broken(sigma, i):
        return i if sigma == (2, 1, 3) else real(sigma, i)

    monkeypatch.setattr(grouporacle, "act", broken)
    with pytest.raises(InternalConsistencyError):
        tensor_orbit_decompose((2, 1), (2, 1))


def test_tensor_orbit_checks_the_value_pairs_of_every_member(monkeypatch):
    # With (1 2) also swapping the values 1 and 2 of a tuple with three
    # distinct values, the index maps stay bijections of the basis, but some
    # orbit members carry other value pairs than the start of their orbit.
    real = grouporacle.act

    def relabelled(sigma, i):
        moved = real(sigma, i)
        if sigma == (2, 1, 3) and len(set(i)) == 3:
            return tuple({1: 2, 2: 1}.get(v, v) for v in moved)
        return moved

    monkeypatch.setattr(grouporacle, "act", relabelled)
    with pytest.raises(InternalConsistencyError, match="orbit members disagree on the overlap matrix"):
        tensor_orbit_decompose((2, 1), (1, 1, 1))


def test_tensor_orbit_refuses_an_action_that_leaves_the_basis(monkeypatch):
    # With (1 2) sending every tuple to a constant, the index maps cannot be built.
    real = grouporacle.act

    def broken(sigma, i):
        return (9,) * len(i) if sigma == (2, 1, 3) else real(sigma, i)

    monkeypatch.setattr(grouporacle, "act", broken)
    with pytest.raises(InternalConsistencyError, match="leaves the basis"):
        tensor_orbit_decompose((2, 1), (2, 1))


def test_tensor_orbit_matches_margin_rule():
    for d in range(5):
        for lam in enumerate_partitions(d):
            for mu in enumerate_partitions(d):
                assert tensor_orbit_decompose(lam, mu) == decompose_permutation_tensor(lam, mu)
    # The last two are the largest pairs of degree 6: 259200 and 518400 (the cap) basis pairs.
    for lam, mu in [
        ((2, 0, 1), (1, 1, 1)),
        ((0, 2), (1, 1)),
        ((2, 2), (1, 2, 1)),
        ((2, 1, 1, 1, 1), (1,) * 6),
        ((1,) * 6, (1,) * 6),
    ]:
        assert tensor_orbit_decompose(lam, mu) == decompose_permutation_tensor(lam, mu)


def test_permutation_character_examples():
    # Rows run over the cycle types in canonical order: (d) first, 1^d last.
    for d in range(1, 5):
        assert all(v == 1 for v in permutation_character((d,)))
    assert permutation_character((1, 1)) == (0, 2)
    assert permutation_character((2, 1)) == (0, 1, 3)
    # Degrees 0 and 1 have only the identity class.
    assert permutation_character(()) == (1,)
    assert permutation_character((1,)) == (1,)
    regular = permutation_character((1,) * 8)
    assert regular[-1] == math.factorial(8)
    assert all(v == 0 for v in regular[:-1])



def test_permutation_character_counts_the_fixed_tuples_one_by_one():
    # The bulk count against a count that applies each class representative
    # to each tuple, on compositions with zero parts too.
    def fixed_tuples(lam):
        tuples = enumerate_tuples(lam)
        reps = map(representative_permutation, enumerate_partitions(sum(lam)))
        return tuple(sum(act(rep, t) == t for t in tuples) for rep in reps)

    lams = [lam for d in range(7) for n in range(5) for lam in enumerate_compositions(n, d)]
    for lam in [*lams, *enumerate_partitions(7), *enumerate_partitions(8)]:
        assert permutation_character(lam) == fixed_tuples(lam), lam
    # Entries up to 302, more than one byte holds: the tuples are 1,302 and 302,1.
    assert permutation_character((1,) + (0,) * 300 + (1,)) == (0, 2)
    assert permutation_character((0,) * 300 + (2, 1)) == permutation_character((2, 1))


def test_permutation_character_enumerates_every_basis_tuple(monkeypatch):
    # Dropping the zero parts must not shrink the brute force: every tuple of
    # the module is still enumerated, through the module attribute.
    real = grouporacle.enumerate_tuples
    counted = []

    def counting(lam):
        out = real(lam)
        counted.append(len(out))
        return out

    grouporacle._perm_char.cache_clear()
    monkeypatch.setattr(grouporacle, "enumerate_tuples", counting)
    try:
        for lam in [(2, 1), (0, 3, 0, 2, 2), (1,) * 7, (0,) * 300 + (2, 1)]:
            counted.clear()
            permutation_character(lam)
            assert counted == [multinomial(sum(lam), lam)]
    finally:
        monkeypatch.undo()
        grouporacle._perm_char.cache_clear()


def test_permutation_character_budget(monkeypatch):
    from symkron import grouporacle

    # The cap is checked before any tuple is enumerated.
    monkeypatch.setattr(grouporacle, "_perm_char", lambda lam: lam)
    assert permutation_character((1,) * 8) == (1,) * 8  # 8! tuples: at the cap
    with pytest.raises(BudgetExceededError, match="181440 basis tuples exceed the cap of 40320"):
        permutation_character((2,) + (1,) * 7)
    with pytest.raises(BudgetExceededError, match="cap of 40320"):
        permutation_character((1, 2, 0, 1, 1, 1, 1, 1, 1))
    assert permutation_character((9,)) == (9,)

def test_permutation_character_is_conjugation_invariant():
    rng = random.Random(4242)
    for d in range(1, 6):
        for lam in enumerate_partitions(d):
            char = permutation_character(lam)
            tuples = enumerate_tuples(lam)
            for rho, value in zip(enumerate_partitions(d), char):
                rep = representative_permutation(rho)
                pi = tuple(rng.sample(range(1, d + 1), d))
                conj = compose(compose(pi, rep), inverse_of(pi))
                assert cycle_type(conj) == rho
                fixed = sum(1 for t in tuples if act(conj, t) == t)
                assert fixed == value


def test_character_rows_refuse_a_degree_mismatch():
    trivial3 = permutation_character((3,))
    # Degrees 0 and 1 both have one class: the degree comes with the row.
    assert characteristic_map(0, (1,)) == basis_element("p", ())
    assert characteristic_map(1, (1,)) == basis_element("p", (1,))
    for d, row in [(2, trivial3), (4, trivial3), (3, (1, 1)), (3, ())]:
        with pytest.raises(DegreeMismatchError, match=f"a character of degree {d} has"):
            characteristic_map(d, row)
    with pytest.raises(DegreeMismatchError, match="degree 3 has 3 values, got 2"):
        character_scalar_product(3, trivial3, permutation_character((2,)))
    with pytest.raises(DegreeMismatchError, match="degree 2 has 2 values, got 3"):
        character_scalar_product(2, trivial3, trivial3)


def test_character_scalar_product_examples():
    trivial3 = permutation_character((3,))
    assert character_scalar_product(3, trivial3, trivial3) == 1
    chi21 = specht_character((2, 1))
    assert character_scalar_product(3, chi21, chi21) == 1
    assert character_scalar_product(3, permutation_character((2, 1)), trivial3) == 1
    with pytest.raises(DegreeMismatchError):
        character_scalar_product(3, trivial3, permutation_character((2,)))


def test_character_scalar_product_against_full_group_sum():
    for d in range(1, 5):
        chars = [permutation_character(lam) for lam in enumerate_partitions(d)]
        chars += [specht_character(lam) for lam in enumerate_partitions(d)]
        for phi, psi in itertools.product(chars, repeat=2):
            assert character_scalar_product(d, phi, psi) == brute_character_pairing(
                phi, psi, d
            )


def test_specht_character_examples():
    for d in range(1, 6):
        assert all(v == 1 for v in specht_character((d,)))
    assert specht_character((1, 1)) == (-1, 1)
    assert specht_character((2, 1)) == (-1, 0, 2)


def test_specht_characters_are_orthonormal():
    for d in range(6):
        for lam in enumerate_partitions(d):
            for mu in enumerate_partitions(d):
                expected = Fraction(1 if lam == mu else 0)
                assert character_scalar_product(
                    d, specht_character(lam), specht_character(mu)
                ) == expected


def test_permutation_characters_decompose_with_tableau_counts():
    from symkron.symfunc import build_kostka_table

    for d in range(6):
        table = build_kostka_table(d)
        for mu in table.partitions:
            perm = permutation_character(mu)
            for k, value in enumerate(perm):
                total = sum(
                    table.kostka(lam, mu) * specht_character(lam)[k]
                    for lam in table.partitions
                )
                assert total == value


def test_character_degrees_count_standard_tableaux():
    for d in range(1, 7):
        identity = enumerate_partitions(d).index(Partition((1,) * d))
        for lam in enumerate_partitions(d):
            assert specht_character(lam)[identity] == count_standard_tableaux(lam)


def test_product_of_permutation_characters_matches_orbits():
    for d in range(5):
        for lam in enumerate_partitions(d):
            for mu in enumerate_partitions(d):
                phi, psi = permutation_character(lam), permutation_character(mu)
                pieces = tensor_orbit_decompose(lam, mu)
                for k, (a, b) in enumerate(zip(phi, psi)):
                    total = sum(
                        mult * permutation_character(cls)[k]
                        for cls, mult in pieces.items()
                    )
                    assert total == a * b


def test_characteristic_map_examples():
    for d in range(7):
        image = characteristic_map(d, permutation_character((d,) if d else ()))
        assert convert(image, "h") == basis_element("h", (d,) if d else ())
    assert convert(characteristic_map(3, permutation_character((2, 1))), "h") == basis_element(
        "h", (2, 1)
    )
    for d in range(7):
        for lam in enumerate_partitions(d):
            assert convert(
                characteristic_map(d, specht_character(lam)), "s"
            ) == basis_element("s", lam)
            assert convert(
                characteristic_map(d, permutation_character(lam)), "h"
            ) == basis_element("h", lam)


def test_characteristic_map_is_an_isometry():
    for d in range(6):
        chars = [permutation_character(lam) for lam in enumerate_partitions(d)]
        for phi, psi in itertools.product(chars, repeat=2):
            assert scalar_product(
                characteristic_map(d, phi), characteristic_map(d, psi)
            ) == character_scalar_product(d, phi, psi)


def test_character_table_row_order():
    # first row is the trivial character, last column evaluates at the identity
    for d in range(9):
        parts = enumerate_partitions(d)
        table = character_table(d)
        assert all(v == 1 for v in table[0])
        identity_col = parts.index(Partition((1,) * d))
        for row, lam in zip(table, parts):
            assert row[identity_col] == count_standard_tableaux(lam)


def test_character_table_equals_murnaghan_nakayama():
    for d in range(8):
        assert character_table(d) == tuple(map(specht_character, enumerate_partitions(d)))


def test_character_table_refuses_before_any_work(monkeypatch):
    from symkron import grouporacle

    def forbidden(lam):
        raise AssertionError(f"permutation character of {tuple(lam)} computed")

    monkeypatch.setattr(grouporacle, "permutation_character", forbidden)
    with pytest.raises(BudgetExceededError, match="362880 basis tuples exceed the cap of 40320"):
        character_table(9)


def test_character_table_never_reads_the_kostka_table(monkeypatch):
    saved = {d: character_table(d) for d in range(7)}

    def forbidden(d):
        raise AssertionError(f"the brute-force character table read the Kostka table at {d}")

    monkeypatch.setattr(symfunc, "build_kostka_table", forbidden)
    monkeypatch.setattr(symfunc, "_h_in_s", forbidden)
    character_table.cache_clear()
    assert {d: character_table(d) for d in range(7)} == saved


def test_the_oracle_shares_no_table_with_the_production_route():
    # The verifier and the route under test share no table: the oracle names
    # none of the production functions and reads only the SymFunc type from symfunc.
    tree = ast.parse(Path(grouporacle.__file__).read_text())
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update((node.name, node.asname))
        elif isinstance(node, ast.ImportFrom):
            named.add(node.module)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            named.add(node.name)
    production = {
        "specht_character",
        "characteristic_map",
        "build_kostka_table",
        "KostkaTable",
        "_h_in_s",
        "_s_in_h",
        "count_ssyt",
        "_walk",
        "_expand",
        "_border_strips",
        "_horizontal_strips",
        "contingency",
        "decompose_permutation_tensor",
        "kronecker",
    }
    assert not named & production
    read_from_symfunc = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "symfunc"
    }
    assert read_from_symfunc == {"SymFunc"}


def test_determinant_walk_matches_the_loop_over_every_permutation():
    # Pruned rows against all n! permutations: every partition of at most 8
    # and its conjugate, and dense shapes where few or no terms are skipped.
    shapes = [(3, 3, 3), (4, 4, 4, 4), (2,) * 8]
    for d in range(9):
        for lam in enumerate_partitions(d):
            shapes += [tuple(lam), tuple(conjugate(lam))]
    for parts in shapes:
        expansion = grouporacle._det_expansion(parts)
        assert expansion == det_expansion_all_permutations(parts), parts
        assert all(type(key) is Partition for key in expansion)
