import importlib
import itertools
from fractions import Fraction

import pytest

from symkron.combinat import centralizer_order, conjugate, enumerate_partitions
from symkron.errors import DegreeMismatchError
from symkron.grouporacle import character_scalar_product, permutation_character
from symkron.kronecker import kronecker, kronecker_coefficient, kronecker_h
from symkron.symfunc import (
    BASES,
    SymFunc,
    basis_element,
    characteristic_map,
    convert,
    specht_character,
)

# The package re-exports the function ``kronecker`` under the submodule's name.
kronecker_module = importlib.import_module("symkron.kronecker")


def test_kronecker_h_examples():
    assert kronecker_h((3, 1), (2, 1, 1)) == SymFunc(
        "h", 4, {(2, 1, 1): 2, (1, 1, 1, 1): 1}
    )
    for mu in enumerate_partitions(4):
        assert kronecker_h((4,), mu) == basis_element("h", mu)
    assert kronecker_h((1, 1), (1, 1)) == SymFunc("h", 2, {(1, 1): 2})
    with pytest.raises(DegreeMismatchError):
        kronecker_h((2,), (1,))


def test_kronecker_h_returns_a_fresh_value():
    first = kronecker_h((2, 1, 1), (2, 2))
    expected = dict(first.terms)
    first.terms[(4,)] = Fraction(7)
    del first.terms[(1, 1, 1, 1)]
    assert kronecker_h((2, 1, 1), (2, 2)).terms == expected
    assert kronecker(
        basis_element("h", (2, 1, 1)), basis_element("h", (2, 2))
    ).terms == expected


def test_kronecker_examples():
    for d in range(7):
        unit = basis_element("s", (d,) if d else ())
        for lam in enumerate_partitions(d):
            for basis in ("m", "e", "h", "p", "s"):
                f = basis_element(basis, lam)
                assert kronecker(f, unit) == f
                assert kronecker(unit, f) == convert(f, "s")
    assert kronecker(
        basis_element("h", (3, 1)), basis_element("h", (2, 1, 1))
    ) == SymFunc("h", 4, {(2, 1, 1): 2, (1, 1, 1, 1): 1})
    assert kronecker(
        basis_element("s", (1, 1)), basis_element("s", (1, 1))
    ) == basis_element("s", (2,))
    with pytest.raises(DegreeMismatchError):
        kronecker(basis_element("s", (2,)), basis_element("s", (3,)))


def test_kronecker_commutative():
    for d in range(7):
        for lam in enumerate_partitions(d):
            for mu in enumerate_partitions(d):
                f = basis_element("h", lam)
                g = basis_element("h", mu)
                assert kronecker(f, g) == kronecker(g, f)


def test_kronecker_h_memo_holds_each_unordered_pair_once():
    kronecker_module._kronecker_h.cache_clear()
    parts = enumerate_partitions(5)
    for lam, mu in itertools.product(parts, repeat=2):
        kronecker(basis_element("s", lam), basis_element("s", mu))
    size = kronecker_module._kronecker_h.cache_info().currsize
    assert size == len(parts) * (len(parts) + 1) // 2 == 28


def test_kronecker_associative():
    for d in range(6):
        for lam, mu, nu in itertools.product(enumerate_partitions(d), repeat=3):
            f = basis_element("h", lam)
            g = basis_element("h", mu)
            h = basis_element("h", nu)
            assert kronecker(kronecker(f, g), h) == kronecker(f, kronecker(g, h))


def test_kronecker_matches_character_route():
    for d in range(7):
        for lam in enumerate_partitions(d):
            for mu in enumerate_partitions(d):
                product = tuple(
                    a * b for a, b in zip(permutation_character(lam), permutation_character(mu))
                )
                assert convert(characteristic_map(d, product), "h") == kronecker_h(lam, mu)


def test_schur_expansion_is_nonnegative_integral():
    for d in range(7):
        for lam in enumerate_partitions(d):
            for mu in enumerate_partitions(d):
                expansion = convert(
                    kronecker(basis_element("s", lam), basis_element("s", mu)), "s"
                )
                for coeff in expansion.terms.values():
                    assert coeff.denominator == 1 and coeff > 0


def test_kronecker_coefficient_examples():
    for d in range(1, 6):
        for lam in enumerate_partitions(d):
            assert kronecker_coefficient((d,), lam, lam) == 1
            assert kronecker_coefficient((1,) * d, lam, conjugate(lam)) == 1
    assert kronecker_coefficient((2, 1), (2, 1), (2, 1)) == 1
    with pytest.raises(DegreeMismatchError):
        kronecker_coefficient((2,), (1, 1), (1,))


def test_kronecker_coefficients_match_character_route():
    for d in range(5):
        for lam, mu, nu in itertools.product(enumerate_partitions(d), repeat=3):
            product = tuple(a * b for a, b in zip(specht_character(lam), specht_character(mu)))
            via_characters = character_scalar_product(d, product, specht_character(nu))
            assert kronecker_coefficient(lam, mu, nu) == via_characters


def test_kronecker_coefficient_full_symmetry():
    for d in range(6):
        parts = enumerate_partitions(d)
        table = {
            (lam, mu, nu): kronecker_coefficient(lam, mu, nu)
            for lam, mu, nu in itertools.product(parts, repeat=3)
        }
        for (lam, mu, nu), value in table.items():
            for perm in itertools.permutations((lam, mu, nu)):
                assert table[perm] == value


def test_power_sums_are_orthogonal_idempotents_up_to_z():
    # p_rho * p_sigma = delta(rho, sigma) z_rho p_rho (Macdonald I.7).
    for d in range(7):
        for rho in enumerate_partitions(d):
            for sigma in enumerate_partitions(d):
                product = kronecker(basis_element("p", rho), basis_element("p", sigma))
                if rho == sigma:
                    assert product == centralizer_order(rho) * basis_element("p", rho)
                else:
                    assert product.is_zero()


def test_kronecker_is_bilinear_over_the_rationals():
    q, r = Fraction(1, 3), Fraction(-2, 5)
    for d in range(5):
        parts = enumerate_partitions(d)
        for a, b in itertools.product(BASES, repeat=2):
            for lam, mu in itertools.product(parts, repeat=2):
                f = basis_element(a, lam) - basis_element(a, parts[-1])
                g = basis_element(b, mu) + basis_element(b, parts[0])
                assert kronecker(q * f, r * g) == (q * r) * kronecker(f, g)


def test_kronecker_results_are_fraction_valued():
    for d in range(5):
        parts = enumerate_partitions(d)
        for a, b in itertools.product(BASES, repeat=2):
            for lam, mu in itertools.product(parts, repeat=2):
                f = basis_element(a, lam) + Fraction(1, 3) * basis_element(a, parts[0])
                product = kronecker(f, basis_element(b, mu))
                assert all(type(c) is Fraction for c in product.terms.values())
        for lam, mu in itertools.product(parts, repeat=2):
            assert all(type(c) is Fraction for c in kronecker_h(lam, mu).terms.values())
            assert type(kronecker_coefficient(lam, mu, parts[0])) is int
