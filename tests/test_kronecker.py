import importlib
import itertools
from fractions import Fraction

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # only the rational-combination property below needs it
    given = None

from symkron import symfunc
from symkron.combinat import centralizer_order, conjugate, enumerate_partitions
from symkron.contingency import decompose_permutation_tensor
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


def _record_margin_calls(monkeypatch) -> list:
    """Clear the h-product memo; the list collects the key of each entry stored after."""
    keys = []

    def recording(lam, mu):
        keys.append((lam, mu))
        return decompose_permutation_tensor(lam, mu)

    monkeypatch.setattr(kronecker_module, "decompose_permutation_tensor", recording)
    kronecker_module._kronecker_h.cache_clear()
    return keys


def test_kronecker_h_memo_holds_each_unordered_pair_once(monkeypatch):
    keys = _record_margin_calls(monkeypatch)
    parts = enumerate_partitions(5)
    for lam, mu in itertools.product(parts, repeat=2):
        kronecker(basis_element("s", lam), basis_element("s", mu))
    for lam, mu in itertools.product(parts, repeat=2):
        kronecker_h(lam, mu)
    assert all(lam >= mu for lam, mu in keys)
    size = kronecker_module._kronecker_h.cache_info().currsize
    assert size == len(keys) == len(parts) * (len(parts) + 1) // 2 == 28


def test_cold_schur_table_skips_the_tallest_margin_pair(monkeypatch):
    # s_(1^7) is e_7 alone, so no Schur product needs h_(1^7) * h_(1^7).
    keys = _record_margin_calls(monkeypatch)
    for lam, mu in itertools.combinations_with_replacement(enumerate_partitions(7), 2):
        kronecker(basis_element("s", lam), basis_element("s", mu))
    assert len(keys) < 120
    assert ((1,) * 7, (1,) * 7) not in keys


def test_factors_in_h_or_e_read_no_kostka_inverse(monkeypatch):
    # Both factors are taken as given, and the sum stays in the basis of f.
    products = []
    for a in "he":
        f = basis_element(a, (4, 4)) + basis_element(a, (5, 2, 1))
        g = basis_element("h", (6, 2)) + basis_element("h", (7, 1))
        products.append((f, g, _all_h_product(f, g)))

    def row(lam):
        raise AssertionError("a rim-hook row was computed")

    monkeypatch.setattr(symfunc, "_s_in_h", row)
    for f, g, expected in products:
        assert kronecker(f, g) == expected


def _all_h_product(f: SymFunc, g: SymFunc) -> SymFunc:
    """``f * g`` by the margin rule on the h expansions of both factors."""
    acc: dict = {}
    for lam, a in convert(f, "h").terms.items():
        for mu, b in convert(g, "h").terms.items():
            for nu, m in decompose_permutation_tensor(lam, mu).items():
                acc[nu] = acc.get(nu, 0) + a * b * m
    return convert(SymFunc("h", f.degree, acc), f.basis)


def test_kronecker_matches_all_h_product_on_basis_elements():
    # Covers each omega parity: e_lam flips, h_lam never does, and s or m
    # elements flip when their e expansion is the shorter one.
    for d in range(7):
        elements = [basis_element(b, lam) for b in "mehs" for lam in enumerate_partitions(d)]
        for f, g in itertools.product(elements, repeat=2):
            assert kronecker(f, g) == _all_h_product(f, g)


def test_sign_representation_acts_as_omega():
    # s_(1^d) flips and s_(d-1,1) does not: omega(s_(d-1,1)) = s_(2,1^(d-2)).
    for d in range(2, 9):
        sign = basis_element("s", (1,) * d)
        hook = basis_element("s", (d - 1, 1))
        expected = basis_element("s", (2,) + (1,) * (d - 2))
        assert kronecker(sign, hook) == kronecker(hook, sign) == expected
        assert kronecker(sign, sign) == basis_element("s", (d,))


if given is not None:

    @st.composite
    def _combination(draw, d):
        parts = enumerate_partitions(d)
        basis = draw(st.sampled_from(BASES))
        chosen = draw(st.lists(st.sampled_from(parts), min_size=1, max_size=4, unique=True))
        coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
        return SymFunc(basis, d, {lam: draw(coeffs) for lam in chosen})

    @settings(deadline=None, max_examples=150)
    @given(st.integers(min_value=0, max_value=6).flatmap(
        lambda d: st.tuples(_combination(d), _combination(d))
    ))
    def test_kronecker_matches_all_h_product_on_rational_combinations(pair):
        f, g = pair
        assert kronecker(f, g) == _all_h_product(f, g)


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


def test_kronecker_results_are_int_when_integral():
    def int_when_integral(f):
        return all(
            type(c) is int or (type(c) is Fraction and c.denominator > 1)
            for c in f.terms.values()
        )

    for d in range(5):
        parts = enumerate_partitions(d)
        for a, b in itertools.product(BASES, repeat=2):
            for lam, mu in itertools.product(parts, repeat=2):
                f = basis_element(a, lam) + Fraction(1, 3) * basis_element(a, parts[0])
                half = Fraction(1, 2) * basis_element(a, lam)
                g = basis_element(b, mu)
                for product in (kronecker(f, g), kronecker(g, f), kronecker(half + half, g)):
                    assert int_when_integral(product)
                assert kronecker(half + half, g) == kronecker(basis_element(a, lam), g)
        for lam, mu in itertools.product(parts, repeat=2):
            assert all(type(c) is int for c in kronecker_h(lam, mu).terms.values())
            assert type(kronecker_coefficient(lam, mu, parts[0])) is int
