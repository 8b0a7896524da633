"""Property tests of the Murnaghan-Nakayama characters beyond the oracle's reach."""

import pytest

pytest.importorskip("hypothesis")
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from symkron.combinat import (
    centralizer_order,
    conjugate,
    count_standard_tableaux,
    enumerate_partitions,
)
from symkron.symfunc import SymFunc, convert, specht_character

PROPERTY = settings(deadline=None, max_examples=40)


def _partitions_of(d):
    return st.sampled_from(enumerate_partitions(d))


# Degree 12 is past the brute-force table, which stops at 8.
degrees = st.integers(min_value=0, max_value=12)
partitions = degrees.flatmap(_partitions_of)
pairs = degrees.flatmap(lambda d: st.tuples(_partitions_of(d), _partitions_of(d)))


@PROPERTY
@given(pairs)
def test_column_orthogonality(pair):
    rho, sigma = pair
    parts = enumerate_partitions(sum(rho))
    i, j = parts.index(rho), parts.index(sigma)
    total = sum(chi[i] * chi[j] for chi in map(specht_character, parts))
    assert total == (centralizer_order(rho) if rho == sigma else 0)


@PROPERTY
@given(pairs)
def test_conjugate_shape_twists_by_the_sign(pair):
    lam, rho = pair
    i = enumerate_partitions(sum(rho)).index(rho)
    sign = (-1) ** (sum(rho) - len(rho))
    assert specht_character(conjugate(lam))[i] == sign * specht_character(lam)[i]


@PROPERTY
@given(partitions)
def test_degree_counts_standard_tableaux(lam):
    # 1^d, the identity's cycle type, comes last in canonical order.
    assert specht_character(lam)[-1] == count_standard_tableaux(lam)


# Nonzero, so every term is present; 11, 13 and 97 divide no d! with d <= 7,
# and 16 and 49 divide 7! but not 4!.
rationals = st.builds(
    Fraction,
    st.integers(1, 9) | st.integers(-9, -1),
    st.sampled_from([1, 2, 3, 7, 11, 13, 16, 49, 97]),
)


def _combinations(bases):
    def of_degree(d):
        parts = enumerate_partitions(d)
        return st.builds(
            lambda basis, coeffs: SymFunc(basis, d, dict(zip(parts, coeffs))),
            st.sampled_from(bases),
            st.lists(rationals, min_size=len(parts), max_size=len(parts)),
        )

    return st.integers(min_value=0, max_value=7).flatmap(of_degree)


def _dense(basis):
    """Every partition of 7, each with a positive coefficient over 11 or 13.

    In the h basis every Schur coefficient is then positive, so one wrong
    character value anywhere in s -> p shows; in the p basis every power sum
    is present, so one anywhere in p -> s shows.
    """
    parts = enumerate_partitions(7)
    return SymFunc(basis, 7, {lam: Fraction(i + 1, 11 + i % 2 * 2) for i, lam in enumerate(parts)})


@settings(deadline=None, max_examples=60)
@given(_combinations("mehs"))
@example(_dense("h"))
def test_power_sum_conversions_are_exact(f):
    # s_lam = sum over rho of chi^lam(rho) / z_rho p_rho, added up term by term.
    in_s = convert(f, "s")
    expected = {}
    for lam, c in in_s.terms.items():
        for rho, chi in zip(enumerate_partitions(f.degree), specht_character(lam)):
            x = c * Fraction(chi, centralizer_order(rho))
            expected[rho] = expected.get(rho, 0) + x
    in_p = SymFunc("p", f.degree, expected)
    assert convert(f, "p") == in_p
    assert convert(in_p, "s") == in_s
    assert convert(in_p, f.basis) == f


@settings(deadline=None, max_examples=60)
@given(_combinations("p"))
@example(_dense("p"))
def test_power_sums_convert_to_schur_exactly(f):
    # p_rho = sum over lam of chi^lam(rho) s_lam, added up term by term.
    parts = enumerate_partitions(f.degree)
    rows = {lam: specht_character(lam) for lam in parts}
    expected = {}
    for rho, c in f.terms.items():
        i = parts.index(rho)
        for lam, chi in rows.items():
            expected[lam] = expected.get(lam, 0) + c * chi[i]
    assert convert(f, "s") == SymFunc("s", f.degree, expected)
