"""Property tests of the Murnaghan-Nakayama characters beyond the oracle's reach."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from symkron.combinat import (
    centralizer_order,
    conjugate,
    count_standard_tableaux,
    enumerate_partitions,
)
from symkron.symfunc import character_value

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
    total = sum(
        character_value(lam, rho) * character_value(lam, sigma)
        for lam in enumerate_partitions(sum(rho))
    )
    assert total == (centralizer_order(rho) if rho == sigma else 0)


@PROPERTY
@given(pairs)
def test_conjugate_shape_twists_by_the_sign(pair):
    lam, rho = pair
    sign = (-1) ** (sum(rho) - len(rho))
    assert character_value(conjugate(lam), rho) == sign * character_value(lam, rho)


@PROPERTY
@given(partitions)
def test_degree_counts_standard_tableaux(lam):
    assert character_value(lam, (1,) * sum(lam)) == count_standard_tableaux(lam)
