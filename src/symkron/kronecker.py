"""Internal (Kronecker) product on symmetric functions of one degree.

On complete symmetric functions the product is structural: the product of
``h_lam`` and ``h_mu`` is the sum of ``h`` terms over the margin-matrix
decomposition of the corresponding permutation-module tensor product.  The
character route in :mod:`symkron.grouporacle` stays independent so the two
can verify each other.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from . import symfunc
from .combinat import Partition
from .contingency import decompose_permutation_tensor
from .errors import DegreeMismatchError, InternalConsistencyError


@lru_cache(maxsize=None)
def _kronecker_h(lam: Partition, mu: Partition) -> symfunc.SymFunc:
    pieces = decompose_permutation_tensor(lam, mu)
    return symfunc.SymFunc("h", lam.degree, {p: Fraction(m) for p, m in pieces.items()})


def kronecker_h(lam: Iterable[int], mu: Iterable[int]) -> symfunc.SymFunc:
    """Internal product of two complete basis elements, in the h basis."""
    lam = Partition(lam)
    mu = Partition(mu)
    if lam.degree != mu.degree:
        raise DegreeMismatchError(
            f"internal product needs equal degrees, got {lam.degree} and {mu.degree}"
        )
    return _kronecker_h(lam, mu)


def kronecker(f: symfunc.SymFunc, g: symfunc.SymFunc) -> symfunc.SymFunc:
    """Bilinear extension of the internal product, in the basis of ``f``."""
    if f.degree != g.degree:
        raise DegreeMismatchError(
            f"internal product needs equal degrees, got {f.degree} and {g.degree}"
        )
    fh = symfunc.convert(f, "h")
    gh = symfunc.convert(g, "h")
    acc: dict[Partition, Fraction] = {}
    for lam, a in fh.terms.items():
        for mu, b in gh.terms.items():
            ab = a * b
            for nu, m in _kronecker_h(lam, mu).terms.items():
                acc[nu] = acc.get(nu, Fraction(0)) + ab * m
    return symfunc.convert(symfunc.SymFunc("h", f.degree, acc), f.basis)


def kronecker_coefficient(lam: Iterable[int], mu: Iterable[int], nu: Iterable[int]) -> int:
    """Multiplicity of the Schur function ``nu`` in ``s_lam * s_mu``.

    The result must be a nonnegative integer; anything else means the
    implementation is inconsistent and raises, never returns.
    """
    lam = Partition(lam)
    mu = Partition(mu)
    nu = Partition(nu)
    if not (lam.degree == mu.degree == nu.degree):
        raise DegreeMismatchError("Kronecker coefficients need three equal degrees")
    product = kronecker(symfunc.basis_element("s", lam), symfunc.basis_element("s", mu))
    value = symfunc.scalar_product(product, symfunc.basis_element("s", nu))
    if value.denominator != 1 or value < 0:
        raise InternalConsistencyError(
            f"coefficient for {tuple(lam)}, {tuple(mu)}, {tuple(nu)} came out as {value}"
        )
    return int(value)
