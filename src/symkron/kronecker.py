"""Internal (Kronecker) product on symmetric functions of one degree.

On complete symmetric functions the product is structural: the product of
``h_lam`` and ``h_mu`` is the sum of ``h`` terms over the margin-matrix
decomposition of the corresponding permutation-module tensor product.  A
factor given in h or e is used as it is; any other is expanded in h or in e,
whichever has fewer terms, by the rim-hook rows of ``symfunc._s_in_h``.  The
e expansion of ``f`` carries the h coefficients of ``omega(f)``, and since
``s_(1^d)`` acts as omega, ``omega(f) * g = omega(f * g) = f * omega(g)``.
So the margin rule sums the product in h when neither or both factors are
in e, and in e when exactly one is.  The character route,
``symfunc.characteristic_map`` of pointwise products of
``grouporacle.permutation_character``, stays independent: each checks the
other.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

from . import symfunc
from .combinat import Partition
from .contingency import decompose_permutation_tensor
from .errors import DegreeMismatchError, InternalConsistencyError


@lru_cache(maxsize=None)
def _kronecker_h(lam: Partition, mu: Partition) -> dict[Partition, int]:
    # Called with lam >= mu only: transposing a margin matrix keeps its class,
    # so the two orders share one entry.  Both are partitions of one degree,
    # which the margin rule takes without checking them again; it walks the
    # rows of the one with more parts.  The cached dict is shared: read it,
    # never hand it out.
    return decompose_permutation_tensor(lam, mu)


def kronecker_h(lam: Iterable[int], mu: Iterable[int]) -> symfunc.SymFunc:
    """Internal product of two complete basis elements, in the h basis."""
    lam = Partition(lam)
    mu = Partition(mu)
    if lam.degree != mu.degree:
        raise DegreeMismatchError(
            f"internal product needs equal degrees, got {lam.degree} and {mu.degree}"
        )
    pieces = _kronecker_h(lam, mu) if lam >= mu else _kronecker_h(mu, lam)
    return symfunc.SymFunc("h", lam.degree, pieces)


def _shorter_expansion(f: symfunc.SymFunc) -> tuple[dict, bool]:
    """``f`` in h or in e, and whether e was taken; a factor in either is taken as given.

    Any other is converted to s once, so a p factor walks its characters
    once; its h and e expansions read the rim-hook rows of its s terms, and
    the shorter is kept (h on a tie).
    """
    if f.basis in ("h", "e"):
        return f.terms, f.basis == "e"
    terms = symfunc._convert_terms(f.degree, f.basis, f.terms, "s")
    fh = symfunc._convert_terms(f.degree, "s", terms, "h")
    if len(fh) <= 1:
        return fh, False
    fe = symfunc._convert_terms(f.degree, "s", terms, "e")
    return (fe, True) if len(fe) < len(fh) else (fh, False)


def kronecker(f: symfunc.SymFunc, g: symfunc.SymFunc) -> symfunc.SymFunc:
    """Bilinear extension of the internal product, in the basis of ``f``.

    A factor in h or e is used as given; any other is expanded in h or,
    through omega, in e, whichever is shorter.  The margin rule multiplies
    them, summing in h when both are in one basis and in e when not.  The
    factors' terms are read as stored, ints where integral, so the sums stay
    ints unless ``f`` or ``g`` has a non-integral coefficient; only a result
    in the p basis divides, by ``z_rho``.
    """
    if f.degree != g.degree:
        raise DegreeMismatchError(
            f"internal product needs equal degrees, got {f.degree} and {g.degree}"
        )
    fx, f_flipped = _shorter_expansion(f)
    gx, g_flipped = _shorter_expansion(g)
    acc: dict = {}
    for lam, a in fx.items():
        for mu, b in gx.items():
            ab = a * b
            pieces = _kronecker_h(lam, mu) if lam >= mu else _kronecker_h(mu, lam)
            for nu, m in pieces.items():
                acc[nu] = acc.get(nu, 0) + ab * m
    basis = "e" if f_flipped != g_flipped else "h"
    return symfunc.SymFunc(f.basis, f.degree, symfunc._convert_terms(f.degree, basis, acc, f.basis))


def kronecker_coefficient(lam: Iterable[int], mu: Iterable[int], nu: Iterable[int]) -> int:
    """Multiplicity of the Schur function ``nu`` in ``s_lam * s_mu``.

    Schur functions are orthonormal, so this is the coefficient of ``s_nu``
    in the Schur expansion of the product.  It must be a nonnegative
    integer; anything else means the implementation is inconsistent and
    raises, never returns.
    """
    lam = Partition(lam)
    mu = Partition(mu)
    nu = Partition(nu)
    if not (lam.degree == mu.degree == nu.degree):
        raise DegreeMismatchError("Kronecker coefficients need three equal degrees")
    product = kronecker(symfunc.basis_element("s", lam), symfunc.basis_element("s", mu))
    value = product.coeff(nu)
    if value.denominator != 1 or value < 0:
        raise InternalConsistencyError(
            f"coefficient for {tuple(lam)}, {tuple(mu)}, {tuple(nu)} came out as {value}"
        )
    return value
