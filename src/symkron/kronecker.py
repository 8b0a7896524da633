"""Internal (Kronecker) product on symmetric functions of one degree.

On complete symmetric functions the product is structural: the product of
``h_lam`` and ``h_mu`` is the sum of ``h`` terms over the margin-matrix
decomposition of the corresponding permutation-module tensor product.  In
the p basis the product is diagonal, ``p_rho * p_sigma = delta z_rho p_rho``
(Macdonald I.7), so a product with a p factor reads the other factor's
character at the p factor's cycle types only.  Otherwise a factor given in h
or e is used as it is; any other is converted to s once and expanded by the
rim-hook rows of ``symfunc._s_in_h`` in e if its s terms have more rows than
columns in total, else in h.  The e expansion of ``f`` carries the h
coefficients of ``omega(f)``, and since ``s_(1^d)`` acts as omega,
``omega(f) * g = omega(f * g) = f * omega(g)``.  So the margin rule sums the
product in h when neither or both factors are in e, and in e when exactly one
is.  The character route, ``symfunc.characteristic_map`` of pointwise
products of ``grouporacle.permutation_character``, stays independent: each
checks the other.  One Schur coefficient is read by the margin rule or character rows.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from math import factorial

from . import symfunc
from .combinat import Partition, class_sizes
from .contingency import decompose_permutation_tensor
from .errors import DegreeMismatchError, InternalConsistencyError

# Cells below the two longest first rows up to which a coefficient takes the margin rule:
# its cost is flat in the degree, at most about 0.2 s at 16 (2-vCPU VM, Python 3.11).
_MAX_MARGIN_TAIL = 16


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


def _expansion(f: symfunc.SymFunc) -> tuple[dict, bool]:
    """``f`` in h or in e, and whether e was taken; a factor in either is taken as given.

    Any other, in m or s (a product with a p factor never comes here), is converted to s
    once.  ``s_lam`` has at most ``len(lam)!`` terms in h and ``lam[0]!`` in e (Macdonald
    I.3), so only the side with fewer rows in total over the s terms is built (h on a tie).
    """
    if f.basis in ("h", "e"):
        return f.terms, f.basis == "e"
    terms = symfunc._convert_terms(f.degree, f.basis, f.terms, "s")
    flip = sum(map(len, terms)) > sum(lam[0] for lam in terms if lam)
    return symfunc._convert_terms(f.degree, "s", terms, "e" if flip else "h"), flip


def kronecker(f: symfunc.SymFunc, g: symfunc.SymFunc) -> symfunc.SymFunc:
    """Bilinear extension of the internal product, in the basis of ``f``.

    If ``f`` or ``g`` is in p, call it ``a`` and the other ``b``: ``a * b`` is
    the sum of ``a_rho * chi_b(rho) * p_rho``, where ``chi_b`` is the class
    function of ``b``'s s terms, read by one border-strip walk at ``a``'s cycle
    types only, so no partition of the degree is listed; the p result is
    converted to ``f``'s basis when ``f`` is not in p.  Otherwise a factor in
    h or e is used as given; any other is expanded in h, or through omega in
    e when its s terms have more rows than columns in total.  The margin rule
    multiplies them, summing in h when both are in one basis and in e when
    not.  The factors' terms are read as stored, ints where integral, so the
    sums stay ints unless ``f`` or ``g`` has a non-integral coefficient.
    """
    if f.degree != g.degree:
        raise DegreeMismatchError(
            f"internal product needs equal degrees, got {f.degree} and {g.degree}"
        )
    if "p" in (f.basis, g.basis):
        a, b = (f, g) if f.basis == "p" else (g, f)
        rhos = sorted(a.terms, reverse=True)
        chi = symfunc._class_function(rhos, symfunc._convert_terms(b.degree, b.basis, b.terms, "s"))
        acc = {rho: a.terms[rho] * x for rho, x in zip(rhos, chi)}
        return symfunc.convert(symfunc.SymFunc("p", f.degree, acc), f.basis)
    fx, f_flipped = _expansion(f)
    gx, g_flipped = _expansion(g)
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
    """Multiplicity of the Schur function ``nu`` in ``s_lam * s_mu``; it is symmetric in all three.

    The two shapes with the longest first rows are multiplied by :func:`kronecker` when at
    most ``_MAX_MARGIN_TAIL`` cells lie below those rows.  Other triples read three
    Murnaghan-Nakayama rows, ``(1/d!) sum over rho of |C_rho| chi^lam(rho) chi^mu(rho)
    chi^nu(rho)``, which ``class_sizes`` refuses above the degree at which ``combinat``
    stops listing partitions.  Anything but a nonnegative integer is an inconsistency and raises.
    """
    lam, mu, nu = map(Partition, (lam, mu, nu))
    if not (lam.degree == mu.degree == nu.degree):
        raise DegreeMismatchError("Kronecker coefficients need three equal degrees")
    d = lam.degree
    a, b, c = sorted((lam, mu, nu), reverse=True)
    if 2 * d - sum(a[:1]) - sum(b[:1]) <= _MAX_MARGIN_TAIL:
        f, g = (symfunc.basis_element("s", p) for p in (a, b))
        total, order = kronecker(f, g).coeff(c), 1
    else:
        rows = map(symfunc.specht_character, (lam, mu, nu))
        total = sum(z * x * y * w for z, x, y, w in zip(class_sizes(d), *rows))
        order = factorial(d)
    value, rest = divmod(total, order)
    if rest or value < 0:
        raise InternalConsistencyError(
            f"coefficient for {tuple(lam)}, {tuple(mu)}, {tuple(nu)} came out as {total}/{order}"
        )
    return value
