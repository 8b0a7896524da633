"""Degree-graded symmetric functions over exact rationals.

Five classical bases are supported: monomial ``m``, elementary ``e``,
complete ``h``, power sum ``p``, and Schur ``s``.  Every conversion is
routed through the Schur basis:

* ``h -> s`` by the columns of the tableau-count (Kostka) matrix, ``s -> h``
  by the columns of its exact integer inverse;
* ``m <-> s`` by the rows of the Kostka matrix and of its inverse;
* ``e <-> s`` by the ``h`` tables composed with the involution omega, which
  swaps ``h`` and ``e`` and conjugates Schur indices;
* ``p <-> s`` by the irreducible characters of the symmetric group, which
  :func:`character_value` computes by the Murnaghan-Nakayama rule.

A character is a tuple of values in canonical cycle-type order, and
:func:`characteristic_map` (ch) sends one to the p basis; the character route
to the internal product is ``grouporacle.permutation_character`` through it.
The Jacobi-Trudi determinants and the brute-force character table, second
routes to the same tables, live in :mod:`symkron.grouporacle` as checks.

``SymFunc.terms`` is `fractions.Fraction`-valued.  Inner loops run on Python
ints wherever the theory gives integers (the Kostka matrix and its inverse,
character values, margin counts); only the ``1/z_rho`` of ``s -> p`` and
coefficients the user writes bring in a ``Fraction``.  Integrality is
asserted where the theory demands it instead of being assumed.  SymFunc
values are immutable; per-degree tables are built once and then only read.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .combinat import (
    Partition, _check_row, centralizer_order, conjugate, enumerate_partitions, kostka_column
)
from .errors import DegreeMismatchError, InternalConsistencyError

BASES = ("m", "e", "h", "p", "s")


class SymFunc:
    """Basis-tagged sparse rational combination of partitions of one degree.

    Zero coefficients are never stored.  Instances are immutable; all
    arithmetic returns new values.
    """

    __slots__ = ("basis", "degree", "terms")

    def __init__(self, basis: str, degree: int, terms: Mapping[Iterable[int], Fraction | int]):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}, expected one of {BASES}")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean: dict[Partition, Fraction] = {}
        for lam, coeff in terms.items():
            if type(lam) is not Partition:
                lam = Partition(lam)
            if lam.degree != degree:
                raise DegreeMismatchError(
                    f"term {tuple(lam)} has degree {lam.degree}, expected {degree}"
                )
            c = Fraction(coeff)
            if c:
                clean[lam] = c
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SymFunc is immutable")

    def coeff(self, lam: Iterable[int]) -> Fraction:
        return self.terms.get(Partition(lam), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Partition, Fraction]]:
        """Terms in canonical partition order."""
        return [(lam, self.terms[lam]) for lam in sorted(self.terms, reverse=True)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymFunc):
            return NotImplemented
        return (
            self.basis == other.basis
            and self.degree == other.degree
            and self.terms == other.terms
        )

    __hash__ = None

    def _check_compatible(self, other: "SymFunc") -> None:
        if self.basis != other.basis:
            raise ValueError(f"mixed bases {self.basis!r} and {other.basis!r}; convert first")
        if self.degree != other.degree:
            raise DegreeMismatchError(
                f"mixed degrees {self.degree} and {other.degree}"
            )

    def __add__(self, other: "SymFunc") -> "SymFunc":
        self._check_compatible(other)
        acc = dict(self.terms)
        for lam, c in other.terms.items():
            acc[lam] = acc.get(lam, Fraction(0)) + c
        return SymFunc(self.basis, self.degree, acc)

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + (-other)

    def __neg__(self) -> "SymFunc":
        return SymFunc(self.basis, self.degree, {l: -c for l, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, SymFunc):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, factor) -> "SymFunc":
        c = Fraction(factor)
        return SymFunc(self.basis, self.degree, {l: c * v for l, v in self.terms.items()})

    def render(self) -> str:
        """Canonical text form, e.g. ``s[2,1] + 2*s[1,1,1]``; zero is ``0``."""
        if not self.terms:
            return "0"
        pieces = []
        for i, (lam, c) in enumerate(self.sorted_terms()):
            atom = f"{self.basis}[{','.join(str(p) for p in lam)}]"
            mag = abs(c)
            body = atom if mag == 1 else f"{mag}*{atom}"
            if i == 0:
                pieces.append(f"-{body}" if c < 0 else body)
            else:
                pieces.append(f" {'-' if c < 0 else '+'} {body}")
        return "".join(pieces)

    __str__ = render

    def __repr__(self) -> str:
        return f"SymFunc({self.render()})"

    def to_json_dict(self) -> dict:
        return {
            "basis": self.basis,
            "degree": self.degree,
            "terms": [
                {"partition": list(lam), "coeff": str(c)} for lam, c in self.sorted_terms()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "SymFunc":
        terms = {tuple(t["partition"]): Fraction(t["coeff"]) for t in data["terms"]}
        return cls(data["basis"], data["degree"], terms)

    @classmethod
    def from_json(cls, text: str) -> "SymFunc":
        return cls.from_json_dict(json.loads(text))


def basis_element(basis: str, lam: Iterable[int]) -> SymFunc:
    """The single-term function ``1 * lam`` in the given basis."""
    lam = Partition(lam)
    return SymFunc(basis, lam.degree, {lam: Fraction(1)})


class KostkaTable:
    """Tableau-count transition matrix at one degree, with exact inverse.

    Rows and columns are indexed by the canonical partition list; the matrix
    is unit upper triangular in that order and its inverse has integer
    entries.  Column ``mu`` is :func:`symkron.combinat.kostka_column` of ``mu``.
    """

    def __init__(self, degree: int):
        parts = enumerate_partitions(degree)
        n = len(parts)
        index = {p: i for i, p in enumerate(parts)}
        matrix = [[kostka_column(m).get(l, 0) for m in parts] for l in parts]
        for i in range(n):
            if matrix[i][i] != 1:
                raise InternalConsistencyError("tableau-count matrix is not unitriangular")
            for j in range(i):
                if matrix[i][j] != 0:
                    raise InternalConsistencyError("tableau-count matrix is not triangular")
        # Back substitution; entries stay integers because the diagonal is 1.
        inverse = [[0] * n for _ in range(n)]
        for i in range(n - 1, -1, -1):
            inverse[i][i] = 1
            for j in range(i + 1, n):
                inverse[i][j] = -sum(matrix[i][k] * inverse[k][j] for k in range(i + 1, j + 1))
        inverse_columns = list(zip(*inverse))
        for i, row in enumerate(matrix):
            for j, col in enumerate(inverse_columns):
                check = sum(a * b for a, b in zip(row, col))
                if check != (1 if i == j else 0):
                    raise InternalConsistencyError("tableau-count inverse failed to verify")
        self.degree = degree
        self.partitions = parts
        self.index = index
        self.matrix = matrix
        self.inverse = inverse

    def kostka(self, lam: Iterable[int], mu: Iterable[int]) -> int:
        return self.matrix[self.index[Partition(lam)]][self.index[Partition(mu)]]


@lru_cache(maxsize=None)
def build_kostka_table(d: int) -> KostkaTable:
    return KostkaTable(d)


# ---------------------------------------------------------------------------
# Single-element conversion tables.  Each helper returns a dict mapping
# partitions to coefficients; callers must treat the returned dicts as
# read-only since they are cached.


@lru_cache(maxsize=None)
def _h_elem_to_s(lam: Partition) -> dict[Partition, int]:
    table = build_kostka_table(lam.degree)
    col = table.index[lam]
    return {
        nu: table.matrix[i][col]
        for i, nu in enumerate(table.partitions)
        if table.matrix[i][col]
    }


@lru_cache(maxsize=None)
def _s_elem_to_h(lam: Partition) -> dict[Partition, int]:
    table = build_kostka_table(lam.degree)
    col = table.index[lam]
    return {
        mu: table.inverse[i][col]
        for i, mu in enumerate(table.partitions)
        if table.inverse[i][col]
    }


@lru_cache(maxsize=None)
def _e_elem_to_s(mu: Partition) -> dict[Partition, int]:
    return {conjugate(nu): c for nu, c in _h_elem_to_s(mu).items()}


def _s_elem_to_e(lam: Partition) -> dict[Partition, int]:
    return _s_elem_to_h(conjugate(lam))


@lru_cache(maxsize=None)
def _m_elem_to_s(mu: Partition) -> dict[Partition, int]:
    table = build_kostka_table(mu.degree)
    row = table.index[mu]
    return {
        lam: table.inverse[row][j]
        for j, lam in enumerate(table.partitions)
        if table.inverse[row][j]
    }


@lru_cache(maxsize=None)
def _s_elem_to_m(lam: Partition) -> dict[Partition, int]:
    table = build_kostka_table(lam.degree)
    row = table.index[lam]
    return {
        mu: table.matrix[row][j]
        for j, mu in enumerate(table.partitions)
        if table.matrix[row][j]
    }


@lru_cache(maxsize=None)
def character_value(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """Irreducible character of the partition ``lam`` at the cycle type ``rho``.

    Murnaghan-Nakayama rule: removing a border strip of length ``k = rho[0]``
    from ``lam`` moves one bead of its beta set (``lam[i] + n - 1 - i`` for
    ``n`` parts) down ``k`` places onto a free place, with the sign of the
    parity of the beads jumped over; the rest of ``rho`` is evaluated on
    what remains.
    """
    if sum(lam) != sum(rho):
        raise DegreeMismatchError(f"shape {lam} and cycle type {rho} differ in degree")
    if not rho:
        return 1
    k, rest = rho[0], rho[1:]
    n = len(lam)
    beads = [p + n - 1 - i for i, p in enumerate(lam)]
    total = 0
    for i, b in enumerate(beads):
        if b < k or b - k in beads:
            continue
        jumped = sum(1 for c in beads if b - k < c < b)
        moved = sorted(beads[:i] + [b - k] + beads[i + 1 :], reverse=True)
        shape = tuple(p for p in (c - (n - 1 - j) for j, c in enumerate(moved)) if p)
        value = character_value(shape, rest)
        total += -value if jumped % 2 else value
    return total


@lru_cache(maxsize=None)
def _p_elem_to_s(rho: Partition) -> dict[Partition, int]:
    return {
        lam: chi
        for lam in enumerate_partitions(rho.degree)
        if (chi := character_value(lam, rho))
    }


@lru_cache(maxsize=None)
def _s_elem_to_p(lam: Partition) -> dict[Partition, Fraction]:
    return characteristic_map(lam.degree, specht_character(lam)).terms


def specht_character(lam: Iterable[int]) -> tuple[int, ...]:
    """Murnaghan-Nakayama character of a partition: one value per cycle type, canonical order."""
    lam = Partition(lam)
    return tuple(character_value(lam, rho) for rho in enumerate_partitions(lam.degree))


def characteristic_map(d: int, chi: tuple[int, ...]) -> SymFunc:
    """Image of a degree-d character row in the power-sum basis.

    The coefficient of the power sum at a cycle type is the character value
    divided by the centralizer order.
    """
    _check_row(d, chi)
    terms = {
        rho: Fraction(value, centralizer_order(rho))
        for rho, value in zip(enumerate_partitions(d), chi)
    }
    return SymFunc("p", d, terms)


_TO_S = {"m": _m_elem_to_s, "e": _e_elem_to_s, "h": _h_elem_to_s, "p": _p_elem_to_s}
_FROM_S = {"m": _s_elem_to_m, "e": _s_elem_to_e, "h": _s_elem_to_h, "p": _s_elem_to_p}


def _convert_terms(basis: str, terms: Mapping[Partition, Fraction | int], target: str) -> dict:
    """Re-expand ``basis`` terms in ``target``, through s, in exact arithmetic.

    Sums start from the int 0, so integer inputs stay ints on the Kostka
    paths and only the ``1/z_rho`` of s -> p or a rational input brings in a
    ``Fraction``.  Zero coefficients are skipped on the way in and through
    s and dropped from the result, so its keys are those, in the order,
    that a ``SymFunc`` built on it would store.
    """
    if target == basis:
        return {lam: c for lam, c in terms.items() if c}
    if basis == "s":
        mid = terms
    else:
        to_s = _TO_S[basis]
        mid = {}
        for lam, c in terms.items():
            if not c:
                continue
            for nu, x in to_s(lam).items():
                mid[nu] = mid.get(nu, 0) + c * x
    if target == "s":
        return {nu: c for nu, c in mid.items() if c}
    from_s = _FROM_S[target]
    out: dict = {}
    for nu, c in mid.items():
        if not c:
            continue
        for lam, x in from_s(nu).items():
            out[lam] = out.get(lam, 0) + c * x
    return {lam: c for lam, c in out.items() if c}


def _terms_in(f: SymFunc, target: str) -> dict:
    """``_convert_terms`` of ``f``, its integral coefficients read as ints."""
    terms = {lam: c.numerator if c.denominator == 1 else c for lam, c in f.terms.items()}
    return _convert_terms(f.basis, terms, target)


def convert(f: SymFunc, target: str) -> SymFunc:
    """The same symmetric function expressed in the target basis."""
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}, expected one of {BASES}")
    if target == f.basis:
        return f
    return SymFunc(target, f.degree, _terms_in(f, target))


def multiply(f: SymFunc, g: SymFunc) -> SymFunc:
    """Graded ring product, returned in the basis of ``f``.

    Both factors are expanded in the h basis, where the product just
    concatenates and sorts partition indices.
    """
    fh = _terms_in(f, "h")
    gh = _terms_in(g, "h")
    acc: dict = {}
    for lam, a in fh.items():
        for mu, b in gh.items():
            key = Partition(sorted(lam + mu, reverse=True))
            acc[key] = acc.get(key, 0) + a * b
    return SymFunc(f.basis, f.degree + g.degree, _convert_terms("h", acc, f.basis))


def scalar_product(f: SymFunc, g: SymFunc) -> Fraction:
    """Bilinear pairing in which the h and m bases are dual.

    Functions of different degrees pair to zero.
    """
    if f.degree != g.degree:
        return Fraction(0)
    fh = _terms_in(f, "h")
    gm = _terms_in(g, "m")
    return Fraction(sum(fh[lam] * gm[lam] for lam in fh.keys() & gm.keys()))
