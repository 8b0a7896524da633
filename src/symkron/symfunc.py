"""Degree-graded symmetric functions over exact rationals.

Five classical bases are supported: monomial ``m``, elementary ``e``,
complete ``h``, power sum ``p``, and Schur ``s``.  Every conversion is
routed through the Schur basis, on strip walks of :mod:`symkron.combinat`:

* ``h``, ``m`` and ``e`` by the tableau-count (Kostka) matrix, from four
  memos that each recurse on a smaller shape: :func:`_h_in_s` gives a
  column by adding a horizontal strip (Pieri), :func:`_s_in_m` a row by
  removing one, :func:`_s_in_h` a row of the inverse by removing a special
  rim hook and :func:`_m_in_s` a column of the inverse by adding one; each
  is asserted unitriangular, and nothing is solved.  Each conversion
  expands the memo of its own terms: ``h -> s`` the columns, ``m -> s`` the
  inverse columns (m is dual to h), ``s -> h`` the inverse rows and
  ``s -> m`` the rows, so no conversion reads every shape of its degree.
  ``e -> s`` and ``s -> e`` read h's with Schur indices conjugated, by the
  involution omega that swaps ``h`` and ``e``, which conjugates only the
  shapes it relabels;
* ``p <-> s`` by the Murnaghan-Nakayama rule on border strips: ``p -> s``
  adds them along each term's cycle type, from the empty shape, and
  ``s -> p``, the one conversion that lists the partitions of its degree,
  removes them from all Schur terms in one walk over the cycle types that
  reads ``sum of c_lam * chi^lam``, which :func:`characteristic_map` sends to p.

The outer product :func:`multiply` is Pieri's rule on the same walk: the s
terms of one factor gain horizontal strips along the h terms of the other,
unless the first factor is in h, where indices just concatenate.  Every sum
of ``c * image(lam)`` here is ``combinat._expand``.  :func:`_class_function`
reads ``sum of c_lam * chi^lam`` at the cycle types it is given: ``s -> p``
gives it every cycle type of the degree, and ``kronecker`` only those of its
p factor.

A character is a tuple of values in canonical cycle-type order, and
:func:`characteristic_map` (ch) sends one to the p basis; the character route
to the internal product is ``grouporacle.permutation_character`` through it.
The Jacobi-Trudi determinants and the brute-force character table, second
routes to the same tables, live in :mod:`symkron.grouporacle` as checks.

A coefficient in ``SymFunc.terms`` is an ``int`` where it is integral and a
`fractions.Fraction` only where its denominator is greater than 1; the
constructor applies this rule, and conversions read the terms as stored.  A
conversion to or from p first scales its terms to ints by their common
denominator and divides each output term by it once, so only that division,
the ``1/z_rho`` of ``s -> p`` and rational input on the other paths bring
in a ``Fraction``.  Integrality is asserted where the theory demands it.
SymFunc values are immutable; the memos fill one entry at a time, and each
entry is stored once complete and checked, and then only read.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, lcm
from operator import attrgetter

from .combinat import (
    Partition, _border_strips, _check_row, _expand, _horizontal_strips, _removal_strips, _shared,
    _walk, class_sizes, conjugate, enumerate_partitions,
)
from .errors import DegreeMismatchError, InternalConsistencyError

BASES = ("m", "e", "h", "p", "s")

_denominator = attrgetter("denominator")


class SymFunc:
    """Basis-tagged sparse rational combination of partitions of one degree.

    A coefficient is stored as an ``int`` where it is integral and as a
    ``Fraction`` otherwise; zero coefficients are never stored.  Instances
    are immutable; all arithmetic returns new values.
    """

    __slots__ = ("basis", "degree", "terms")

    def __init__(self, basis: str, degree: int, terms: Mapping[Iterable[int], int | Fraction]):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}, expected one of {BASES}")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean: dict[Partition, int | Fraction] = {}
        for lam, coeff in terms.items():
            if type(lam) is not Partition:
                lam = Partition(lam)
            if lam.degree != degree:
                raise DegreeMismatchError(
                    f"term {tuple(lam)} has degree {lam.degree}, expected {degree}"
                )
            if type(coeff) is not int:
                coeff = Fraction(coeff)
                if coeff.denominator == 1:
                    coeff = coeff.numerator
            if coeff:
                clean[lam] = coeff
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SymFunc is immutable")

    def coeff(self, lam: Iterable[int]) -> int | Fraction:
        return self.terms.get(Partition(lam), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Partition, int | Fraction]]:
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
            acc[lam] = acc.get(lam, 0) + c
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
        terms = {tuple(t["partition"]): t["coeff"] for t in data["terms"]}
        return cls(data["basis"], data["degree"], terms)

    @classmethod
    def from_json(cls, text: str) -> "SymFunc":
        return cls.from_json_dict(json.loads(text))


def basis_element(basis: str, lam: Iterable[int]) -> SymFunc:
    """The single-term function ``1 * lam`` in the given basis."""
    lam = Partition(lam)
    return SymFunc(basis, lam.degree, {lam: 1})


class KostkaTable:
    """The tableau-count (Kostka) matrix of one degree, a read-only view of :func:`_h_in_s`.

    ``kostka(lam, mu)`` is the coefficient of ``s_lam`` in ``h_mu``, read
    from the column of ``mu``, which is built by Pieri's rule on its
    prefix's column when first read and asserted unitriangular; nothing
    in the package opens a table.  The memo :func:`_s_in_m` gives the
    rows, and :func:`_s_in_h` and :func:`_m_in_s` the inverse's rows and
    columns.  Construction walks and lists nothing.
    """

    def __init__(self, degree: int):
        self.degree = degree

    @cached_property
    def partitions(self) -> tuple[Partition, ...]:
        return enumerate_partitions(self.degree)

    def kostka(self, lam: Iterable[int], mu: Iterable[int]) -> int:
        lam, mu = Partition(lam), Partition(mu)
        for p in (lam, mu):
            if p.degree != self.degree:
                raise DegreeMismatchError(
                    f"{tuple(p)} has degree {p.degree}, but the table has degree {self.degree}"
                )
        return _h_in_s(mu).get(lam, 0)


@lru_cache(maxsize=None)
def build_kostka_table(d: int) -> KostkaTable:
    return KostkaTable(d)


def _class_function(rhos: Iterable[tuple[int, ...]], terms: Mapping) -> tuple[int, ...]:
    """``sum of c_lam * chi^lam`` at each cycle type ``rho``: strips removed, read at ``()``."""
    removals = [tuple(-k for k in rho) for rho in rhos]
    return tuple(leaf.get((), 0) for leaf in _walk(removals, _border_strips, terms))


def specht_character(lam: Iterable[int]) -> tuple[int, ...]:
    """Murnaghan-Nakayama character of a partition: one value per cycle type, canonical order."""
    lam = Partition(lam)
    return _class_function(enumerate_partitions(lam.degree), {lam: 1})


def characteristic_map(d: int, chi: tuple[int, ...]) -> SymFunc:
    """Image of a degree-d character row in the power-sum basis.

    The coefficient of the power sum at a cycle type is the character value
    divided by the centralizer order ``z_rho = d! / (class size)``.
    """
    _check_row(d, chi)
    order = factorial(d)
    terms = {
        rho: Fraction(value, order // size)
        for rho, value, size in zip(enumerate_partitions(d), chi, class_sizes(d))
    }
    return SymFunc("p", d, terms)


@lru_cache(maxsize=None)
def _h_in_s(mu: tuple[int, ...]) -> dict[Partition, int]:
    """``h_mu`` in s, in canonical order, by Pieri's rule (Macdonald I.5): the Kostka column of ``mu``.

    ``h_mu`` is ``h_(mu[:-1])`` times ``h_(mu[-1])``, so every shape of the
    column of ``mu[:-1]`` gains each horizontal strip of ``mu[-1]`` boxes.
    The column must be 1 at ``s_mu`` and name nothing after ``mu``.  The
    cached dict is shared: read it, never hand it out.
    """
    if not mu:
        return {Partition(): 1}
    out = _expand(_h_in_s(mu[:-1]), lambda lam: _horizontal_strips(lam, mu[-1]))
    entries = sorted(out.items(), reverse=True)
    if entries[-1:] != [(mu, 1)]:
        raise InternalConsistencyError("tableau-count matrix is not unitriangular")
    return _shared(entries)


@lru_cache(maxsize=None)
def _conjugate(lam: tuple[int, ...]) -> Partition:
    """``lam``'s conjugate, for omega, which relabels the same shapes on every read."""
    return conjugate(lam)


@lru_cache(maxsize=None)
def _s_in_h(lam: tuple[int, ...]) -> dict[Partition, int]:
    """``s_lam`` in h, in canonical order, by special rim hooks (Egecioglu-Remmel 1990).

    The rim hook from the first box of the last of ``n`` rows to the end of
    row ``i`` has ``lam[i] + n - 1 - i`` boxes and sign ``(-1)**(n - 1 - i)``;
    it leaves ``lam[:i]`` and the later parts less one, and its size joins each
    h index of that shape's row (Jacobi-Trudi by its last column, Macdonald
    I.3).  The row must be 1 at ``h_lam`` and name nothing after ``lam``.  The
    cached dict, keyed by shared shapes, is shared: read it, never hand it out.
    """
    n = len(lam)
    if not n:
        return {Partition(): 1}
    out: dict = {}
    for i in range(n):
        k = lam[i] + n - 1 - i
        sign = -1 if (n - 1 - i) % 2 else 1
        for mu, c in _s_in_h(lam[:i] + tuple(p - 1 for p in lam[i + 1 :] if p > 1)).items():
            key = tuple(sorted(mu + (k,), reverse=True))
            out[key] = out.get(key, 0) + sign * c
    row = sorted(((mu, c) for mu, c in out.items() if c), reverse=True)
    if row[-1:] != [(lam, 1)]:
        raise InternalConsistencyError("inverse tableau-count row is not unitriangular")
    return _shared(row)


@lru_cache(maxsize=None)
def _m_in_s(mu: tuple[int, ...]) -> dict[Partition, int]:
    """``m_mu`` in s, in canonical order: an inverse Kostka column, by :func:`_s_in_h` run backward.

    m is dual to h, so ``s_lam`` has in ``m_mu`` the coefficient that ``h_mu``
    has in ``s_lam``.  Removing a special rim hook of ``k`` boxes takes ``k``
    out of ``mu``, so for each distinct part ``k`` every shape ``lam'`` of
    the column of ``mu`` less one ``k`` gains each hook of ``k`` boxes whose
    removal gives ``lam'`` back: one ending in row ``i`` that adds ``t`` rows
    of 1 gives ``lam'[:i] + (k - b,) + (lam'[i:] each + 1) + (1,) * t``, with
    ``b = len(lam') - i + t`` and sign ``(-1)**b``.  The column must be 1 at
    ``s_mu`` and name nothing before ``mu``.  The cached dict is shared: read
    it, never hand it out.
    """
    if not mu:
        return {Partition(): 1}
    out: dict = {}
    for j, k in enumerate(mu):
        if j and mu[j - 1] == k:
            continue
        for lam, c in _m_in_s(mu[:j] + mu[j + 1 :]).items():
            n = len(lam)
            # Row i keeps part - t = k - b boxes, at most lam'[i - 1] and more than
            # lam'[i]; part - lam'[i] grows with i, so once a row fails, every row above does.
            for i in range(n, -1, -1):
                part, low = k - n + i, lam[i] + 1 if i < n else 1
                if part < low:
                    break
                head, tail = lam[:i], tuple(p + 1 for p in lam[i:])
                for t in range(max(0, part - (lam[i - 1] if i else k)), part - low + 1):
                    key = head + (part - t,) + tail + (1,) * t
                    out[key] = out.get(key, 0) + (-c if (n - i + t) % 2 else c)
    column = sorted(((lam, c) for lam, c in out.items() if c), reverse=True)
    if column[:1] != [(mu, 1)]:
        raise InternalConsistencyError("inverse tableau-count column is not unitriangular")
    return _shared(column)


@lru_cache(maxsize=None)
def _s_in_m(lam: tuple[int, ...], cap: int) -> dict[Partition, int]:
    """``s_lam`` in m over the contents with parts at most ``cap``, in canonical order: a Kostka row.

    ``K[lam, mu]`` does not change when the parts of ``mu`` are reordered, so
    the largest entries of a tableau, ``k`` of them, fill a horizontal strip
    removed from ``lam``, and what is left is counted over parts at most
    ``k``: every key ``(k,) + mu`` is a partition.  ``cap`` is at most
    ``lam[0]``, which gives the whole row; a whole row must be 1 at ``m_lam``
    and name nothing before ``lam``.  The cached dict is shared: read it,
    never hand it out.
    """
    if not lam:
        return {Partition(): 1}
    out: dict = {}
    strips = _removal_strips(lam)
    for k in range(cap, 0, -1):
        first = (k,)
        for nu in strips[k]:
            for mu, c in _s_in_m(nu, min(k, nu[0]) if nu else 0).items():
                key = first + mu
                out[key] = out.get(key, 0) + c
    row = sorted(out.items(), reverse=True)
    if cap == lam[0] and row[:1] != [(lam, 1)]:
        raise InternalConsistencyError("tableau-count row is not unitriangular")
    return _shared(row)


def _nonzero(terms: Mapping) -> dict:
    return {lam: c for lam, c in terms.items() if c}


def _convert_terms(
    d: int, basis: str, terms: Mapping[Partition, int | Fraction], target: str
) -> dict:
    """Re-expand degree-d ``basis`` terms in ``target``, through s, in exact arithmetic.

    ``SymFunc.terms`` passes straight in.  On the way into s, h and e read
    the Kostka columns :func:`_h_in_s` of their own terms, and m the inverse
    columns :func:`_m_in_s`; on the way out, h reads the rim-hook rows
    :func:`_s_in_h` of the s terms, and m the Kostka rows :func:`_s_in_m`.
    e relabels through :func:`_conjugate` only the shapes it reads.  So only
    s -> p, which reads the character at every cycle type, lists the
    partitions of ``d``.  Sums start from the int 0, so int terms stay ints
    on the Kostka and rim-hook paths.  On a p path the terms are first
    scaled to ints by their common denominator, so every sum runs on ints,
    and each output term is divided once by that denominator, if it is not
    1; s -> p also divides by ``z_rho`` in :func:`characteristic_map`.  Zero
    coefficients are skipped on the way and dropped from the result, so its
    keys are those, in the order, that a ``SymFunc`` built on it would store.
    """
    if target == basis:
        return _nonzero(terms)
    den = 1
    if "p" in (basis, target):
        den = lcm(*map(_denominator, terms.values()))
        if den != 1:
            terms = {lam: c.numerator * (den // c.denominator) for lam, c in terms.items()}
    mid = terms
    if basis == "p":
        rhos = sorted(terms, reverse=True)
        leaves = dict(zip(rhos, _walk(rhos, _border_strips, {(): 1})))
        mid = _expand(terms, lambda rho: leaves[rho].items())
    elif basis != "s":
        memo = _m_in_s if basis == "m" else _h_in_s
        mid = _expand(terms, lambda lam: memo(lam).items())
        if basis == "e":
            mid = {_conjugate(lam): c for lam, c in mid.items()}
    if target == "p":
        # ch of the integer class function: the sum of c_lam chi^lam.
        chi = _class_function(enumerate_partitions(d), mid)
        mid = characteristic_map(d, chi).terms
    elif target == "m":
        mid = _expand(mid, lambda lam: _s_in_m(lam, lam[0] if lam else 0).items())
    elif target != "s":
        if target == "e":
            mid = {_conjugate(lam): c for lam, c in mid.items()}
        mid = _expand(mid, lambda lam: _s_in_h(lam).items())
    if den == 1:
        return _nonzero(mid)
    return {lam: Fraction(c, den) for lam, c in mid.items() if c}


def convert(f: SymFunc, target: str) -> SymFunc:
    """The same symmetric function expressed in the target basis."""
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}, expected one of {BASES}")
    if target == f.basis:
        return f
    return SymFunc(target, f.degree, _convert_terms(f.degree, f.basis, f.terms, target))


def multiply(f: SymFunc, g: SymFunc) -> SymFunc:
    """Graded ring product, returned in the basis of ``f``.

    ``g`` is expanded in h.  If ``f`` is in h, the product concatenates and
    sorts partition indices, which walks nothing: through s, every pair of h
    elements with degrees up to 6 took ten times as long.  Otherwise it is
    Pieri's rule (Macdonald I.5):
    ``s_lam * h_gamma`` adds horizontal strips of the sizes ``gamma`` to
    ``lam``, so the s terms of ``f`` take one strip walk over the h terms of
    ``g`` in canonical order, and the sum in s is converted to ``f``'s basis.
    """
    d = f.degree + g.degree
    gh = _convert_terms(g.degree, g.basis, g.terms, "h")
    if f.basis == "h":
        def join(lam):
            return ((Partition(sorted(lam + mu, reverse=True)), b) for mu, b in gh.items())
        return SymFunc("h", d, _expand(f.terms, join))
    gammas = sorted(gh, reverse=True)
    # gh has no zero term, so _expand reads one leaf per gamma, in the walk's order.
    leaves = _walk(gammas, _horizontal_strips, _convert_terms(f.degree, f.basis, f.terms, "s"))
    acc = _expand({gamma: gh[gamma] for gamma in gammas}, lambda gamma: next(leaves).items())
    return SymFunc(f.basis, d, _convert_terms(d, "s", acc, f.basis))


def scalar_product(f: SymFunc, g: SymFunc) -> Fraction:
    """Bilinear pairing in which the h and m bases are dual.

    Functions of different degrees pair to zero.
    """
    if f.degree != g.degree:
        return Fraction(0)
    fh = _convert_terms(f.degree, f.basis, f.terms, "h")
    gm = _convert_terms(g.degree, g.basis, g.terms, "m")
    return Fraction(sum(fh[lam] * gm[lam] for lam in fh.keys() & gm.keys()))
