"""Named verification suites over all partitions of bounded degree.

Each suite pits two independent routes to the same exact quantity against
each other and reports one line per degree and identity family.  Suites:

* ``monoidal``: margin-matrix decomposition of permutation-module tensor
  products against explicit orbit enumeration, including the per-orbit
  size and overlap-matrix checks.
* ``orthonormality``: Schur elements pair to the identity matrix, rim-hook
  rows (s in h, special rim hooks removed) against Kostka rows (s in m,
  horizontal strips removed); complete elements pair to the identity with
  each monomial element taken to s and back, inverse Kostka columns (m in
  s, special rim hooks added) against the Kostka rows.
* ``kostka``: unit diagonal, dominance support, the complete-to-Schur
  transition against tableau counts, the brute-force character table
  against the Murnaghan-Nakayama characters, and the decomposition of
  permutation characters.
* ``jacobi-trudi``: the complete-basis determinant converted to the
  elementary basis through the Kostka table and omega, against the
  conjugate-shape determinant.
* ``all``: every suite above, plus the characteristic-map dictionary,
  isometry, the character route to the internal product against
  ``kronecker_h`` and against ``kronecker`` of ``e_lam`` and ``h_mu`` (the
  sign character times two permutation characters) and of ``s_lam`` and
  ``s_mu`` (two rows of the brute-force character table), and seeded random
  spot checks of the place action.

A suite is a generator of ``(check name, violations)`` pairs, one per check;
an empty list of violations is a pass.  :func:`run_verify` alone turns them
into :class:`Check` results, records an ``InternalConsistencyError`` raised
inside a suite as one failed check of that suite, and it owns the degree cap
:data:`MAX_VERIFY_DEGREE`.  The oracle's own budgets are checked where the
oracle is called, except that ``monoidal`` checks the orbit-pair cap on every
pair before its first orbit, so an oversized degree is refused before any
work.
"""

from __future__ import annotations

import random
from collections import namedtuple
from operator import mul

from . import grouporacle, symfunc
from .combinat import count_ssyt, dominance_leq, enumerate_partitions
from .contingency import decompose_permutation_tensor
from .errors import BudgetExceededError, InternalConsistencyError
from .kronecker import kronecker, kronecker_h

MAX_VERIFY_DEGREE = 8


Check = namedtuple("Check", "name passed detail", defaults=("",))


def _pairs(d: int):
    parts = enumerate_partitions(d)
    return [(lam, mu) for lam in parts for mu in parts]


def suite_monoidal(d: int, seed: int):
    for e in range(d + 1):
        for lam, mu in _pairs(e):
            grouporacle._check_orbit_pairs(lam, mu)
    for e in range(d + 1):
        bad = []
        for lam, mu in _pairs(e):
            structural = decompose_permutation_tensor(lam, mu)
            if structural != grouporacle.tensor_orbit_decompose(lam, mu):
                bad.append((tuple(lam), tuple(mu)))
        yield (
            f"monoidal d={e}: margin rule == orbit decomposition "
            f"({len(_pairs(e))} pairs, orbit sizes and overlap matrices checked)",
            bad,
        )


def suite_orthonormality(d: int, seed: int):
    for e in range(d + 1):
        bad = []
        # m_mu -> s -> m: inverse Kostka columns (special rim hooks added)
        # against Kostka rows (horizontal strips removed).
        back = {
            mu: symfunc.convert(symfunc.convert(symfunc.basis_element("m", mu), "s"), "m")
            for mu in enumerate_partitions(e)
        }
        for lam, mu in _pairs(e):
            expected = int(lam == mu)
            got = symfunc.scalar_product(
                symfunc.basis_element("s", lam), symfunc.basis_element("s", mu)
            )
            if got != expected:
                bad.append(("s", tuple(lam), tuple(mu), str(got)))
            got = symfunc.scalar_product(symfunc.basis_element("h", lam), back[mu])
            if got != expected:
                bad.append(("h/m", tuple(lam), tuple(mu), str(got)))
        yield f"orthonormality d={e}: <s,s> and <h,m> are identity pairings", bad


def suite_kostka(d: int, seed: int):
    for e in range(d + 1):
        parts = enumerate_partitions(e)
        columns = {mu: symfunc.convert(symfunc.basis_element("h", mu), "s") for mu in parts}
        bad = []
        for lam in parts:
            if columns[lam].coeff(lam) != 1:
                bad.append(("diagonal", tuple(lam)))
            for mu in parts:
                nonzero = columns[mu].coeff(lam) != 0
                if nonzero != dominance_leq(mu, lam):
                    bad.append(("dominance", tuple(lam), tuple(mu)))
        # count_ssyt removes strips from mu, and reads no Kostka column.
        for lam in parts:
            for mu in parts:
                if columns[lam].coeff(mu) != count_ssyt(mu, lam):
                    bad.append(("h-to-s", tuple(lam), tuple(mu)))
        # Murnaghan-Nakayama characters, built once per degree for both checks.
        specht = [symfunc.specht_character(lam) for lam in parts]
        for lam, row, chi in zip(parts, grouporacle.character_table(e), specht):
            if row != chi:
                bad.append(("character-table", tuple(lam)))
        by_class = list(zip(*specht))
        for mu in parts:
            column = [columns[mu].coeff(lam) for lam in parts]
            perm = grouporacle.permutation_character(mu)
            for rho, chis, value in zip(parts, by_class, perm):
                if sum(k * chi for k, chi in zip(column, chis)) != value:
                    bad.append(("character", tuple(mu), tuple(rho)))
        yield f"kostka d={e}: diagonal, dominance support, transition, characters", bad


def suite_jacobi_trudi(d: int, seed: int):
    for e in range(d + 1):
        bad = []
        for lam in enumerate_partitions(e):
            via_pivot = symfunc.convert(grouporacle.jacobi_trudi(lam), "e")
            direct = grouporacle.jacobi_trudi_dual(lam)
            if via_pivot != direct:
                bad.append(tuple(lam))
        yield f"jacobi-trudi d={e}: h determinant == conjugate e determinant", bad


def suite_characteristic(d: int, seed: int):
    for e in range(d + 1):
        bad = []
        for lam in enumerate_partitions(e):
            image = symfunc.characteristic_map(e, symfunc.specht_character(lam))
            if symfunc.convert(image, "s") != symfunc.basis_element("s", lam):
                bad.append(("specht", tuple(lam)))
            image = symfunc.characteristic_map(e, grouporacle.permutation_character(lam))
            if symfunc.convert(image, "h") != symfunc.basis_element("h", lam):
                bad.append(("perm", tuple(lam)))
        for lam, mu in _pairs(e):
            phi = grouporacle.permutation_character(lam)
            psi = grouporacle.permutation_character(mu)
            lhs = symfunc.scalar_product(
                symfunc.characteristic_map(e, phi), symfunc.characteristic_map(e, psi)
            )
            rhs = grouporacle.character_scalar_product(e, phi, psi)
            if lhs != rhs:
                bad.append(("isometry", tuple(lam), tuple(mu)))
        yield f"characteristic d={e}: dictionary images and isometry", bad


def suite_kron_character(d: int, seed: int):
    for e in range(d + 1):
        # The sign character (-1)**(e - len(rho)) times pi^lam is the character of e_lam.
        sign = [(-1) ** (e - len(rho)) for rho in enumerate_partitions(e)]
        irreducible = dict(zip(enumerate_partitions(e), grouporacle.character_table(e)))
        bad = []
        for lam, mu in _pairs(e):
            phi = grouporacle.permutation_character(lam)
            psi = grouporacle.permutation_character(mu)
            product = tuple(a * b for a, b in zip(phi, psi))
            via_chars = symfunc.convert(symfunc.characteristic_map(e, product), "h")
            structural = kronecker_h(lam, mu)
            if via_chars != structural:
                bad.append((tuple(lam), tuple(mu)))
            for kind, chi, a, b in (
                ("sign", map(mul, sign, product), "e", "h"),
                ("specht", map(mul, irreducible[lam], irreducible[mu]), "s", "s"),
            ):
                via_chars = symfunc.convert(symfunc.characteristic_map(e, tuple(chi)), a)
                f, g = symfunc.basis_element(a, lam), symfunc.basis_element(b, mu)
                if via_chars != kronecker(f, g):
                    bad.append((kind, tuple(lam), tuple(mu)))
        yield f"kron-character d={e}: character route == margin-rule route", bad


def suite_random_action(d: int, seed: int):
    rng = random.Random(seed)
    # At least S_3: S_2 is abelian and cannot tell compose(s, t) from compose(t, s).
    e = max(3, min(d, 6))
    bad = []
    for _ in range(200):
        i = tuple(rng.randrange(1, e + 1) for _ in range(e))
        sigma = tuple(rng.sample(range(1, e + 1), e))
        tau = tuple(rng.sample(range(1, e + 1), e))
        lhs = grouporacle.act(tau, grouporacle.act(sigma, i))
        rhs = grouporacle.act(grouporacle.compose(sigma, tau), i)
        if lhs != rhs:
            bad.append((sigma, tau, i))
    yield f"action d={e}: 200 random composition-law triples (seed {seed})", bad


_SUITE_FUNCS = {
    "monoidal": (suite_monoidal,),
    "orthonormality": (suite_orthonormality,),
    "kostka": (suite_kostka,),
    "jacobi-trudi": (suite_jacobi_trudi,),
    "all": (
        suite_monoidal,
        suite_orthonormality,
        suite_kostka,
        suite_jacobi_trudi,
        suite_characteristic,
        suite_kron_character,
        suite_random_action,
    ),
}

SUITES = tuple(_SUITE_FUNCS)


def run_verify(suite: str, d: int, *, seed: int = 0) -> list[Check]:
    """Run a named suite up to degree ``d`` and return its checks."""
    if suite not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {suite!r}, expected one of {SUITES}")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d > MAX_VERIFY_DEGREE:
        raise BudgetExceededError(
            f"degree {d} exceeds the verification cap of {MAX_VERIFY_DEGREE}"
        )
    checks = []
    for func in _SUITE_FUNCS[suite]:
        label = "mismatched pairs" if func is suite_monoidal else "violations"
        try:
            for name, bad in func(d, seed):
                checks.append(Check(name, not bad, f"{label}: {bad}" if bad else ""))
        except InternalConsistencyError as exc:  # one failed check; the next suite still runs
            name = func.__name__.removeprefix("suite_").replace("_", "-")
            checks.append(Check(f"{name}: internal consistency", False, str(exc)))
    return checks
