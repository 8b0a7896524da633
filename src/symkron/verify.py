"""Named verification suites over all partitions of bounded degree.

Each suite pits two independent routes to the same exact quantity against
each other and reports one line per degree and identity family.  Suites:

* ``monoidal``: margin-matrix decomposition of permutation-module tensor
  products against explicit orbit enumeration, including the per-orbit
  size and overlap-matrix checks.
* ``orthonormality``: Schur elements pair to the identity matrix; complete
  and monomial elements are dual.
* ``kostka``: unit diagonal, dominance support, the complete-to-Schur
  transition, the brute-force character table against the
  Murnaghan-Nakayama characters, and the decomposition of permutation
  characters.
* ``jacobi-trudi``: the complete-basis determinant converted to the
  elementary basis through the Kostka table and omega, against the
  conjugate-shape determinant.
* ``all``: every suite above, plus the characteristic-map dictionary,
  isometry, the character route to the internal product, and seeded random
  spot checks of the place action.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import grouporacle, symfunc
from .combinat import dominance_leq, enumerate_partitions
from .contingency import decompose_permutation_tensor
from .errors import BudgetExceededError
from .kronecker import kronecker_h

SUITES = ("monoidal", "orthonormality", "kostka", "jacobi-trudi", "all")

DEFAULT_MAX_VERIFY_DEGREE = 8


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class RunConfig:
    """Budgets and the random seed for the verification suites."""

    max_pairs: int = field(
        default_factory=lambda: grouporacle.env_cap(
            "SYMKRON_MAX_PAIRS", grouporacle.DEFAULT_MAX_ORBIT_PAIRS
        )
    )
    max_degree: int = DEFAULT_MAX_VERIFY_DEGREE
    seed: int = 0

    def __post_init__(self):
        if self.max_pairs <= 0 or self.max_degree <= 0:
            raise ValueError("budget caps must be positive")


def _pairs(d: int):
    parts = enumerate_partitions(d)
    return [(lam, mu) for lam in parts for mu in parts]


def suite_monoidal(d: int, config: RunConfig) -> list[Check]:
    checks = []
    for e in range(d + 1):
        bad = []
        for lam, mu in _pairs(e):
            structural = decompose_permutation_tensor(lam, mu)
            orbital = grouporacle.tensor_orbit_decompose(
                lam, mu, max_pairs=config.max_pairs
            )
            if structural != orbital:
                bad.append((tuple(lam), tuple(mu)))
        checks.append(
            Check(
                f"monoidal d={e}: margin rule == orbit decomposition "
                f"({len(_pairs(e))} pairs, orbit sizes and overlap matrices checked)",
                not bad,
                f"mismatched pairs: {bad}" if bad else "",
            )
        )
    return checks


def suite_orthonormality(d: int, config: RunConfig) -> list[Check]:
    checks = []
    for e in range(d + 1):
        bad = []
        for lam, mu in _pairs(e):
            expected = Fraction(1 if lam == mu else 0)
            got = symfunc.scalar_product(
                symfunc.basis_element("s", lam), symfunc.basis_element("s", mu)
            )
            if got != expected:
                bad.append(("s", tuple(lam), tuple(mu), str(got)))
            got = symfunc.scalar_product(
                symfunc.basis_element("h", lam), symfunc.basis_element("m", mu)
            )
            if got != expected:
                bad.append(("h/m", tuple(lam), tuple(mu), str(got)))
        checks.append(
            Check(
                f"orthonormality d={e}: <s,s> and <h,m> are identity pairings",
                not bad,
                f"violations: {bad}" if bad else "",
            )
        )
    return checks


def suite_kostka(d: int, config: RunConfig) -> list[Check]:
    checks = []
    for e in range(d + 1):
        table = symfunc.build_kostka_table(e)
        bad = []
        for lam in table.partitions:
            if table.kostka(lam, lam) != 1:
                bad.append(("diagonal", tuple(lam)))
            for mu in table.partitions:
                nonzero = table.kostka(lam, mu) != 0
                if nonzero != dominance_leq(mu, lam):
                    bad.append(("dominance", tuple(lam), tuple(mu)))
        for lam in table.partitions:
            in_s = symfunc.convert(symfunc.basis_element("h", lam), "s")
            for mu in table.partitions:
                if in_s.coeff(mu) != table.kostka(mu, lam):
                    bad.append(("h-to-s", tuple(lam), tuple(mu)))
        for lam, row in zip(table.partitions, grouporacle.character_table(e)):
            if list(row) != [symfunc.character_value(lam, rho) for rho in table.partitions]:
                bad.append(("character-table", tuple(lam)))
        for mu in table.partitions:
            perm = grouporacle.permutation_character(mu)
            for rho in table.partitions:
                total = sum(
                    table.kostka(lam, mu) * grouporacle.specht_character(lam)(rho)
                    for lam in table.partitions
                )
                if total != perm(rho):
                    bad.append(("character", tuple(mu), tuple(rho)))
        checks.append(
            Check(
                f"kostka d={e}: diagonal, dominance support, transition, characters",
                not bad,
                f"violations: {bad}" if bad else "",
            )
        )
    return checks


def suite_jacobi_trudi(d: int, config: RunConfig) -> list[Check]:
    checks = []
    for e in range(d + 1):
        bad = []
        for lam in enumerate_partitions(e):
            via_pivot = symfunc.convert(grouporacle.jacobi_trudi(lam), "e")
            direct = grouporacle.jacobi_trudi_dual(lam)
            if via_pivot != direct:
                bad.append(tuple(lam))
        checks.append(
            Check(
                f"jacobi-trudi d={e}: h determinant == conjugate e determinant",
                not bad,
                f"violations: {bad}" if bad else "",
            )
        )
    return checks


def suite_characteristic(d: int, config: RunConfig) -> list[Check]:
    checks = []
    for e in range(d + 1):
        bad = []
        for lam in enumerate_partitions(e):
            image = grouporacle.characteristic_map(grouporacle.specht_character(lam))
            if symfunc.convert(image, "s") != symfunc.basis_element("s", lam):
                bad.append(("specht", tuple(lam)))
            image = grouporacle.characteristic_map(grouporacle.permutation_character(lam))
            if symfunc.convert(image, "h") != symfunc.basis_element("h", lam):
                bad.append(("perm", tuple(lam)))
        for lam, mu in _pairs(e):
            phi = grouporacle.permutation_character(lam)
            psi = grouporacle.permutation_character(mu)
            lhs = symfunc.scalar_product(
                grouporacle.characteristic_map(phi), grouporacle.characteristic_map(psi)
            )
            rhs = grouporacle.character_scalar_product(phi, psi)
            if lhs != rhs:
                bad.append(("isometry", tuple(lam), tuple(mu)))
        checks.append(
            Check(
                f"characteristic d={e}: dictionary images and isometry",
                not bad,
                f"violations: {bad}" if bad else "",
            )
        )
    return checks


def suite_kron_character(d: int, config: RunConfig) -> list[Check]:
    checks = []
    for e in range(d + 1):
        bad = []
        for lam, mu in _pairs(e):
            product = grouporacle.permutation_character(lam) * grouporacle.permutation_character(mu)
            via_chars = symfunc.convert(grouporacle.characteristic_map(product), "h")
            structural = kronecker_h(lam, mu)
            if via_chars != structural:
                bad.append((tuple(lam), tuple(mu)))
        checks.append(
            Check(
                f"kron-character d={e}: character route == margin-rule route",
                not bad,
                f"violations: {bad}" if bad else "",
            )
        )
    return checks


def suite_random_action(d: int, config: RunConfig) -> list[Check]:
    rng = random.Random(config.seed)
    e = max(2, min(d, 6))
    bad = []
    for _ in range(200):
        i = tuple(rng.randrange(1, e + 1) for _ in range(e))
        sigma = tuple(rng.sample(range(1, e + 1), e))
        tau = tuple(rng.sample(range(1, e + 1), e))
        lhs = grouporacle.act(tau, grouporacle.act(sigma, i))
        rhs = grouporacle.act(grouporacle.compose(sigma, tau), i)
        if lhs != rhs:
            bad.append((sigma, tau, i))
    return [
        Check(
            f"action d={e}: 200 random composition-law triples (seed {config.seed})",
            not bad,
            f"violations: {bad}" if bad else "",
        )
    ]


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


def run_verify(suite: str, d: int, config: RunConfig | None = None) -> list[Check]:
    """Run a named suite up to degree ``d`` and return its checks."""
    if suite not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {suite!r}, expected one of {SUITES}")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    config = config or RunConfig()
    if d > config.max_degree:
        raise BudgetExceededError(
            f"degree {d} exceeds the verification cap of {config.max_degree}"
        )
    checks: list[Check] = []
    for func in _SUITE_FUNCS[suite]:
        checks.extend(func(d, config))
    return checks
