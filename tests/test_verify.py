"""Every verify check can fail: corrupting the route it checks makes its line FAIL.

Each case names a function that returns the ``(owner, name, corrupted
function)`` to patch.  A case of ``CASES`` corrupts a wrapper, which shows
that a check reads its inputs.  The test first runs the suite uncorrupted,
which must pass and which fills every memo the suite reads, so the corrupted
run cannot leave wrong entries in a table that later tests read.  Then it
patches one route, runs the suite through the CLI and asserts the exact
``FAIL`` line and exit code 1.  A case of ``TABLE_MUTATIONS`` corrupts one
table, which shows that a check shares no table with the route it checks.
It runs on fresh memos, which it clears again after, and names every check
that must fail.
"""

import itertools

import pytest

from symkron import grouporacle, symfunc, verify
from symkron.combinat import enumerate_partitions
from symkron.errors import InternalConsistencyError
from symkron.cli import main


def _bump(owner, name, when):
    """Corrupt ``owner.name`` to return one more than it should when ``when(*args)``."""
    real = getattr(owner, name)
    return owner, name, lambda *args: real(*args) + (1 if when(*args) else 0)


def _only(f, lam):
    return f.terms.keys() == {lam}


def _pairing(basis):
    def when(f, g):
        return f.basis == basis and _only(f, (2,)) and _only(g, (2,))

    return _bump(symfunc, "scalar_product", when)


def _diagonal():
    return _bump(symfunc.KostkaTable, "kostka", lambda self, lam, mu: lam == mu == (2, 1))


def _dominance():
    real = verify.dominance_leq
    flipped = ((1, 1, 1), (3,))
    return verify, "dominance_leq", lambda mu, lam: real(mu, lam) != ((mu, lam) == flipped)


def _h_to_s():
    real = symfunc.convert
    extra = symfunc.basis_element("s", (1, 1, 1))

    def broken(f, target):
        out = real(f, target)
        return out + extra if _only(f, (2, 1)) and f.basis == "h" else out

    return symfunc, "convert", broken


def _permutation_character(lam, wrong):
    real = grouporacle.permutation_character
    return grouporacle, "permutation_character", lambda mu: wrong if tuple(mu) == lam else real(mu)


def _jacobi_trudi():
    real = grouporacle.jacobi_trudi_dual
    return grouporacle, "jacobi_trudi_dual", lambda lam: -real(lam) if lam == (2, 1) else real(lam)


def _specht():
    real = symfunc.specht_character
    return symfunc, "specht_character", lambda lam: (1, 1) if lam == (1, 1) else real(lam)


def _isometry():
    return _bump(grouporacle, "character_scalar_product", lambda d, phi, psi: phi == psi == (0, 2))


def _kron_character():
    real = verify.kronecker_h
    return verify, "kronecker_h", lambda lam, mu: real(lam, lam) if lam != mu else real(lam, mu)


def _first_composition():
    real = grouporacle.compose
    calls = itertools.count()
    return grouporacle, "compose", lambda s, t: s if next(calls) == 0 else real(s, t)


ORTHONORMALITY = "orthonormality d=2: <s,s> and <h,m> are identity pairings"
KOSTKA = "kostka d=3: diagonal, dominance support, transition, characters"
CASES = {
    "s-pairing": (
        lambda: _pairing("s"), "orthonormality", 2, 0,
        f"FAIL {ORTHONORMALITY} [violations: [('s', (2,), (2,), '2')]]",
    ),
    "h-m-pairing": (
        lambda: _pairing("h"), "orthonormality", 2, 0,
        f"FAIL {ORTHONORMALITY} [violations: [('h/m', (2,), (2,), '2')]]",
    ),
    "diagonal": (
        _diagonal, "kostka", 3, 0,
        f"FAIL {KOSTKA} [violations: [('diagonal', (2, 1)), "
        "('character', (2, 1), (3,)), ('character', (2, 1), (1, 1, 1))]]",
    ),
    "dominance": (
        _dominance, "kostka", 3, 0,
        f"FAIL {KOSTKA} [violations: [('dominance', (3,), (1, 1, 1))]]",
    ),
    "h-to-s": (
        _h_to_s, "kostka", 3, 0,
        f"FAIL {KOSTKA} [violations: [('h-to-s', (2, 1), (1, 1, 1))]]",
    ),
    "permutation-character": (
        lambda: _permutation_character((2, 1), (1, 1, 3)), "kostka", 3, 0,
        f"FAIL {KOSTKA} [violations: [('character', (2, 1), (3,))]]",
    ),
    "jacobi-trudi": (
        _jacobi_trudi, "jacobi-trudi", 3, 0,
        "FAIL jacobi-trudi d=3: h determinant == conjugate e determinant "
        "[violations: [(2, 1)]]",
    ),
    "specht-image": (
        _specht, "all", 2, 0,
        "FAIL characteristic d=2: dictionary images and isometry "
        "[violations: [('specht', (1, 1))]]",
    ),
    "perm-image": (
        lambda: _permutation_character((1, 1), (1, 1)), "all", 2, 0,
        "FAIL characteristic d=2: dictionary images and isometry "
        "[violations: [('perm', (1, 1))]]",
    ),
    "isometry": (
        _isometry, "all", 2, 0,
        "FAIL characteristic d=2: dictionary images and isometry "
        "[violations: [('isometry', (1, 1), (1, 1))]]",
    ),
    "kron-character": (
        _kron_character, "all", 2, 0,
        "FAIL kron-character d=2: character route == margin-rule route "
        "[violations: [((2,), (1, 1)), ((1, 1), (2,))]]",
    ),
    "random-action": (
        _first_composition, "all", 2, 4,
        "FAIL action d=3: 200 random composition-law triples (seed 4) "
        "[violations: [((3, 2, 1), (1, 3, 2), (1, 2, 1))]]",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_corrupted_route_fails_its_check(capsys, monkeypatch, case):
    corrupt, suite, d, seed, line = CASES[case]
    assert all(check.passed for check in verify.run_verify(suite, d, seed=seed))
    monkeypatch.setattr(*corrupt())
    code = main(["verify", "--suite", suite, "--d", str(d), "--seed", str(seed)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert line in lines
    assert lines[-1] == f"FAIL {suite}: {len(lines) - 1} checks"


def _kostka_entry():
    """The (1^d) Kostka column, one too high at the second partition for d >= 4; columns built on it follow."""
    real = symfunc._h_in_s

    def column(mu):
        out = real(mu)
        d = len(mu)
        if d >= 4 and mu == (1,) * d:
            second = enumerate_partitions(d)[1]
            out = {**out, second: out[second] + 1}
        return out

    return symfunc, "_h_in_s", column


def _rim_hook_row():
    """The row of s_(2,1,1), one too high at h_(3,1); rows built on it follow."""
    real = symfunc._s_in_h

    def row(lam):
        out = real(lam)
        return {**out, (3, 1): out.get((3, 1), 0) + 1} if lam == (2, 1, 1) else out

    return symfunc, "_s_in_h", row


def _kostka_row():
    """The Kostka rows of (d), one too high at (1^d) for d >= 4; rows built on them follow."""
    real = symfunc._s_in_m

    def row(lam, cap):
        out = real(lam, cap)
        if len(lam) == 1 and lam[0] >= 4:
            ones = (1,) * lam[0]
            out = {**out, ones: out[ones] + 1}
        return out

    return symfunc, "_s_in_m", row


def _m_column():
    """The inverse Kostka columns of (d), one too high at s_(1^d) for d >= 4; columns built on them follow."""
    real = symfunc._m_in_s

    def column(mu):
        out = real(mu)
        if len(mu) == 1 and mu[0] >= 4:
            ones = (1,) * mu[0]
            out = {**out, ones: out[ones] + 1}
        return out

    return symfunc, "_m_in_s", column


def _jt_sign():
    """The h_(d) term of the (d-1,1) determinant, sign flipped for d >= 4; (d-1,1) and (2,1^(d-2)) read it."""
    real = grouporacle._det_expansion

    def expansion(parts):
        out = real(parts)
        d = sum(parts)
        if d >= 4 and parts == (d - 1, 1):
            out = {**out, (d,): -out[(d,)]}
        return out

    return grouporacle, "_det_expansion", expansion


def _mn_sign():
    """Every strip of 1 box removed from (n), n >= 4, sign flipped; MN characters of degree >= 4 read it."""
    real = symfunc._border_strips

    def strips(shape, size):
        out = real(shape, size)
        if size == -1 and len(shape) == 1 and shape[0] >= 4:
            out = tuple((nu, -sign) for nu, sign in out)
        return out

    return symfunc, "_border_strips", strips


# Table-level mutations: each corrupts one table, not a wrapper, and names the
# suites that must fail at every degree from 4 up to its top degree, and pass below.
TABLE_MUTATIONS = {
    "jt-sign": (_jt_sign, 6, ("jacobi-trudi",)),
    "kostka-entry": (_kostka_entry, 6, ("kostka", "jacobi-trudi")),
    "kostka-row": (_kostka_row, 6, ("orthonormality",)),
    "m-column": (_m_column, 6, ("orthonormality",)),
    "mn-sign": (_mn_sign, 6, ("kostka",)),
    "rim-hook-row": (_rim_hook_row, 5, ("orthonormality", "jacobi-trudi")),
}


@pytest.mark.parametrize("case", sorted(TABLE_MUTATIONS))
def test_corrupted_table_fails_its_checks(monkeypatch, case):
    mutate, d, suites = TABLE_MUTATIONS[case]
    # Fresh memos on both sides: the mutated run builds the corrupted tables,
    # and no later test reads them.
    memos = (
        symfunc.build_kostka_table,
        symfunc._h_in_s,
        symfunc._m_in_s,
        symfunc._s_in_h,
        symfunc._s_in_m,
        grouporacle._det_expansion,
    )
    for memo in memos:
        memo.cache_clear()
    monkeypatch.setattr(*mutate())
    try:
        for suite in suites:
            failed = [c.name.split(":")[0] for c in verify.run_verify(suite, d) if not c.passed]
            assert failed == [f"{suite} d={e}" for e in range(4, d + 1)]
    finally:
        monkeypatch.undo()
        for memo in memos:
            memo.cache_clear()


@pytest.mark.parametrize("d", [0, 1, 2])
def test_action_check_sees_a_swapped_composition_at_low_degree(monkeypatch, d):
    # S_2 is abelian, so the check must sample a larger group to see the order.
    real = grouporacle.compose
    monkeypatch.setattr(grouporacle, "compose", lambda s, t: real(t, s))
    (action,) = [c for c in verify.run_verify("all", d) if c.name.startswith("action ")]
    assert not action.passed


def test_internal_consistency_failure_is_a_failed_check(capsys, monkeypatch):
    # A failed identity inside a suite ends that suite with one FAIL line; the
    # checks before it stay, and the other suites of `all` still run.
    real = grouporacle.character_table

    def table(e):
        if e >= 2:
            raise InternalConsistencyError(f"row of degree {e} is not a character")
        return real(e)

    monkeypatch.setattr(grouporacle, "character_table", table)
    assert main(["verify", "--suite", "kostka", "--d", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "PASS kostka d=0: diagonal, dominance support, transition, characters",
        "PASS kostka d=1: diagonal, dominance support, transition, characters",
        "FAIL kostka: internal consistency [row of degree 2 is not a character]",
        "FAIL kostka: 3 checks",
    ]
    assert captured.err == ""
    assert main(["verify", "--suite", "all", "--d", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert failed == [
        "FAIL kostka: internal consistency [row of degree 2 is not a character]",
        f"FAIL all: {len(lines) - 1} checks",
    ]
    assert "PASS jacobi-trudi d=2: h determinant == conjugate e determinant" in lines
