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

import importlib
import itertools

import pytest

from symkron import contingency, grouporacle, symfunc, verify
from symkron.combinat import enumerate_partitions
from symkron.errors import InternalConsistencyError
from symkron.cli import main

# The package re-exports the function ``kronecker`` under the submodule's name.
kronecker_module = importlib.import_module("symkron.kronecker")


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


def _dominance():
    real = verify.dominance_leq
    flipped = ((1, 1, 1), (3,))
    return verify, "dominance_leq", lambda mu, lam: real(mu, lam) != ((mu, lam) == flipped)


def _h_column(shape):
    """The Kostka column of (2, 1), ``h_(2,1)`` in s, one too high at ``s_shape``."""
    real = symfunc.convert
    extra = symfunc.basis_element("s", shape)

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
        lambda: _h_column((2, 1)), "kostka", 3, 0,
        f"FAIL {KOSTKA} [violations: [('diagonal', (2, 1)), ('h-to-s', (2, 1), (2, 1)), "
        "('character', (2, 1), (3,)), ('character', (2, 1), (1, 1, 1))]]",
    ),
    "dominance": (
        _dominance, "kostka", 3, 0,
        f"FAIL {KOSTKA} [violations: [('dominance', (3,), (1, 1, 1))]]",
    ),
    "h-to-s": (
        lambda: _h_column((1, 1, 1)), "kostka", 3, 0,
        f"FAIL {KOSTKA} [violations: [('dominance', (1, 1, 1), (2, 1)), "
        "('h-to-s', (2, 1), (1, 1, 1)), ('character', (2, 1), (3,)), "
        "('character', (2, 1), (2, 1)), ('character', (2, 1), (1, 1, 1))]]",
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


def _omega():
    """Omega relabels s_(3,1) as s_(2,2); only conversions of degree 4 into or out of e read it."""
    real = symfunc._conjugate
    return symfunc, "_conjugate", lambda lam: (2, 2) if lam == (3, 1) else real(lam)


def _kron_flip():
    """No factor of ``kronecker`` reports its omega flip, so a product with one e factor is read in h."""
    real = kronecker_module._expansion
    return kronecker_module, "_expansion", lambda f: (real(f)[0], False)


def _pieri_strip():
    """Adding one box to (2, 1) loses (2, 2); Kostka columns that step through it follow, d >= 4."""
    real = symfunc._horizontal_strips

    def strips(shape, size):
        out = real(shape, size)
        return tuple(s for s in out if s[0] != (2, 2)) if (shape, size) == ((2, 1), 1) else out

    return symfunc, "_horizontal_strips", strips


def _perm_char():
    """The fixed tuples of (2, 2), one too many at the class (2, 2); the d=4 character table reads them."""
    real = grouporacle._perm_char
    at = enumerate_partitions(4).index((2, 2))

    def row(lam):
        out = real(lam)
        return out[:at] + (out[at] + 1,) + out[at + 1 :] if lam == (2, 2) else out

    return grouporacle, "_perm_char", row


def _margin_class():
    """The first class of every margin state with rows (1, 1, 1, 1), one too high; walks of 1^d read them."""
    real = contingency._merge

    def merge(kids, memo):
        out = real(kids, memo)
        row, (rest, _) = kids[0]
        if (sum(row),) + rest == (1, 1, 1, 1):
            first = next(iter(out))
            out = {**out, first: out[first] + 1}
        return out

    return contingency, "_merge", merge


# Table-level mutations: each corrupts one table or one step of a route, not a
# wrapper a check calls, and names the checks that must fail at every degree
# from its first failing degree up to its top degree, and pass below.  A check
# that is no suite of its own runs in `all`, where it must be the only failure.
# A check named "<suite>: internal consistency" is an identity the suite asserts
# itself: it breaks at the first failing degree, and the suite stops there.
TABLE_MUTATIONS = {
    "jt-sign": (_jt_sign, 4, 6, ("jacobi-trudi",)),
    "kostka-entry": (_kostka_entry, 4, 6, ("kostka", "jacobi-trudi")),
    "kostka-row": (_kostka_row, 4, 6, ("orthonormality",)),
    "kron-flip": (_kron_flip, 2, 4, ("kron-character",)),
    "m-column": (_m_column, 4, 6, ("orthonormality",)),
    "margin-class": (_margin_class, 4, 5, ("monoidal",)),
    "mn-sign": (_mn_sign, 4, 6, ("kostka",)),
    "omega": (_omega, 4, 4, ("jacobi-trudi",)),
    "perm-char": (_perm_char, 4, 5, ("kostka: internal consistency",)),
    "pieri-strip": (_pieri_strip, 4, 6, ("kostka", "jacobi-trudi")),
    "rim-hook-row": (_rim_hook_row, 4, 5, ("orthonormality", "jacobi-trudi")),
}


@pytest.mark.parametrize("case", sorted(TABLE_MUTATIONS))
def test_corrupted_table_fails_its_checks(monkeypatch, case):
    mutate, first, d, checks = TABLE_MUTATIONS[case]
    # Fresh memos on both sides: the mutated run builds the corrupted tables,
    # and no later test reads them.
    clears = (
        symfunc._h_in_s.cache_clear,
        symfunc._m_in_s.cache_clear,
        symfunc._s_in_h.cache_clear,
        symfunc._s_in_m.cache_clear,
        grouporacle._det_expansion.cache_clear,
        grouporacle.character_table.cache_clear,
        contingency._CLASSES.clear,
        kronecker_module._kronecker_h.cache_clear,
    )
    for clear in clears:
        clear()
    monkeypatch.setattr(*mutate())
    try:
        for check in checks:
            name, _, broken = check.partition(": ")
            suite = name if name in verify.SUITES else "all"
            results = verify.run_verify(suite, d)
            failed = [c.name for c in results if not c.passed]
            if broken:
                assert failed == [check]
                assert results[-2].name.startswith(f"{name} d={first - 1}:")
            else:
                expected = [f"{check} d={e}" for e in range(first, d + 1)]
                assert [n.split(":")[0] for n in failed] == expected
    finally:
        monkeypatch.undo()
        for clear in clears:
            clear()


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
    # kron-character reads the same brute-force table, for its Schur products.
    assert failed == [
        "FAIL kostka: internal consistency [row of degree 2 is not a character]",
        "FAIL kron-character: internal consistency [row of degree 2 is not a character]",
        f"FAIL all: {len(lines) - 1} checks",
    ]
    assert "PASS jacobi-trudi d=2: h determinant == conjugate e determinant" in lines
