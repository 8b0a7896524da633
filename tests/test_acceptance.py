"""End-to-end acceptance suite.

Each test exercises one exact identity family at full advertised scale and
prints a single pass/fail line (visible regardless of capture settings).
All checks are exact; the few with wall-clock targets assert them.
"""

import itertools
import math
import time

from symkron.cli import main as cli_main
from symkron.combinat import (
    Partition,
    conjugate,
    count_standard_tableaux,
    dominance_leq,
    enumerate_partitions,
)
from symkron.contingency import decompose_permutation_tensor
from symkron.grouporacle import (
    character_scalar_product,
    jacobi_trudi,
    jacobi_trudi_dual,
    permutation_character,
    tensor_orbit_decompose,
)
from symkron.kronecker import kronecker_coefficient, kronecker_h
from symkron.symfunc import (
    basis_element,
    build_kostka_table,
    characteristic_map,
    convert,
    scalar_product,
    specht_character,
)


def _report(capsys, num, ok, label, elapsed):
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {label} [{elapsed:.2f}s]")


def test_acceptance_01_worked_example_cli(capsys):
    start = time.perf_counter()
    code_a = cli_main(["contingency", "--lambda", "3,1", "--mu", "2,1,1"])
    out_a = capsys.readouterr().out
    code_b = cli_main(["decompose-perm", "--lambda", "3,1", "--mu", "2,1,1"])
    out_b = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    ok = (
        code_a == 0
        and out_a == "2,1,0\n0,0,1\n\n2,0,1\n0,1,0\n\n1,1,1\n1,0,0\n"
        and code_b == 0
        and out_b == "2*M[2,1,1] + M[1,1,1,1]\n"
        and elapsed < 1.0
    )
    _report(capsys, 1, ok, "CLI margins (3,1)x(2,1,1): three matrices and 2*M[2,1,1]+M[1,1,1,1]", elapsed)
    assert ok


def test_acceptance_02_monoidal_decompositions(capsys):
    start = time.perf_counter()
    ok = True
    for d in range(6):
        for lam, mu in itertools.product(enumerate_partitions(d), repeat=2):
            structural = decompose_permutation_tensor(lam, mu)
            orbital = tensor_orbit_decompose(lam, mu)
            if structural != orbital:
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _report(capsys, 2, ok, "margin rule == orbit oracle for all pairs, d <= 5 (with per-orbit checks)", elapsed)
    assert ok


def test_acceptance_03_character_level_monoidality(capsys):
    start = time.perf_counter()
    ok = True
    for d in range(7):
        for lam, mu in itertools.product(enumerate_partitions(d), repeat=2):
            product = tuple(
                a * b for a, b in zip(permutation_character(lam), permutation_character(mu))
            )
            if convert(characteristic_map(d, product), "h") != kronecker_h(lam, mu):
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(capsys, 3, ok, "ch of pointwise products == internal h product, d <= 6", elapsed)
    assert ok


def test_acceptance_04_isometry(capsys):
    start = time.perf_counter()
    ok = True
    for d in range(7):
        chars = [permutation_character(lam) for lam in enumerate_partitions(d)]
        for phi, psi in itertools.product(chars, repeat=2):
            lhs = scalar_product(characteristic_map(d, phi), characteristic_map(d, psi))
            if lhs != character_scalar_product(d, phi, psi):
                ok = False
    elapsed = time.perf_counter() - start
    _report(capsys, 4, ok, "characteristic map is an isometry on permutation characters, d <= 6", elapsed)
    assert ok


def test_acceptance_05_dictionary_identities(capsys):
    start = time.perf_counter()
    ok = True
    for d in range(7):
        unit = (d,) if d else ()
        if convert(characteristic_map(d, permutation_character(unit)), "h") != basis_element("h", unit):
            ok = False
        for lam in enumerate_partitions(d):
            if convert(characteristic_map(d, specht_character(lam)), "s") != basis_element("s", lam):
                ok = False
            if convert(characteristic_map(d, permutation_character(lam)), "h") != basis_element("h", lam):
                ok = False
    elapsed = time.perf_counter() - start
    _report(capsys, 5, ok, "irreducibles map to Schur, permutation characters to complete, d <= 6", elapsed)
    assert ok


def test_acceptance_06_kostka_suite(capsys):
    start = time.perf_counter()
    ok = True
    for d in range(7):
        table = build_kostka_table(d)
        for lam in table.partitions:
            if table.kostka(lam, lam) != 1:
                ok = False
            for mu in table.partitions:
                if (table.kostka(lam, mu) != 0) != dominance_leq(mu, lam):
                    ok = False
        for lam in table.partitions:
            expanded = convert(basis_element("h", lam), "s")
            for mu in table.partitions:
                if expanded.coeff(mu) != table.kostka(mu, lam):
                    ok = False
        for mu in table.partitions:
            perm = permutation_character(mu)
            for k, value in enumerate(perm):
                total = sum(
                    table.kostka(lam, mu) * specht_character(lam)[k]
                    for lam in table.partitions
                )
                if total != value:
                    ok = False
    elapsed = time.perf_counter() - start
    _report(capsys, 6, ok, "Kostka: diagonal, dominance support, h-to-s, character decomposition, d <= 6", elapsed)
    assert ok


def test_acceptance_07_jacobi_trudi_duality(capsys):
    start = time.perf_counter()
    ok = True
    for d in range(7):
        for lam in enumerate_partitions(d):
            if convert(jacobi_trudi(lam), "e") != jacobi_trudi_dual(lam):
                ok = False
    elapsed = time.perf_counter() - start
    _report(capsys, 7, ok, "h determinant == conjugate e determinant for every shape, d <= 6", elapsed)
    assert ok


def test_acceptance_08_specht_ranks(capsys):
    start = time.perf_counter()
    ok = True
    for d in range(6):
        identity = enumerate_partitions(d).index(Partition((1,) * d))
        total = 0
        for lam in enumerate_partitions(d):
            f = count_standard_tableaux(lam)
            total += f * f
            if specht_character(lam)[identity] != f:
                ok = False
        if total != math.factorial(d):
            ok = False
    elapsed = time.perf_counter() - start
    _report(capsys, 8, ok, "standard tableau counts == character degrees; squares sum to d!, d <= 5", elapsed)
    assert ok


def test_acceptance_09_kronecker_coefficients(capsys):
    start = time.perf_counter()
    ok = True
    for d in range(6):
        parts = enumerate_partitions(d)
        table = {}
        for lam, mu, nu in itertools.product(parts, repeat=3):
            value = kronecker_coefficient(lam, mu, nu)
            table[(lam, mu, nu)] = value
            if not (isinstance(value, int) and value >= 0):
                ok = False
        for triple, value in table.items():
            for perm in itertools.permutations(triple):
                if table[perm] != value:
                    ok = False
        unit = (d,) if d else ()
        sign = (1,) * d
        for lam in parts:
            if kronecker_coefficient(unit, lam, lam) != 1:
                ok = False
            if kronecker_coefficient(sign, lam, conjugate(lam)) != 1:
                ok = False
    elapsed = time.perf_counter() - start
    _report(capsys, 9, ok, "coefficients nonnegative integers, unit and sign-twist laws, full symmetry, d <= 5", elapsed)
    assert ok


def test_acceptance_10_orthonormality(capsys):
    start = time.perf_counter()
    ok = True
    for d in range(9):
        for lam, mu in itertools.product(enumerate_partitions(d), repeat=2):
            expected = 1 if lam == mu else 0
            if scalar_product(basis_element("s", lam), basis_element("s", mu)) != expected:
                ok = False
            if scalar_product(basis_element("h", lam), basis_element("m", mu)) != expected:
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(capsys, 10, ok, "<s,s> and <h,m> are identity pairings, d <= 8", elapsed)
    assert ok
