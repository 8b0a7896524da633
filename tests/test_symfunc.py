import itertools
import random
from fractions import Fraction

import pytest

from symkron import combinat, grouporacle, symfunc
from symkron.combinat import Partition, centralizer_order, enumerate_partitions
from symkron.contingency import decompose_permutation_tensor
from symkron.errors import BudgetExceededError, DegreeMismatchError, InternalConsistencyError
from symkron.grouporacle import jacobi_trudi, jacobi_trudi_dual
from symkron.symfunc import (
    BASES,
    SymFunc,
    basis_element,
    build_kostka_table,
    characteristic_map,
    convert,
    multiply,
    scalar_product,
    specht_character,
)

from oracles import expand_symfunc, h_concatenation_product


def test_symfunc_construction():
    f = SymFunc("s", 3, {(2, 1): 2, (3,): 0})
    assert f.terms == {(2, 1): Fraction(2)}
    assert f.coeff((3,)) == 0
    assert f.coeff((2, 1)) == 2
    with pytest.raises(DegreeMismatchError):
        SymFunc("s", 3, {(2, 2): 1})
    with pytest.raises(DegreeMismatchError):
        SymFunc("s", 3, {Partition((2, 2)): 1})
    with pytest.raises(ValueError, match="weakly decreasing"):
        SymFunc("s", 3, {(1, 2): 1})
    with pytest.raises(ValueError):
        SymFunc("x", 3, {})
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        SymFunc("s", -1, {})
    with pytest.raises(AttributeError):
        f.degree = 4
    # Equality with anything else is left to the other operand.
    assert f.__eq__(f.terms) is NotImplemented
    assert f != f.terms


def test_basis_element_examples():
    assert basis_element("h", (2, 1)).terms == {(2, 1): 1}
    unit = basis_element("s", ())
    assert unit.degree == 0 and unit.terms == {(): 1}
    assert convert(basis_element("m", (1, 1, 1)), "e") == basis_element("e", (3,))


def test_kostka_table_small():
    table = build_kostka_table(2)
    assert table.partitions == ((2,), (1, 1))
    # The tableau-count matrix and its inverse at d=2: columns of both, rows of the inverse.
    assert [symfunc._h_in_s(mu) for mu in table.partitions] == [{(2,): 1}, {(2,): 1, (1, 1): 1}]
    assert [symfunc._m_in_s(mu) for mu in table.partitions] == [{(2,): 1, (1, 1): -1}, {(1, 1): 1}]
    assert [symfunc._s_in_h(lam) for lam in table.partitions] == [{(2,): 1}, {(2,): -1, (1, 1): 1}]
    # Horizontal strips against rim hooks: rows times columns is the identity both ways.
    for d in range(11):
        table = build_kostka_table(d)
        columns = {mu: symfunc._h_in_s(mu) for mu in table.partitions}
        rows = {lam: symfunc._s_in_h(lam) for lam in table.partitions}
        for lam in table.partitions:
            assert table.kostka(lam, lam) == 1
            for there, back in ((columns, rows), (rows, columns)):
                total = {}
                for nu, c in there[lam].items():
                    for mu, x in back[nu].items():
                        total[mu] = total.get(mu, 0) + c * x
                assert {mu: c for mu, c in total.items() if c} == {lam: 1}


def test_inverse_kostka_columns_are_the_rim_hook_rows_transposed():
    # Special rim hooks added to the shapes of a smaller column, against
    # special rim hooks removed from the shape of a row.
    for d in range(11):
        parts = enumerate_partitions(d)
        for mu in parts:
            column = symfunc._m_in_s(mu)
            assert [lam for lam in parts if lam in column] == list(column)
            for lam in parts:
                assert column.get(lam, 0) == symfunc._s_in_h(lam).get(mu, 0)


def test_kostka_table_refuses_a_corrupted_column(monkeypatch):
    # The column of (2,1) adds a strip of 1 box to (2,): listing (2,1) twice
    # puts 2 on its diagonal, and listing (1,1,1) puts an entry after it.
    strips = symfunc._horizontal_strips
    corruptions = {
        "diagonal 2": ((2, 1), 1),
        "an entry after the diagonal": ((1, 1, 1), 1),
    }
    for what, extra in corruptions.items():
        monkeypatch.setattr(
            symfunc,
            "_horizontal_strips",
            lambda shape, k: strips(shape, k) + ((extra,) if (shape, k) == ((2,), 1) else ()),
        )
        # One entry read through the table, and every column of the degree read at once.
        reads = (
            lambda t: t.kostka((3,), (2, 1)),
            lambda t: [symfunc._h_in_s(mu) for mu in t.partitions],
        )
        for read in reads:
            symfunc._h_in_s.cache_clear()
            with pytest.raises(InternalConsistencyError, match="not unitriangular"):
                read(symfunc.KostkaTable(3))
    monkeypatch.undo()
    symfunc._h_in_s.cache_clear()
    assert symfunc.KostkaTable(3).kostka((3,), (2, 1)) == 1


def test_kostka_rows_refuse_a_corrupted_row(monkeypatch):
    # The row of (2,1) reads the row of (1,) for its diagonal, and the row of
    # (2,2,1) adds 2 to each content of the whole row of (2,1): 2 at m_(1)
    # puts 2 on the diagonal of (2,1), and m_(3) in the row of (2,1) puts
    # (2,3) before (2,2,1).
    real = symfunc._s_in_m
    corruptions = {
        "diagonal 2": ((2, 1), ((1,), 1), {(1,): 2}),
        "an entry before the diagonal": ((2, 2, 1), ((2, 1), 2), {(3,): 1}),
    }
    for what, (lam, key, extra) in corruptions.items():
        monkeypatch.setattr(
            symfunc,
            "_s_in_m",
            lambda *args: {**real(*args), **extra} if args == key else real(*args),
        )
        real.cache_clear()
        with pytest.raises(InternalConsistencyError, match="not unitriangular"):
            convert(basis_element("s", lam), "m")
    monkeypatch.undo()
    real.cache_clear()
    assert convert(basis_element("s", (2, 2, 1)), "m").coeff((2, 2, 1)) == 1


def test_kostka_table_walks_only_the_columns_it_is_asked_for(monkeypatch):
    def enumerate_all(d):
        raise AssertionError(f"the partitions of {d} were listed")

    # Opening a table walks nothing and lists nothing.
    monkeypatch.setattr(symfunc, "_h_in_s", None)
    monkeypatch.setattr(symfunc, "enumerate_partitions", enumerate_all)
    assert symfunc.KostkaTable(24).degree == 24
    monkeypatch.undo()
    # h_(12,12) -> s memoizes the columns of the prefixes of (12,12) only, not all 1575.
    columns, conjugates = symfunc._h_in_s, symfunc._conjugate
    columns.cache_clear()
    in_s = convert(basis_element("h", (12, 12)), "s")
    assert len(in_s.terms) == 13 and in_s.coeff((12, 12)) == 1
    assert columns.cache_info().currsize == 3
    for prefix in ((), (12,), (12, 12)):
        hits = columns.cache_info().hits
        columns(prefix)
        assert columns.cache_info().hits == hits + 1
    # h_(12,12) -> m reads the Kostka rows of those 13 shapes, and no other column.
    in_m = convert(basis_element("h", (12, 12)), "m")
    assert len(in_m.terms) == 1575 and columns.cache_info().currsize == 3
    # omega reads the conjugates of its terms only, and no column.
    columns.cache_clear()
    conjugates.cache_clear()
    in_e = convert(basis_element("s", (2,) + (1,) * 298), "e")
    assert in_e.render() == "-e[300] + e[299,1]"
    assert conjugates.cache_info().currsize == 1 and conjugates((2,) + (1,) * 298) == (299, 1)
    assert not columns.cache_info().currsize


def test_inverse_kostka_columns_refuse_a_corrupted_column(monkeypatch):
    # The column of (2,1) reads the column of (2,) for its diagonal, adding a
    # hook of 1 box to (2,), and the column of (2,1,1) adds hooks of 2 boxes
    # to the shapes of the column of (1,1): 2 at s_(2) puts 2 on the diagonal
    # of (2,1), and s_(2) in the column of (1,1) puts (2,2) before (2,1,1).
    real = symfunc._m_in_s
    corruptions = {
        "diagonal 2": ((2, 1), (2,), {(2,): 2}),
        "an entry before the diagonal": ((2, 1, 1), (1, 1), {(2,): 1}),
    }
    for what, (mu, key, extra) in corruptions.items():
        monkeypatch.setattr(
            symfunc, "_m_in_s", lambda nu: {**real(nu), **extra} if nu == key else real(nu)
        )
        real.cache_clear()
        with pytest.raises(InternalConsistencyError, match="not unitriangular"):
            convert(basis_element("m", mu), "s")
    monkeypatch.undo()
    real.cache_clear()
    assert convert(basis_element("m", (2, 1, 1)), "s").coeff((2, 1, 1)) == 1


def test_monomial_to_schur_reads_one_column_per_sub_multiset_of_its_term(monkeypatch):
    def forbidden(*args):
        raise AssertionError(f"read at {args}")

    # m_(6,6,5,5,4,4) -> s at d=30 lists no partition of 30 and reads no
    # rim-hook row: it memoizes the columns of the 3 * 3 * 3 sub-multisets of its parts.
    monkeypatch.setattr(symfunc, "_s_in_h", forbidden)
    monkeypatch.setattr(symfunc, "enumerate_partitions", forbidden)
    monkeypatch.setattr(combinat, "enumerate_partitions", forbidden)
    symfunc._m_in_s.cache_clear()
    in_s = convert(basis_element("m", (6, 6, 5, 5, 4, 4)), "s")
    assert len(in_s.terms) == 922 and in_s.coeff((6, 6, 5, 5, 4, 4)) == 1
    assert symfunc._m_in_s.cache_info().currsize == 27


def test_kostka_refuses_partitions_off_the_table_degree():
    table = build_kostka_table(3)
    for lam, mu in (((4,), (2, 1)), ((3,), (2, 2)), ((2,), (3,)), ((3,), ())):
        with pytest.raises(DegreeMismatchError):
            table.kostka(lam, mu)


def test_rim_hook_rows_refuse_a_corrupted_row(monkeypatch):
    # s_(2,1) = h_(2,1) - h_3 reads the row of (2,); corrupting that row puts
    # 2 at h_(2,1), or a term h_(1,1,1) after (2,1), into the row of (2,1).
    real = symfunc._s_in_h
    corruptions = {
        "diagonal 2": {(2,): 2},
        "a term after the diagonal": {(2,): 1, (1, 1): 1},
    }
    for what, row in corruptions.items():
        monkeypatch.setattr(symfunc, "_s_in_h", lambda lam: row if lam == (2,) else real(lam))
        for source, target in (("s", "h"), ("s", "e")):
            real.cache_clear()
            with pytest.raises(InternalConsistencyError, match="not unitriangular"):
                convert(basis_element(source, (2, 1)), target)
    real.cache_clear()


def test_inverse_free_reads_never_solve_the_inverse(monkeypatch):
    def row(lam):
        raise AssertionError("a rim-hook row was computed")

    monkeypatch.setattr(symfunc, "_s_in_h", row)
    pairs = (("h", "s"), ("e", "s"), ("m", "s"), ("s", "m"), ("h", "m"), ("e", "m"))
    for d in range(7):
        for source, target in pairs:
            for lam in enumerate_partitions(d):
                assert not convert(basis_element(source, lam), target).is_zero()


def test_schur_to_h_builds_no_kostka_table(monkeypatch):
    def table(d):
        raise AssertionError(f"the Kostka table of degree {d} was built")

    def column(mu):
        raise AssertionError(f"the Kostka column of {mu} was walked")

    monkeypatch.setattr(symfunc, "build_kostka_table", table)
    monkeypatch.setattr(symfunc, "_h_in_s", column)
    symfunc._s_in_h.cache_clear()
    lam = (6, 5, 4, 3, 2)
    in_h = convert(basis_element("s", lam), "h")
    assert len(in_h.terms) == 56 and in_h.coeff(lam) == 1
    # m -> s reads the inverse Kostka column of its term, m -> h then the rows of its shapes,
    # and neither a Kostka column nor a table.
    assert convert(basis_element("m", (3, 2, 1)), "s").coeff((3, 2, 1)) == 1
    assert not convert(basis_element("m", (3, 2, 1)), "h").is_zero()
    # s -> m reads the Kostka rows of its terms, not the columns.
    symfunc._s_in_m.cache_clear()
    in_m = convert(basis_element("s", (12, 12)), "m")
    assert len(in_m.terms) == 1380 and in_m.coeff((12, 12)) == 1
    assert in_m.coeff((1,) * 24) == combinat.count_standard_tableaux((12, 12))


def test_conversion_examples():
    assert convert(basis_element("h", (1, 1)), "s") == SymFunc("s", 2, {(2,): 1, (1, 1): 1})
    for d in range(1, 7):
        assert convert(basis_element("s", (d,)), "h") == basis_element("h", (d,))
    f = basis_element("p", (2, 1))
    assert convert(f, "p") == f
    with pytest.raises(ValueError, match="unknown basis 'x'"):
        convert(f, "x")


def test_round_trips_all_basis_pairs():
    for d in range(7):
        for lam in enumerate_partitions(d):
            for src, via in itertools.product(BASES, repeat=2):
                x = basis_element(src, lam)
                assert convert(convert(x, via), src) == x


def test_conversions_against_polynomial_expansion():
    for d in range(1, 6):
        nvars = d
        for lam in enumerate_partitions(d):
            for src in BASES:
                x = basis_element(src, lam)
                reference = expand_symfunc(x, nvars)
                for target in BASES:
                    assert expand_symfunc(convert(x, target), nvars) == reference


def test_jacobi_trudi_examples():
    for d in range(1, 7):
        assert jacobi_trudi((d,)) == basis_element("h", (d,))
    assert jacobi_trudi((1, 1)) == SymFunc("h", 2, {(1, 1): 1, (2,): -1})
    assert jacobi_trudi((2, 1)) == SymFunc("h", 3, {(2, 1): 1, (3,): -1})
    assert jacobi_trudi(()) == basis_element("h", ())


def test_jacobi_trudi_refuses_more_than_8_factorial_terms():
    # Nine parts: 9! permutations, refused before any is walked.
    with pytest.raises(BudgetExceededError, match="362880 determinant terms exceed the cap of 40320"):
        jacobi_trudi((1,) * 9)
    with pytest.raises(BudgetExceededError, match="cap of 40320"):
        jacobi_trudi_dual((9,))
    # Eight parts, 8! permutations, is at the cap and still expands.
    assert jacobi_trudi_dual((8,)) == convert(basis_element("s", (8,)), "e")


def test_jacobi_trudi_matches_schur_conversion():
    for d in range(7):
        for lam in enumerate_partitions(d):
            assert convert(basis_element("s", lam), "h") == jacobi_trudi(lam)


def test_conversions_never_reach_the_determinant(monkeypatch):
    def forbidden(parts):
        raise AssertionError(f"production conversion reached the determinant for {parts}")

    monkeypatch.setattr(grouporacle, "_det_expansion", forbidden)
    # Start from empty tables so that no cached entry hides a determinant call.
    for obj in vars(symfunc).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    for d in range(7):
        for lam in enumerate_partitions(d):
            for src, target in itertools.product(BASES, repeat=2):
                convert(basis_element(src, lam), target)


def test_power_sum_conversions_never_reach_the_brute_force_characters(monkeypatch):
    def forbidden(*args):
        raise AssertionError(f"production route reached the brute-force characters at {args}")

    monkeypatch.setattr(grouporacle, "character_table", forbidden)
    monkeypatch.setattr(grouporacle, "_perm_char", forbidden)
    for obj in vars(symfunc).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    for d in range(7):
        for lam in enumerate_partitions(d):
            convert(basis_element("p", lam), "s")
            convert(basis_element("s", lam), "p")
            symfunc.specht_character(lam)


def test_power_sum_to_schur_lists_no_partition_of_its_degree(monkeypatch):
    def enumerate_small(d):
        if d >= 12:
            raise AssertionError(f"the partitions of {d} were listed")
        return enumerate_partitions(d)

    monkeypatch.setattr(symfunc, "enumerate_partitions", enumerate_small)
    in_s = convert(basis_element("p", (12, 12)), "s")
    p12 = convert(basis_element("p", (12,)), "s")
    assert in_s == multiply(p12, p12) and len(in_s.terms) == 90
    # p_(n) is the alternating sum of the hooks of n (Murnaghan-Nakayama).
    hooks = {(60 - k,) + (1,) * k: (-1) ** k for k in range(60)}
    assert convert(basis_element("p", (60,)), "s") == SymFunc("s", 60, hooks)


def test_memo_keys_are_the_shared_shape_keys():
    # Each shape has one key object; the empty shape at d=0 is built checked.
    # Fresh memos: a test may have cleared the shape keys under them.
    memos = (symfunc._h_in_s, symfunc._s_in_h, symfunc._s_in_m, symfunc._m_in_s)
    for memo in memos:
        memo.cache_clear()
    for d in range(1, 7):
        for lam, mu in itertools.product(enumerate_partitions(d), repeat=2):
            tables = (
                symfunc._h_in_s(mu),
                symfunc._s_in_h(lam),
                symfunc._s_in_m(lam, lam[0]),
                symfunc._m_in_s(mu),
                decompose_permutation_tensor(lam, mu),
            )
            for table in tables:
                for key in table:
                    assert key is combinat._SHAPES[key]


def test_characteristic_map_reads_z_rho_from_the_class_sizes(monkeypatch):
    d = 6
    parts = enumerate_partitions(d)
    rows = [specht_character(lam) for lam in parts]
    expected = [
        SymFunc("p", d, {rho: Fraction(x, centralizer_order(rho)) for rho, x in zip(parts, chi)})
        for chi in rows
    ]
    combinat.class_sizes(d)  # built on centralizer_order once, then only read

    def refuse(rho):
        raise AssertionError(f"z_rho recomputed for {tuple(rho)}")

    for module in (combinat, symfunc):
        monkeypatch.setattr(module, "centralizer_order", refuse, raising=False)
    assert [characteristic_map(d, chi) for chi in rows] == expected


def test_jacobi_trudi_duality():
    for d in range(7):
        for lam in enumerate_partitions(d):
            assert convert(jacobi_trudi(lam), "e") == jacobi_trudi_dual(lam)


def test_kostka_columns_are_tableau_counts():
    # The column adds strips along the parts of mu, and count_ssyt removes
    # them from lam, the last part first; neither reads a KostkaTable.
    for d in range(9):
        parts = enumerate_partitions(d)
        for mu in parts:
            column = symfunc._h_in_s(mu)
            for lam in parts:
                assert column.get(lam, 0) == combinat.count_ssyt(lam, mu)


def test_h_to_s_coefficients_are_tableau_counts():
    # count_ssyt removes strips from the shape and reads no KostkaTable.
    for d in range(7):
        parts = enumerate_partitions(d)
        for lam in parts:
            h_in_s = convert(basis_element("h", lam), "s")
            s_in_m = convert(basis_element("s", lam), "m")
            e_in_s = convert(basis_element("e", lam), "s")
            for mu in parts:
                assert h_in_s.coeff(mu) == combinat.count_ssyt(mu, lam)
                assert s_in_m.coeff(mu) == combinat.count_ssyt(lam, mu)
                assert e_in_s.coeff(mu) == combinat.count_ssyt(combinat.conjugate(mu), lam)


def test_integrality_of_integral_basis_conversions():
    for d in range(7):
        for lam in enumerate_partitions(d):
            for src in ("h", "e", "m", "s"):
                for target in ("h", "e", "m", "s"):
                    f = convert(basis_element(src, lam), target)
                    assert all(c.denominator == 1 for c in f.terms.values())


def test_multiply_examples():
    assert multiply(basis_element("h", (2,)), basis_element("h", (1,))) == basis_element(
        "h", (2, 1)
    )
    assert multiply(basis_element("s", (1,)), basis_element("s", (1,))) == SymFunc(
        "s", 2, {(2,): 1, (1, 1): 1}
    )
    assert multiply(basis_element("s", (2,)), basis_element("s", (1,))) == SymFunc(
        "s", 3, {(3,): 1, (2, 1): 1}
    )
    for b in BASES:
        f = basis_element(b, (2, 1))
        assert multiply(basis_element(b, ()), f) == f


def test_pieri_products_equal_h_concatenation():
    elements = {
        d: [basis_element(b, lam) for b in BASES for lam in enumerate_partitions(d)]
        for d in range(7)
    }
    for d1, d2 in itertools.product(range(7), repeat=2):
        if d1 + d2 <= 6:
            for f, g in itertools.product(elements[d1], elements[d2]):
                assert multiply(f, g) == h_concatenation_product(f, g)


def test_multiply_commutative_and_associative():
    rng = random.Random(20260811)
    pool = [(b, lam) for d in range(4) for lam in enumerate_partitions(d) for b in BASES]
    for _ in range(60):
        (b1, l1), (b2, l2), (b3, l3) = rng.sample(pool, 3)
        f, g, h = basis_element(b1, l1), basis_element(b2, l2), basis_element(b3, l3)
        assert multiply(f, g) == convert(multiply(g, f), b1)
        assert multiply(multiply(f, g), h) == multiply(f, multiply(g, h))


def test_multiply_against_polynomial_expansion():
    for (b1, l1), (b2, l2) in [
        (("s", (2,)), ("s", (1,))),
        (("e", (2, 1)), ("h", (2,))),
        (("m", (1, 1)), ("p", (2,))),
    ]:
        f, g = basis_element(b1, l1), basis_element(b2, l2)
        nvars = f.degree + g.degree
        product = multiply(f, g)
        assert expand_symfunc(product, nvars) == {
            k: v
            for k, v in _poly_mul_dicts(
                expand_symfunc(f, nvars), expand_symfunc(g, nvars)
            ).items()
        }


def _poly_mul_dicts(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def test_scalar_product_examples():
    assert scalar_product(basis_element("s", (2,)), basis_element("s", (1, 1))) == 0
    assert scalar_product(basis_element("h", (2, 1)), basis_element("m", (2, 1))) == 1
    assert scalar_product(basis_element("p", (1, 1)), basis_element("p", (1, 1))) == 2
    assert scalar_product(basis_element("s", (2,)), basis_element("s", (3,))) == 0


def test_power_sum_pairing_is_diagonal():
    # <p_lam, p_mu> = z_lam delta, with z the centralizer order
    for d in range(6):
        for lam in enumerate_partitions(d):
            for mu in enumerate_partitions(d):
                expected = centralizer_order(lam) if lam == mu else 0
                got = scalar_product(basis_element("p", lam), basis_element("p", mu))
                assert got == expected


def test_orthonormality_and_duality():
    for d in range(7):
        for lam in enumerate_partitions(d):
            for mu in enumerate_partitions(d):
                expected = 1 if lam == mu else 0
                assert scalar_product(
                    basis_element("s", lam), basis_element("s", mu)
                ) == expected
                assert scalar_product(
                    basis_element("h", lam), basis_element("m", mu)
                ) == expected


def test_arithmetic_helpers():
    f = basis_element("s", (2,))
    g = basis_element("s", (1, 1))
    assert (f + g).terms == {(2,): 1, (1, 1): 1}
    assert (f - f).is_zero()
    assert (2 * f).coeff((2,)) == 2
    assert (f * Fraction(1, 2)).coeff((2,)) == Fraction(1, 2)
    # The product of two functions is the graded ring product, in the left basis.
    assert basis_element("h", (1,)) * basis_element("s", (1,)) == basis_element("h", (1, 1))
    assert g * f == SymFunc("s", 4, {(3, 1): 1, (2, 1, 1): 1})
    with pytest.raises(DegreeMismatchError):
        f + basis_element("s", (3,))
    with pytest.raises(ValueError):
        f + basis_element("h", (2,))


def test_render():
    f = SymFunc("s", 3, {(2, 1): 1, (1, 1, 1): 2})
    assert f.render() == "s[2,1] + 2*s[1,1,1]"
    g = SymFunc("h", 2, {(2,): -1, (1, 1): Fraction(1, 2)})
    assert g.render() == "-h[2] + 1/2*h[1,1]"
    assert repr(g) == "SymFunc(-h[2] + 1/2*h[1,1])"
    assert SymFunc("m", 4, {}).render() == "0"
    assert basis_element("p", ()).render() == "p[]"


def test_json_round_trip():
    f = SymFunc("s", 3, {(2, 1): Fraction(-3, 2), (1, 1, 1): 2})
    data = f.to_json_dict()
    assert data["basis"] == "s" and data["degree"] == 3
    assert SymFunc.from_json(f.to_json()) == f


def test_multiply_is_bilinear_over_the_rationals():
    q, r = Fraction(1, 3), Fraction(-2, 5)
    for d, e in itertools.product(range(5), repeat=2):
        if d + e > 6:
            continue
        for a, b in itertools.product(BASES, repeat=2):
            for lam, mu in itertools.product(enumerate_partitions(d), enumerate_partitions(e)):
                f = basis_element(a, lam) - basis_element(a, enumerate_partitions(d)[-1])
                g = basis_element(b, mu) + basis_element(b, (e,) if e else ())
                assert multiply(q * f, r * g) == (q * r) * multiply(f, g)


def _int_when_integral(f):
    """Every coefficient is an int, or a Fraction whose denominator is greater than 1."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in f.terms.values()
    )


def test_results_are_int_when_integral():
    integral = SymFunc("s", 3, {(3,): Fraction(4, 2), (2, 1): "6/3", (1, 1, 1): True})
    assert integral.terms == {(3,): 2, (2, 1): 2, (1, 1, 1): 1}
    assert all(type(c) is int for c in integral.terms.values())
    mixed = SymFunc("s", 3, {(3,): "1/2", (2, 1): 3, (1, 1, 1): Fraction(-4, 6)})
    assert [type(c) for c in mixed.terms.values()] == [Fraction, int, Fraction]
    back = SymFunc.from_json(mixed.to_json())
    assert back == mixed
    assert [type(c) for c in back.terms.values()] == [Fraction, int, Fraction]
    quarter = SymFunc("s", 3, {(3,): 4, (2, 1): 2}).scale(Fraction(1, 2)).scale(Fraction(1, 2))
    assert quarter.terms == {(3,): 1, (2, 1): Fraction(1, 2)}
    assert [type(c) for c in quarter.terms.values()] == [int, Fraction]
    assert type(integral.coeff((3,))) is int and type(SymFunc("s", 3, {}).coeff((3,))) is int
    for d in range(5):
        parts = enumerate_partitions(d)
        for a, b in itertools.product(BASES, repeat=2):
            for lam in parts:
                f = basis_element(a, lam) - Fraction(2, 5) * basis_element(a, parts[-1])
                half = Fraction(1, 2) * basis_element(a, lam)
                whole = half + half
                assert whole == basis_element(a, lam) and _int_when_integral(whole)
                g = basis_element(b, parts[0])
                for value in (
                    convert(f, b), multiply(f, g), multiply(g, f),
                    convert(whole, b), multiply(whole, g), multiply(g, whole),
                ):
                    assert _int_when_integral(value)
                assert convert(whole, b) == convert(basis_element(a, lam), b)
                assert type(scalar_product(f, g)) is Fraction
                assert type(scalar_product(g, basis_element(b, lam))) is Fraction
                assert type(scalar_product(whole, basis_element(b, lam))) is Fraction
