import random
from fractions import Fraction

import pytest

from symkron.combinat import enumerate_partitions
from symkron.errors import DegreeMismatchError, ExpressionError
from symkron.expr import Atom, BinOp, Neg, Scale, evaluate, evaluate_components, parse
from symkron.symfunc import BASES, SymFunc, basis_element, convert


def test_parse_atoms_and_operators():
    node = parse("h[3,1] # h[2,1,1]")
    assert node == BinOp("#", Atom("h", (3, 1)), Atom("h", (2, 1, 1)))
    node = parse("2*s[2,1] - s[1,1,1]")
    assert node == BinOp(
        "-", Scale(Fraction(2), Atom("s", (2, 1))), Atom("s", (1, 1, 1))
    )
    assert parse("s[]") == Atom("s", ())
    assert parse("1/2*p[1,1]") == Scale(Fraction(1, 2), Atom("p", (1, 1)))
    assert parse("-h[2]") == Neg(Atom("h", (2,)))
    assert parse("(m[1])") == Atom("m", (1,))


def test_parse_precedence():
    # products bind tighter than sums, scalars tighter than products
    assert parse("s[1] + s[1] . s[1]") == BinOp(
        "+", Atom("s", (1,)), BinOp(".", Atom("s", (1,)), Atom("s", (1,)))
    )
    assert parse("2*s[1] . s[1]") == BinOp(
        ".", Scale(Fraction(2), Atom("s", (1,))), Atom("s", (1,))
    )
    assert parse("s[2] # s[2] + s[2]") == BinOp(
        "+", BinOp("#", Atom("s", (2,)), Atom("s", (2,))), Atom("s", (2,))
    )


def test_parse_errors_carry_positions():
    with pytest.raises(ExpressionError) as err:
        parse("h[1,2]")
    assert "weakly decreasing" in str(err.value) and "h[1,2]" in str(err.value)
    assert err.value.position == 1
    with pytest.raises(ExpressionError) as err:
        parse("h[0]")
    assert "positive" in str(err.value)
    with pytest.raises(ExpressionError) as err:
        parse("s[2] +")
    assert err.value.position == 7
    with pytest.raises(ExpressionError) as err:
        parse("q[2]")
    assert err.value.position == 1
    with pytest.raises(ExpressionError) as err:
        parse("(s[1]")
    assert err.value.position == 6
    with pytest.raises(ExpressionError) as err:
        parse("s[1] s[2]")
    assert err.value.position == 6
    # Numbers are ASCII digits: a superscript or another script's digit is refused.
    for text, position in [("²*s[1]", 1), ("s[²]", 3), ("٣*s[٣]", 1)]:
        char = text[position - 1]
        with pytest.raises(ExpressionError, match=f"unexpected character '{char}'") as err:
            parse(text)
        assert err.value.position == position
    with pytest.raises(ExpressionError):
        parse("1/0*s[1]")
    with pytest.raises(ExpressionError):
        parse("2 + s[1]")


def test_evaluate_examples():
    assert evaluate(parse("h[3,1] # h[2,1,1]")) == SymFunc(
        "h", 4, {(2, 1, 1): 2, (1, 1, 1, 1): 1}
    )
    assert evaluate(parse("s[2] . s[1]"), "s") == SymFunc("s", 3, {(3,): 1, (2, 1): 1})
    assert evaluate(parse("s[3] # s[3]")) == basis_element("s", (3,))
    assert evaluate(parse("2*s[2,1] - s[2,1]")) == basis_element("s", (2, 1))
    assert evaluate(parse("s[1] - s[1]")).is_zero()
    # a value that cancels keeps its degree and basis
    assert evaluate(parse("p[2] # p[1,1]")) == SymFunc("p", 2, {})
    assert evaluate(parse("s[2] - s[2]")) == SymFunc("s", 2, {})
    assert evaluate(parse("s[] . h[2]"), "h") == basis_element("h", (2,))


def test_evaluate_mixed_base_sum():
    # operands are converted to the leftmost basis; s[1,1] is h[1,1] - h[2]
    value = evaluate(parse("h[2] + s[1,1]"))
    assert value.basis == "h"
    assert value == SymFunc("h", 2, {(1, 1): 1})


def test_mixed_degree_rules():
    with pytest.raises(DegreeMismatchError):
        evaluate(parse("s[1] + s[2]"))
    comps = evaluate_components(parse("s[1] + s[2]"))
    assert sorted(comps) == [1, 2]
    assert comps[1] == basis_element("s", (1,))
    with pytest.raises(DegreeMismatchError):
        evaluate(parse("s[1] # s[2]"))
    with pytest.raises(DegreeMismatchError):
        evaluate(parse("(s[1] + s[2]) # s[2]"))
    # outer products distribute over mixed-degree sums
    comps = evaluate_components(parse("(s[1] + s[2]) . s[1]"))
    assert sorted(comps) == [2, 3]


def test_parse_render_identity_on_random_values():
    rng = random.Random(20260811)
    for _ in range(500):
        basis = rng.choice(BASES)
        degree = rng.randint(0, 5)
        parts = list(enumerate_partitions(degree))
        terms = {}
        for lam in rng.sample(parts, rng.randint(1, len(parts))):
            num = rng.choice([n for n in range(-9, 10) if n])
            den = rng.randint(1, 4)
            terms[lam] = Fraction(num, den)
        f = SymFunc(basis, degree, terms)
        assert evaluate(parse(f.render()), basis) == f


def test_evaluation_respects_documented_precedence():
    rng = random.Random(99)
    atoms = ["s[2]", "h[2]", "2*m[1,1]", "-p[2]", "1/2*e[1,1]"]
    for _ in range(100):
        a, b, c = (rng.choice(atoms) for _ in range(3))
        op1, op2 = (rng.choice(["+", "-", ".", "#"]) for _ in range(2))
        flat = f"{a} {op1} {b} {op2} {c}"
        if op1 in "+-" and op2 in ".#":
            grouped = f"{a} {op1} ({b} {op2} {c})"
        else:
            # same precedence is left associative; a looser second op also groups left
            grouped = f"({a} {op1} {b}) {op2} {c}"
        try:
            flat_comps = evaluate_components(parse(flat))
        except DegreeMismatchError:
            with pytest.raises(DegreeMismatchError):
                evaluate_components(parse(grouped))
            continue
        grouped_comps = evaluate_components(parse(grouped))
        assert set(flat_comps) == set(grouped_comps)
        for d in flat_comps:
            lhs, rhs = flat_comps[d], grouped_comps[d]
            assert convert(lhs, "s") == convert(rhs, "s")
