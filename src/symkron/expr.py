"""Expression language for symmetric-function arithmetic.

Grammar, precedence low to high::

    expr     := term (('+' | '-') term)*
    term     := factor (('.' | '#') factor)*
    factor   := rational '*' factor | '-' factor | atom | '(' expr ')'
    atom     := BASIS '[' parts ']'          BASIS one of m e h p s
    parts    := empty | INT (',' INT)*
    rational := INT ('/' INT)?

``.`` is the graded ring product and ``#`` the equal-degree internal
product.  INT is a run of ASCII digits (``combinat.DIGITS``).  Whitespace is
ignored; errors carry 1-based character offsets.
An atom's parts must form a partition (weakly decreasing, positive); the
empty bracket pair denotes the degree-0 unit of its basis.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import symfunc
from .combinat import DIGITS, Partition
from .errors import DegreeMismatchError, ExpressionError
from .kronecker import kronecker as _internal_product

# A parse-tree node is one of the four immutable records below.
Node = tuple
Atom = namedtuple("Atom", "basis parts")
Scale = namedtuple("Scale", "coeff inner")
Neg = namedtuple("Neg", "inner")
BinOp = namedtuple("BinOp", "op left right")  # op is one of + - . #

_BASIS_CHARS = set(symfunc.BASES)
_SYMBOLS = set("+-*/.#()[],")


# kind is INT, BASIS or the symbol itself; pos is the 1-based offset of its
# first character.
_Token = namedtuple("_Token", "kind text pos")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    k = 0
    while k < len(text):
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch in DIGITS:
            start = k
            while k < len(text) and text[k] in DIGITS:
                k += 1
            tokens.append(_Token("INT", text[start:k], start + 1))
            continue
        if ch in _BASIS_CHARS:
            tokens.append(_Token("BASIS", ch, k + 1))
            k += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, k + 1))
            k += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r}", k + 1)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.k] if self.k < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise ExpressionError("unexpected end of input", len(self.text) + 1)
        self.k += 1
        return tok

    def _expect(self, kind: str) -> _Token:
        tok = self._peek()
        if tok is None or tok.kind != kind:
            pos = tok.pos if tok else len(self.text) + 1
            got = repr(tok.text) if tok else "end of input"
            raise ExpressionError(f"expected {kind!r}, got {got}", pos)
        return self._next()

    def parse(self) -> Node:
        node = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ExpressionError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            tok = self._peek()
            if tok and tok.kind in "+-":
                self._next()
                node = BinOp(tok.kind, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            tok = self._peek()
            if tok and tok.kind in ".#":
                self._next()
                node = BinOp(tok.kind, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        tok = self._peek()
        if tok is None:
            raise ExpressionError("expected a factor", len(self.text) + 1)
        if tok.kind == "INT":
            coeff = self._rational()
            self._expect("*")
            return Scale(coeff, self.factor())
        if tok.kind == "-":
            self._next()
            return Neg(self.factor())
        if tok.kind == "(":
            self._next()
            node = self.expr()
            self._expect(")")
            return node
        if tok.kind == "BASIS":
            return self._atom()
        raise ExpressionError(f"unexpected token {tok.text!r}", tok.pos)

    def _rational(self) -> Fraction:
        num = int(self._expect("INT").text)
        tok = self._peek()
        if tok and tok.kind == "/":
            self._next()
            den_tok = self._expect("INT")
            den = int(den_tok.text)
            if den == 0:
                raise ExpressionError("zero denominator", den_tok.pos)
            return Fraction(num, den)
        return Fraction(num)

    def _atom(self) -> Node:
        basis_tok = self._next()
        self._expect("[")
        parts: list[int] = []
        tok = self._peek()
        if tok and tok.kind == "INT":
            parts.append(int(self._next().text))
            while (tok := self._peek()) and tok.kind == ",":
                self._next()
                parts.append(int(self._expect("INT").text))
        self._expect("]")
        atom_text = f"{basis_tok.text}[{','.join(str(p) for p in parts)}]"
        if any(p < 1 for p in parts):
            raise ExpressionError(
                f"partition parts must be positive in atom {atom_text}", basis_tok.pos
            )
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ExpressionError(
                f"partition parts must be weakly decreasing in atom {atom_text}",
                basis_tok.pos,
            )
        return Atom(basis_tok.text, tuple(parts))


def parse(text: str) -> Node:
    """Parse an expression; raises :class:`ExpressionError` with an offset."""
    return _Parser(text).parse()


def _merge(into: dict[int, symfunc.SymFunc], comp: symfunc.SymFunc, sign: int) -> None:
    piece = comp if sign > 0 else -comp
    if comp.degree in into:
        existing = into[comp.degree]
        if existing.basis != piece.basis:
            piece = symfunc.convert(piece, existing.basis)
        into[comp.degree] = existing + piece
    else:
        into[comp.degree] = piece


def evaluate_components(node: Node) -> dict[int, symfunc.SymFunc]:
    """Evaluate to homogeneous components keyed by degree.

    Components that cancel to zero are dropped; each component carries the
    natural basis of the subexpression that produced it.
    """
    comps = _eval(node)
    return {d: f for d, f in sorted(comps.items()) if not f.is_zero()}


def _eval(node: Node) -> dict[int, symfunc.SymFunc]:
    if isinstance(node, Atom):
        f = symfunc.basis_element(node.basis, Partition(node.parts))
        return {f.degree: f}
    if isinstance(node, Scale):
        return {d: f.scale(node.coeff) for d, f in _eval(node.inner).items()}
    if isinstance(node, Neg):
        return {d: -f for d, f in _eval(node.inner).items()}
    if isinstance(node, BinOp):
        left = _eval(node.left)
        right = _eval(node.right)
        if node.op in "+-":
            out = dict(left)
            sign = 1 if node.op == "+" else -1
            for f in right.values():
                _merge(out, f, sign)
            return out
        if node.op == ".":
            out: dict[int, symfunc.SymFunc] = {}
            for f in left.values():
                for g in right.values():
                    _merge(out, symfunc.multiply(f, g), 1)
            return out
        if node.op == "#":
            mixed = "'#' needs homogeneous operands, got degrees {}"
            f, g = _single(left, mixed), _single(right, mixed)
            if f.degree != g.degree:
                raise DegreeMismatchError(
                    f"'#' needs equal degrees, got {f.degree} and {g.degree}"
                )
            result = _internal_product(f, g)
            return {result.degree: result}
    raise TypeError(f"unknown node {node!r}")


def _single(comps: dict[int, symfunc.SymFunc], mixed: str) -> symfunc.SymFunc:
    """The one nonzero component, or the first if all cancel, keeping its degree.

    ``mixed`` is the error message for several nonzero components, formatted
    with their sorted degrees.
    """
    nonzero = {d: f for d, f in comps.items() if not f.is_zero()}
    if len(nonzero) > 1:
        raise DegreeMismatchError(mixed.format(sorted(nonzero)))
    return next(iter((nonzero or comps).values()))


def evaluate(node: Node, basis: str | None = None) -> symfunc.SymFunc:
    """Evaluate to a single homogeneous value, optionally converting.

    Mixed-degree results raise; the CLI exposes them separately as formal
    sums of homogeneous components.  A value that cancels to zero keeps the
    degree and basis of the expression.
    """
    result = _single(_eval(node), "result mixes degrees {}; request a formal sum instead")
    if basis is not None:
        result = symfunc.convert(result, basis)
    return result
