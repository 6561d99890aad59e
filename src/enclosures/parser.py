"""Operator-precedence parser for the expression grammar.

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | "(" expr ")" | leaf
    leaf   := "exact" "(" rat "," ident ")"
            | "meas" "(" ident "," "[" rat "," rat "]" "," ident ")"
    rat    := ["-"] digits ["/" nonzero-digits]
    ident  := letter (letter | digit | "_")*

Whitespace is insignificant, "#" starts a comment running to end of line,
binary operators are left-associative, and unary minus binds tighter than
"*" and "/".  Leaf keywords keep numbers and identifiers unambiguous.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .expr import Add, Div, Dim, Exact, Expr, Interval, Meas, Mul, Neg, Sub, Token


class ParseError(ValueError):
    """Input text rejected by the grammar; position is a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


# Precedences: "(" waits below every operator, and unary minus binds
# tighter than "*" and "/", which bind tighter than "+" and "-".
_OPEN_PAREN = (0, None)
_INFIX = {"+": (1, Add), "-": (1, Sub), "*": (2, Mul), "/": (2, Div)}
_PREFIX_MINUS = (3, Neg)


class _Tok(NamedTuple):
    kind: str  # IDENT, NUMBER, or the symbol itself
    text: str
    pos: int


_LEXEME = re.compile(
    r"""
      (?P<ws>\s+|\#[^\n]*)
    | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
    | (?P<number>[0-9]+)
    | (?P<sym>[-+*/()\[\],])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i = 0
    while i < len(text):
        m = _LEXEME.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        if m.lastgroup == "ident":
            toks.append(_Tok("IDENT", m.group(), i))
        elif m.lastgroup == "number":
            toks.append(_Tok("NUMBER", m.group(), i))
        elif m.lastgroup == "sym":
            toks.append(_Tok(m.group(), m.group(), i))
        i = m.end()
    toks.append(_Tok("EOF", "", len(text)))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def advance(self) -> _Tok:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def accept(self, kind: str) -> _Tok | None:
        if self.peek().kind == kind:
            return self.advance()
        return None

    def expect(self, kind: str) -> _Tok:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text or "end of input"
            raise ParseError(f"expected {kind!r}, found {shown!r}", tok.pos)
        return self.advance()

    def expression(self) -> Expr:
        """Operator-precedence loop over explicit operand and operator stacks.

        Equivalent to the `expr`/`term`/`factor` rules above, without
        recursion: prefix minus and "(" wait on the operator stack until
        the operand they govern is complete.
        """
        operands: list[Expr] = []
        pending: list[tuple[int, type | None]] = []  # (precedence, node class)
        open_parens = 0
        while True:
            while True:  # prefix position: unary minus and "(" before a leaf
                if self.accept("-"):
                    pending.append(_PREFIX_MINUS)
                elif self.accept("("):
                    pending.append(_OPEN_PAREN)
                    open_parens += 1
                else:
                    break
            operands.append(self.leaf())
            while True:  # after an operand: ")" repeats, an infix operator ends
                kind = self.peek().kind
                infix = _INFIX.get(kind)
                # Left associativity: apply pending operators of equal or
                # higher precedence; ")" and the end apply all down to "(".
                floor = infix[0] if infix else 1
                while pending and pending[-1][0] >= floor:
                    _, cls = pending.pop()
                    if cls is Neg:
                        operands[-1] = Neg(operands[-1])
                    else:
                        rhs = operands.pop()
                        operands[-1] = cls(operands[-1], rhs)
                if infix:
                    self.advance()
                    pending.append(infix)
                    break
                if not open_parens:
                    return operands[0]
                self.expect(")")
                pending.pop()
                open_parens -= 1

    def leaf(self) -> Expr:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text not in ("exact", "meas"):
            shown = tok.text or "end of input"
            raise ParseError(f"expected a leaf ('exact' or 'meas'), found {shown!r}", tok.pos)
        keyword = self.advance().text
        self.expect("(")
        if keyword == "exact":
            value = self.rational()
            self.expect(",")
            dim = Dim(self.expect("IDENT").text)
            self.expect(")")
            return Exact(value, dim)
        token = Token(self.expect("IDENT").text)
        self.expect(",")
        interval = self.interval()
        self.expect(",")
        dim = Dim(self.expect("IDENT").text)
        self.expect(")")
        return Meas(token, interval, dim)

    def interval(self) -> Interval:
        self.expect("[")
        lo = self.rational()
        self.expect(",")
        hi = self.rational()
        self.expect("]")
        # Interval construction rejects lo > hi with IntervalOrderError.
        return Interval(lo, hi)

    def rational(self) -> Fraction:
        negative = self.accept("-") is not None
        num_tok = self.expect("NUMBER")
        numerator = int(num_tok.text)
        denominator = 1
        if self.accept("/"):
            den_tok = self.expect("NUMBER")
            denominator = int(den_tok.text)
            if denominator == 0:
                raise ParseError("rational denominator must be nonzero", den_tok.pos)
        value = Fraction(numerator, denominator)
        return -value if negative else value


def parse(text: str) -> Expr:
    """Parse one expression; trailing non-comment input is an error."""
    parser = _Parser(_tokenize(text))
    node = parser.expression()
    parser.expect("EOF")
    return node


def parse_interval(text: str) -> Interval:
    """Parse a standalone interval literal such as "[2,5]" or "[-1/2,3]"."""
    parser = _Parser(_tokenize(text))
    interval = parser.interval()
    parser.expect("EOF")
    return interval


def parse_rational(text: str) -> Fraction:
    """Parse a standalone rational literal such as "9/2" or "-3"."""
    parser = _Parser(_tokenize(text))
    value = parser.rational()
    parser.expect("EOF")
    return value
