"""Readers for every text format the package accepts.

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
Interval and rational literals stand alone in the same syntax, and an
environment file holds one "ident = rat" binding per line.

Each input is lexed by one `findall` into plain strings.  A leaf with no
blank, comment or parenthesis inside its own is one lexeme, and `parse`
checks it against the grammar and builds its node once per distinct leaf
text, so equal leaves in one expression are one object.  Any other leaf
is read lexeme by lexeme, which is also how every error is found; an
error's character offset is worked out only then.

Nodes are completed in post-order, and a root that is not a leaf keeps that
order, less itself (so no cycle), as the `_postorder` `expr.postorder` reads.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Callable, TypeVar

from .expr import _NAME, Add, Div, Dim, Exact, Expr, Interval, Meas, Mul, Neg, Sub, Token
from .semantics import TokenEnv

_T = TypeVar("_T")


class ParseError(ValueError):
    """Input text rejected by the grammar; position is a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class _Misread(Exception):
    """A ParseError's message and the index of its lexeme, before its offset is known."""


# Precedences: "(" waits below every operator, and unary minus binds
# tighter than "*" and "/", which bind tighter than "+" and "-".
_PREFIX = {"(": (0, None), "-": (3, Neg)}
_INFIX = {"+": (1, Add), "-": (1, Sub), "*": (2, Mul), "/": (2, Div)}

_RAT = r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?"  # a numerator, then a nonzero denominator if any

# One match per lexeme, blanks and comments before it included; its group is
# the lexeme, "" at the end.  A leaf with no blank, comment or parenthesis
# inside its own is one lexeme, and other text one per name, number and
# symbol.  `_read` checks first that no character is left between matches.
_LEXEME = re.compile(
    rf"(?:\s+|#[^\n]*)*((?:meas|exact)\([^\s#()]*\)|{_NAME}|[0-9]+|[-+*/()\[\],]|\Z)"
)
# A leaf lexeme that the grammar accepts, with its parts as groups.
_LEAF = re.compile(rf"meas\(({_NAME}),\[{_RAT},{_RAT}\],({_NAME})\)|exact\({_RAT},({_NAME})\)")
# Text of characters that each start a lexeme; in any other text, lexemes
# back to back from the start stop short of the end at one that starts none.
_PLAIN = re.compile(r"[\sA-Za-z0-9()\[\],+*/-]*")
_LEXABLE = re.compile(rf"(?:\s+|#[^\n]*|{_NAME}|[0-9]+|[-+*/()\[\],])*")
# The interpreter's int-to-string limit is 0 (none) or at least 640 digits, so
# a shorter leaf lexeme converts in one match; a longer one is read slot by
# slot, where a number over the limit is an error at its offset.
_FAST_LEAF = 640


def _read(text: str, reader: Callable[[list[str]], _T]) -> _T:
    """reader's result on text's lexemes, with a misread lexeme located in text."""
    if not _PLAIN.fullmatch(text) and (at := _LEXABLE.match(text).end()) < len(text):
        raise ParseError(f"unexpected character {text[at]!r}", at)
    lexemes = _LEXEME.findall(text)
    try:
        return reader(lexemes)
    except _Misread as err:
        message, index = err.args
        raise ParseError(message, _offset(text, lexemes, index)) from None


def _split(lexemes: list[str], i: int) -> None:
    """Put the lexemes a leaf lexeme spans in its place: its keyword, then one
    per symbol, number and name, none of them a leaf, as it holds no other "("."""
    keyword = lexemes[i][: lexemes[i].index("(")]
    lexemes[i : i + 1] = [keyword, *_LEXEME.findall(lexemes[i], len(keyword))[:-1]]


def _offset(text: str, lexemes: list[str], index: int) -> int:
    """Where lexemes[index] starts in text: they are text's lexemes, but for
    leaf lexemes that `_split` has replaced."""
    starts: list[int] = []
    for m in _LEXEME.finditer(text):
        at = m.start(1)
        if m[1] == lexemes[len(starts)]:
            starts.append(at)
        else:  # a split leaf: where its keyword starts, then where each lexeme after it does
            rest = _LEXEME.finditer(text, at + len(lexemes[len(starts)]), m.end())
            starts += [at, *(n.start(1) for n in rest)][:-1]
    return starts[index]


def _mismatch(wanted: str, lexemes: list[str], i: int) -> _Misread:
    found = lexemes[i].partition("(")[0] or lexemes[i]  # a leaf lexeme shows its keyword
    return _Misread(f"expected {wanted}, found {_quote(found or 'end of input')}", i)


def _expect(lexemes: list[str], i: int, kind: str) -> str:
    """lexemes[i] if it is of `kind`: IDENT (as a leaf lexeme is, by its
    keyword), NUMBER, EOF or the symbol itself."""
    head = lexemes[i][:1]
    if ("IDENT" if head.isalpha() else "NUMBER" if head.isdigit() else lexemes[i] or "EOF") != kind:
        raise _mismatch(repr(kind), lexemes, i)
    return lexemes[i]


# The shape of each leaf after its keyword, and its builder.
_LEAVES = {
    "exact": ("(R,I)", lambda value, dim: Exact(value, Dim(dim))),
    "meas": ("(I,[R,R],I)", lambda token, iv, dim: Meas(Token(token), iv, Dim(dim))),
}


def _rational(numerator: str, denominator: str | None) -> Fraction:
    return Fraction(int(numerator), int(denominator)) if denominator else Fraction(int(numerator))


def _leaf(m: re.Match) -> Expr:
    """The node a `_LEAF` match spells."""
    token, lo, lo_den, hi, hi_den, dim, value, den, edim = m.groups()
    if token is None:
        return Exact(_rational(value, den), Dim(edim))
    return Meas(Token(token), Interval(_rational(lo, lo_den), _rational(hi, hi_den)), Dim(dim))


def _fields(lexemes: list[str], i: int, shape: str) -> tuple[list, int]:
    """Read the slots of `shape` from lexemes[i:]; return their values and
    the index after them.  R is a rational, I an identifier, $ the end of
    input, and any other character a lexeme that must appear as written.
    "]" closes an interval over the two rationals before it, so an endpoint
    out of order is reported before any error in a later slot."""
    values: list = []
    for slot in shape:
        if slot == "R":  # ["-"] NUMBER ["/" NUMBER]
            negative = lexemes[i] == "-"
            i += negative
            numerator, denominator = _number(lexemes, i), 1
            if lexemes[i + 1] == "/":
                i += 2
                denominator = _number(lexemes, i)
                if not denominator:
                    raise _Misread("rational denominator must be nonzero", i)
            values.append(Fraction(-numerator if negative else numerator, denominator))
        elif slot == "I":
            if "(" in lexemes[i][1:]:  # a leaf lexeme where a name goes: its keyword is that name
                _split(lexemes, i)
            values.append(_expect(lexemes, i, "IDENT"))
        else:
            _expect(lexemes, i, "EOF" if slot == "$" else slot)
            if slot == "]":
                values[-2:] = [Interval(*values[-2:])]
        i += 1
    return values, i


def _number(lexemes: list[str], i: int) -> int:
    try:
        return int(_expect(lexemes, i, "NUMBER"))
    except ValueError:  # more digits than the interpreter's int-to-string limit
        raise _Misread(f"number has more than {sys.get_int_max_str_digits()} digits", i) from None


def parse(text: str) -> Expr:
    """Parse one expression; trailing non-comment input is an error.

    An operator-precedence loop over explicit operand and operator stacks,
    equivalent to the `expr`/`term`/`factor` rules above without recursion:
    prefix minus and "(" wait on the operator stack until the operand they
    govern is complete.  Equal leaf lexemes give one shared node; each is
    built when it is first reached, so errors come in text order.
    """
    return _read(text, _expression)


def _expression(lexemes: list[str]) -> Expr:
    i = 0
    operands: list[Expr] = []  # left operands of pending binary operators
    pending: list[tuple[int, type | None]] = []  # (precedence, node class)
    built: dict[str, Expr] = {}  # leaf lexeme -> its node
    order: list[Expr] = []  # each leaf occurrence and node as it is completed: post-order
    while True:
        while (lexeme := lexemes[i]) in _PREFIX:  # unary minus and "(" before a leaf
            pending.append(_PREFIX[lexeme])
            i += 1
        node = built.get(lexeme)
        if node is None and len(lexeme) < _FAST_LEAF and (m := _LEAF.fullmatch(lexeme)):
            node = built[lexeme] = _leaf(m)
        if node is not None:
            i += 1
        else:
            if "(" in lexeme[1:]:  # a leaf lexeme the grammar rejects: read it slot by slot
                _split(lexemes, i)
            leaf = _LEAVES.get(lexemes[i])
            if leaf is None:
                raise _mismatch("a leaf ('exact' or 'meas')", lexemes, i)
            shape, build = leaf
            values, i = _fields(lexemes, i + 1, shape)
            node = build(*values)
        order.append(node)
        while True:  # after an operand: ")" repeats, an infix operator ends
            infix = _INFIX.get(lexeme := lexemes[i])
            # Left associativity: apply pending operators of equal or
            # higher precedence; ")" and the end apply all down to "(",
            # so what is left pending then is a "(" or nothing.
            floor = infix[0] if infix else 1
            while pending and pending[-1][0] >= floor:
                cls = pending.pop()[1]
                node = Neg(node) if cls is Neg else cls(operands.pop(), node)
                order.append(node)
            if infix:
                operands.append(node)
                pending.append(infix)
                i += 1
                break
            if not pending:
                _expect(lexemes, i, "EOF")
                if len(order) > 1:  # the nodes below the root, so the root holds no cycle
                    order.pop()
                    object.__setattr__(node, "_postorder", order)
                return node
            _expect(lexemes, i, ")")
            pending.pop()
            i += 1


def parse_interval(text: str) -> Interval:
    """Parse a standalone interval literal such as "[2,5]" or "[-1/2,3]"."""
    return _read(text, lambda lexemes: _fields(lexemes, 0, "[R,R]$")[0][0])


def parse_rational(text: str) -> Fraction:
    """Parse a standalone rational literal such as "9/2" or "-3"."""
    return _read(text, lambda lexemes: _fields(lexemes, 0, "R$")[0][0])


def _quote(text: str) -> str:
    """repr of text, or of its first 40 characters and "..." when longer."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}..."


def parse_env(text: str) -> TokenEnv:
    """Parse an environment file: one "token = rational" binding per line.

    Blank lines and "#" comments are allowed; later bindings for the same
    token win; unlisted tokens default to 0.  An error's position is the
    offset of the name or value it names, or of the line without "=", and
    it quotes at most the first 40 characters of that name or value.
    """

    def error(message: str, at: int) -> ParseError:
        # Only "\n" starts a new line number, as in an editor; the other
        # breaks `splitlines` knows still end a binding.
        lineno = text.count("\n", 0, at) + 1
        return ParseError(f"line {lineno}: {message}", at)

    bindings: dict[Token, Fraction] = {}
    end = 0
    for raw in text.splitlines(keepends=True):
        start, end = end, end + len(raw)
        line = raw.split("#", 1)[0].rstrip()
        if not line:
            continue
        name, sep, value = line.partition("=")
        if not sep:
            raise error("expected 'token = rational'", start)
        name_at = start + len(name) - len(name.lstrip())
        value_at = start + len(line) - len(value.lstrip())
        name, value = name.strip(), value.strip()
        try:
            _read(name, lambda lexemes: _fields(lexemes, 0, "I$"))
        except ParseError:
            raise error(f"bad token name {_quote(name)}", name_at) from None
        try:
            bindings[Token(name)] = parse_rational(value)
        except ParseError:
            raise error(f"bad rational {_quote(value)}", value_at) from None
    return TokenEnv(bindings)
