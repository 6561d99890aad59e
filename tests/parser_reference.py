"""`enclosures/parser.py` as the package wrote it when every lexeme was a
`finditer` match with its offset, kept verbatim but for its imports and
this docstring, as the reference that the differential tests in
`test_parser.py` compare every reader with.  Its module docstring follows
as a comment.
"""

#     expr   := term (("+" | "-") term)*
#     term   := factor (("*" | "/") factor)*
#     factor := "-" factor | "(" expr ")" | leaf
#     leaf   := "exact" "(" rat "," ident ")"
#             | "meas" "(" ident "," "[" rat "," rat "]" "," ident ")"
#     rat    := ["-"] digits ["/" nonzero-digits]
#     ident  := letter (letter | digit | "_")*
#
# Whitespace is insignificant, "#" starts a comment running to end of line,
# binary operators are left-associative, and unary minus binds tighter than
# "*" and "/".  Leaf keywords keep numbers and identifiers unambiguous.
# Interval and rational literals stand alone in the same syntax, and an
# environment file holds one "ident = rat" binding per line.
#
# A leaf written with nothing between its parts, as `format_expr` prints
# it, is read in one lexer match, and `parse` builds one node per distinct
# leaf text, so equal leaves in one expression are one object.  Any other
# leaf is read lexeme by lexeme, which is also how every error is found.

from __future__ import annotations

import re
import sys
from fractions import Fraction

from enclosures.expr import Add, Div, Dim, Exact, Expr, Interval, Meas, Mul, Neg, Sub, Token
from enclosures.semantics import TokenEnv


class ParseError(ValueError):
    """Input text rejected by the grammar; position is a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


# Precedences: "(" waits below every operator, and unary minus binds
# tighter than "*" and "/", which bind tighter than "+" and "-".
_PREFIX = {"(": (0, None), "-": (3, Neg)}
_INFIX = {"+": (1, Add), "-": (1, Sub), "*": (2, Mul), "/": (2, Div)}

_NAME = r"[A-Za-z][A-Za-z0-9_]*"


def _rat(name: str) -> str:
    """A compact rational: its numerator, then a nonzero denominator if any."""
    return rf"(?P<{name}>-?[0-9]+)(?:/(?P<{name}_den>0*[1-9][0-9]*))?"


# One match per lexeme, blanks and comments before it included.  A match
# always succeeds where the previous one ended, so nothing is skipped.
# The first two alternatives take a whole leaf with no blank, comment or
# zero denominator inside as one lexeme; any other leaf falls through to
# one lexeme per name, number and symbol.
_LEXEME = re.compile(
    r"(?:\s+|#[^\n]*)*(?:"
    rf"(?P<meas>meas\((?P<token>{_NAME}),\[{_rat('lo')},{_rat('hi')}\],(?P<mdim>{_NAME})\))"
    rf"|(?P<exact>exact\({_rat('value')},(?P<edim>{_NAME})\))"
    rf"|(?P<IDENT>{_NAME})|(?P<NUMBER>[0-9]+)"
    r"|(?P<SYM>[-+*/()\[\],])|(?P<EOF>\Z)|(?P<BAD>.))"
)

# (kind, text, offset): kind is IDENT, NUMBER, EOF or the symbol.  A compact
# leaf is (LEAF, its keyword, offset, its match); errors name the keyword.
Lexeme = tuple[str, str, int] | tuple[str, str, int, re.Match]


def _lexemes(text: str, start: int = 0, end: int = sys.maxsize) -> list[Lexeme]:
    out: list[Lexeme] = []
    for m in _LEXEME.finditer(text, start, end):
        kind = m.lastgroup
        if kind in _LEAVES:  # `parse` builds it when reached, so errors keep text order
            out.append(("LEAF", kind, m.start(kind), m))
            continue
        found = m[kind]
        if kind == "BAD":
            raise ParseError(f"unexpected character {found!r}", m.start(kind))
        out.append((found if kind == "SYM" else kind, found, m.start(kind)))
        if kind == "EOF":
            break
    return out


def _split(lexeme: Lexeme) -> list[Lexeme]:
    """A compact leaf as the lexemes it spans: its keyword as a name, then
    one per symbol, number and name.  None of them is a leaf again, since
    a name inside a compact leaf is followed by "," or ")", never "("."""
    _, keyword, pos, m = lexeme
    return [("IDENT", keyword, pos), *_lexemes(m.string, pos + len(keyword), m.end())[:-1]]


def _mismatch(wanted: str, lexeme: Lexeme) -> ParseError:
    text, pos = lexeme[1], lexeme[2]
    return ParseError(f"expected {wanted}, found {text or 'end of input'!r}", pos)


def _expect(lexeme: Lexeme, kind: str) -> str:
    if lexeme[0] != kind:
        raise _mismatch(repr(kind), lexeme)
    return lexeme[1]


# The shape of each leaf after its keyword, and its builder.
_LEAVES = {
    "exact": ("(R,I)", lambda value, dim: Exact(value, Dim(dim))),
    "meas": ("(I,[R,R],I)", lambda token, iv, dim: Meas(Token(token), iv, Dim(dim))),
}


def _rational(numerator: str, denominator: str | None) -> Fraction:
    return Fraction(int(numerator), int(denominator)) if denominator else Fraction(int(numerator))


def _compact_leaf(m: re.Match) -> Expr:
    """The node a compact-leaf match spells."""
    if m.lastgroup == "exact":
        value, den, dim = m.group("value", "value_den", "edim")
        return Exact(_rational(value, den), Dim(dim))
    token, lo, lo_den, hi, hi_den, dim = m.group("token", "lo", "lo_den", "hi", "hi_den", "mdim")
    return Meas(Token(token), Interval(_rational(lo, lo_den), _rational(hi, hi_den)), Dim(dim))


def _fields(lexemes: list[Lexeme], i: int, shape: str) -> tuple[list, int]:
    """Read the slots of `shape` from lexemes[i:]; return their values and
    the index after them.  R is a rational, I an identifier, $ the end of
    input, and any other character a lexeme that must appear as written.
    "]" closes an interval over the two rationals before it, so an endpoint
    out of order is reported before any error in a later slot."""
    values: list = []
    for slot in shape:
        if slot == "R":  # ["-"] NUMBER ["/" NUMBER]
            negative = lexemes[i][0] == "-"
            i += negative
            numerator, denominator = int(_expect(lexemes[i], "NUMBER")), 1
            if lexemes[i + 1][0] == "/":
                i += 2
                denominator = int(_expect(lexemes[i], "NUMBER"))
                if not denominator:
                    raise ParseError("rational denominator must be nonzero", lexemes[i][2])
            values.append(Fraction(-numerator if negative else numerator, denominator))
        elif slot == "I":
            if lexemes[i][0] == "LEAF":  # a keyword where a name goes is that name
                lexemes[i : i + 1] = _split(lexemes[i])
            values.append(_expect(lexemes[i], "IDENT"))
        else:
            _expect(lexemes[i], "EOF" if slot == "$" else slot)
            if slot == "]":
                values[-2:] = [Interval(*values[-2:])]
        i += 1
    return values, i


def parse(text: str) -> Expr:
    """Parse one expression; trailing non-comment input is an error.

    An operator-precedence loop over explicit operand and operator stacks,
    equivalent to the `expr`/`term`/`factor` rules above without recursion:
    prefix minus and "(" wait on the operator stack until the operand they
    govern is complete.  Equal compact leaf texts give one shared node;
    each is built when it is reached, so errors come in text order.
    """
    lexemes = _lexemes(text)
    i = 0
    operands: list[Expr] = []
    pending: list[tuple[int, type | None]] = []  # (precedence, node class)
    built: dict[str, Expr] = {}  # compact leaf text -> its node
    while True:
        while lexemes[i][0] in _PREFIX:  # unary minus and "(" before a leaf
            pending.append(_PREFIX[lexemes[i][0]])
            i += 1
        lexeme = lexemes[i]
        if lexeme[0] == "LEAF":
            m = lexeme[3]
            leaf_text = m[lexeme[1]]
            node = built.get(leaf_text)
            if node is None:
                node = built[leaf_text] = _compact_leaf(m)
            operands.append(node)
            i += 1
        else:
            leaf = _LEAVES.get(lexeme[1])
            if leaf is None:
                raise _mismatch("a leaf ('exact' or 'meas')", lexeme)
            shape, build = leaf
            values, i = _fields(lexemes, i + 1, shape)
            operands.append(build(*values))
        while True:  # after an operand: ")" repeats, an infix operator ends
            kind = lexemes[i][0]
            infix = _INFIX.get(kind)
            # Left associativity: apply pending operators of equal or
            # higher precedence; ")" and the end apply all down to "(",
            # so what is left pending then is a "(" or nothing.
            floor = infix[0] if infix else 1
            while pending and pending[-1][0] >= floor:
                _, cls = pending.pop()
                if cls is Neg:
                    operands[-1] = Neg(operands[-1])
                else:
                    rhs = operands.pop()
                    operands[-1] = cls(operands[-1], rhs)
            if infix:
                i += 1
                pending.append(infix)
                break
            if not pending:
                _expect(lexemes[i], "EOF")
                return operands[0]
            _expect(lexemes[i], ")")
            i += 1
            pending.pop()


def parse_interval(text: str) -> Interval:
    """Parse a standalone interval literal such as "[2,5]" or "[-1/2,3]"."""
    return _fields(_lexemes(text), 0, "[R,R]$")[0][0]


def parse_rational(text: str) -> Fraction:
    """Parse a standalone rational literal such as "9/2" or "-3"."""
    return _fields(_lexemes(text), 0, "R$")[0][0]


def parse_env(text: str) -> TokenEnv:
    """Parse an environment file: one "token = rational" binding per line.

    Blank lines and "#" comments are allowed; later bindings for the same
    token win; unlisted tokens default to 0.  An error's position is the
    offset of the name or value it names, or of the line without "=".
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
            _fields(_lexemes(name), 0, "I$")
        except ParseError:
            raise error(f"bad token name {name!r}", name_at) from None
        try:
            bindings[Token(name)] = parse_rational(value)
        except ParseError:
            raise error(f"bad rational {value!r}", value_at) from None
    return TokenEnv(bindings)
