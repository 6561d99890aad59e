"""Every error the expression, interval and rational readers raise, pinned.

The table fixes the exception type, the message and the character offset
of each way `parse`, `parse_interval` and `parse_rational` can reject a
text.  The round trip checks that blanks, comments and spaced-out
rationals anywhere between lexemes leave the parsed tree unchanged.
"""

import random
import re

import pytest

from enclosures import (
    IntervalOrderError,
    ParseError,
    format_expr,
    parse,
    parse_interval,
    parse_rational,
)
from exprgen import gen_any, token_boxes

READERS = {"parse": parse, "parse_interval": parse_interval, "parse_rational": parse_rational}
LEAF = "expected a leaf ('exact' or 'meas')"
NONZERO = "rational denominator must be nonzero"

ERRORS = [
    # unexpected characters are reported before any grammar error
    ("parse", "exact(1,d) $ exact(x,d)", "unexpected character '$'", 11),
    ("parse", "exact(1,d) + meas(t,[1,2],d) ? ", "unexpected character '?'", 29),
    ("parse", "meas(t,[5,2],$", "unexpected character '$'", 13),
    # each slot of an exact leaf
    ("parse", "exact 1", "expected '(', found '1'", 6),
    ("parse", "exact(x,d)", "expected 'NUMBER', found 'x'", 6),
    ("parse", "exact(1 d)", "expected ',', found 'd'", 8),
    ("parse", "exact(1,2)", "expected 'IDENT', found '2'", 8),
    ("parse", "exact(1,d]", "expected ')', found ']'", 9),
    # each slot of a measured leaf
    ("parse", "meas[t,[1,2],d)", "expected '(', found '['", 4),
    ("parse", "meas(7,[1,2],d)", "expected 'IDENT', found '7'", 5),
    ("parse", "meas(t [1,2],d)", "expected ',', found '['", 7),
    ("parse", "meas(t,(1,2],d)", "expected '[', found '('", 7),
    ("parse", "meas(t,[x,2],d)", "expected 'NUMBER', found 'x'", 8),
    ("parse", "meas(t,[1 2],d)", "expected ',', found '2'", 10),
    ("parse", "meas(t,[1,-],d)", "expected 'NUMBER', found ']'", 11),
    ("parse", "meas(t,[1,2),d)", "expected ']', found ')'", 11),
    ("parse", "meas(t,[1,2] d)", "expected ',', found 'd'", 13),
    ("parse", "meas(t,[1,2],3)", "expected 'IDENT', found '3'", 13),
    ("parse", "meas(t,[1,2],d,", "expected ')', found ','", 14),
    # the parts of a rational
    ("parse", "exact(--3,d)", "expected 'NUMBER', found '-'", 7),
    ("parse", "exact(1/-2,d)", "expected 'NUMBER', found '-'", 8),
    ("parse", "exact(1/,d)", "expected 'NUMBER', found ','", 8),
    # a missing leaf
    ("parse", "+ exact(1,d)", f"{LEAF}, found '+'", 0),
    ("parse", "foo(1,d)", f"{LEAF}, found 'foo'", 0),
    ("parse", "exact(1,d) * )", f"{LEAF}, found ')'", 13),
    ("parse", "7", f"{LEAF}, found '7'", 0),
    # end of input
    ("parse", "", f"{LEAF}, found 'end of input'", 0),
    ("parse", "  # only a comment\n", f"{LEAF}, found 'end of input'", 19),
    ("parse", "exact(1,d) +", f"{LEAF}, found 'end of input'", 12),
    ("parse", "-", f"{LEAF}, found 'end of input'", 1),
    ("parse", "meas(t,[1,", "expected 'NUMBER', found 'end of input'", 10),
    # a zero denominator
    ("parse", "exact(1/0,d)", NONZERO, 8),
    ("parse", "meas(t,[1,3/0],d)", NONZERO, 12),
    # an unclosed "(", a stray ")" and trailing input
    ("parse", "(exact(1,d)", "expected ')', found 'end of input'", 11),
    ("parse", "((exact(1,d) + exact(2,d))", "expected ')', found 'end of input'", 26),
    ("parse", "exact(1,d))", "expected 'EOF', found ')'", 10),
    ("parse", "(exact(1,d)))", "expected 'EOF', found ')'", 12),
    ("parse", "exact(1,d) exact(2,d)", "expected 'EOF', found 'exact'", 11),
    ("parse", "exact(1,d) # c\n meas", "expected 'EOF', found 'meas'", 16),
    # standalone intervals
    ("parse_interval", "2,5]", "expected '[', found '2'", 0),
    ("parse_interval", "[1,2", "expected ']', found 'end of input'", 4),
    ("parse_interval", "[1;2]", "unexpected character ';'", 2),
    ("parse_interval", "[1,2] x", "expected 'EOF', found 'x'", 6),
    ("parse_interval", "[1,2],", "expected 'EOF', found ','", 5),
    ("parse_interval", "[1/0,2]", NONZERO, 3),
    ("parse_interval", "", "expected '[', found 'end of input'", 0),
    # standalone rationals
    ("parse_rational", "", "expected 'NUMBER', found 'end of input'", 0),
    ("parse_rational", "1.5", "unexpected character '.'", 1),
    ("parse_rational", "1/0", NONZERO, 2),
    ("parse_rational", "x", "expected 'NUMBER', found 'x'", 0),
    ("parse_rational", "1/-2", "expected 'NUMBER', found '-'", 2),
    ("parse_rational", "- -1", "expected 'NUMBER', found '-'", 2),
    ("parse_rational", "1 2", "expected 'EOF', found '2'", 2),
    ("parse_rational", "3/", "expected 'NUMBER', found 'end of input'", 2),
]


@pytest.mark.parametrize("reader, text, message, position", ERRORS)
def test_parse_error_table(reader, text, message, position):
    with pytest.raises(ParseError) as err:
        READERS[reader](text)
    assert type(err.value) is ParseError
    assert str(err.value) == f"{message} (at offset {position})"
    assert err.value.position == position


@pytest.mark.parametrize(
    "reader, text",
    [
        ("parse", "meas(t,[5,2] d)"),
        ("parse", "meas(t,[5,2],3)"),
        ("parse_interval", "[5,2] x"),
    ],
)
def test_interval_order_is_checked_before_later_slots(reader, text):
    with pytest.raises(IntervalOrderError) as err:
        READERS[reader](text)
    assert str(err.value) == "interval [5,2] has lo > hi"


FILLERS = ["", " ", "\n", "  \t", " # note ) $ exact(\n", "# [,]\n\n "]


def scatter(rng: random.Random, text: str) -> str:
    """Spread blanks and comments between lexemes of a formatted tree, and
    write some rationals as "- 3" and "1 / 2"."""
    text = re.sub(r"[(\[,\] ]", lambda m: m.group() + rng.choice(FILLERS), text)
    text = re.sub(r"-(?=\d)", lambda _: rng.choice(["-", "- ", "-\n"]), text)
    text = re.sub(r"(?<=\d)/(?=\d)", lambda _: rng.choice(["/", " / ", "/ # q\n"]), text)
    return rng.choice(FILLERS) + text + rng.choice(FILLERS)


def test_scattered_blanks_and_comments_round_trip():
    for seed in range(300):
        rng = random.Random(seed)
        e = gen_any(rng, token_boxes(rng), rng.randint(1, 14))
        text = scatter(rng, format_expr(e))
        assert parse(text) == e, (seed, text)
