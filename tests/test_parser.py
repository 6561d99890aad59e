"""Every error the expression, interval and rational readers raise, pinned.

The table fixes the exception type, the message and the character offset
of each way `parse`, `parse_interval` and `parse_rational` can reject a
text.  The round trip checks that blanks, comments and spaced-out
rationals anywhere between lexemes leave the parsed tree unchanged.  A
leaf read in one match must parse exactly as it does lexeme by lexeme,
and equal leaf texts in one expression must give one shared node that
behaves as distinct equal nodes would.  Every reader must agree with the
parent's parser, kept in `parser_reference.py`, on every corpus here and
on perfbench's inputs and on random texts over the lexer's alphabet.  A
parse does its checks once per distinct leaf text, builds each distinct
interval, rational, token name and dim tag once, and reads its input
again on plain lexemes, working out a character offset, only when it
fails; a valid compact leaf is one lexeme however long it is.  The
post-order a parsed root keeps must be the one a fresh walk gives, and a
parsed tree must be freed by reference counting alone.  An operator node
is one object with no `__dict__`, so a parse makes fewer than two objects
the cycle collector tracks per node.
"""

import copy
import gc
import pickle
import random
import re
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from enclosures import (
    EMPTY_ENV,
    Add,
    Div,
    Exact,
    IntervalOrderError,
    Meas,
    Mul,
    Neg,
    ParseError,
    Sub,
    audit_classification,
    classify,
    evaluate,
    format_expr,
    parse,
    parse_env,
    parse_interval,
    parse_rational,
    parser,
)
from enclosures.enclosure import to_affine
from enclosures.expr import _rebuild, _shape, fold, postorder
from enclosures.semantics import _STEP, Compiled, _over_itself, compile_expr
import parser_reference as reference
from exprgen import (
    CHAIN_WRAPS,
    gen_affine,
    gen_any,
    long_affine_text,
    rand_interval,
    rand_rational,
    token_boxes,
)

OPS = (Add, Sub, Mul, Div, Neg)
READERS = {"parse": parse, "parse_interval": parse_interval, "parse_rational": parse_rational}
LEAF = "expected a leaf ('exact' or 'meas')"
NONZERO = "rational denominator must be nonzero"
# The interpreter's int-to-string limit: 0 where it has none.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "9" * (DIGIT_LIMIT + 1)
TOO_LONG = f"number has more than {DIGIT_LIMIT} digits"
NO_LIMIT = pytest.mark.skipif(not DIGIT_LIMIT, reason="no int-to-string limit in this interpreter")

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
    ("parse", "exact(1/00,d)", NONZERO, 8),
    ("parse", "meas(t,[1,3/0],d)", NONZERO, 12),
    # whole leaves: a later leaf is not read before an earlier error
    ("parse", "meas(t,[1,2],d) + ) meas(u,[2,1],d)", f"{LEAF}, found ')'", 18),
    ("parse", "meas(t,[1,2],d)x", "expected 'EOF', found 'x'", 15),
    ("parse", "measx(t,[1,2],d)", f"{LEAF}, found 'measx'", 0),
    # a whole leaf where a name goes: its keyword is the name
    ("parse", "meas(exact(1,d),[1,2],d)", "expected ',', found '('", 10),
    ("parse", "exact(1,meas(t,[1,2],d))", "expected ')', found '('", 12),
    # an unclosed "(", a stray ")" and trailing input
    ("parse", "(exact(1,d)", "expected ')', found 'end of input'", 11),
    ("parse", "((exact(1,d) + exact(2,d))", "expected ')', found 'end of input'", 26),
    ("parse", "exact(1,d))", "expected 'EOF', found ')'", 10),
    ("parse", "(exact(1,d)))", "expected 'EOF', found ')'", 12),
    ("parse", "exact(1,d) exact(2,d)", "expected 'EOF', found 'exact'", 11),
    ("parse", "exact(1,d) # c\n meas", "expected 'EOF', found 'meas'", 16),
    # a found lexeme is quoted up to its first 40 characters
    pytest.param(
        "parse", "exact(1,d) " + "9" * 40, f"expected 'EOF', found {'9' * 40!r}", 11,
        id="found-40-digits",
    ),
    pytest.param(
        "parse", "exact(1,d) " + "9" * 5000, f"expected 'EOF', found {'9' * 40!r}...", 11,
        id="found-5000-digits",
    ),
    pytest.param("parse", "x" * 41, f"{LEAF}, found {'x' * 40!r}...", 0, id="found-41-letters"),
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
    # a number with more digits than the interpreter converts, in each reader
    *(
        pytest.param(*row, marks=NO_LIMIT, id=f"{row[0]}-too-long-{row[3]}")
        for row in [
            ("parse", f"exact({LONG},d)", TOO_LONG, 6),
            ("parse", f"meas(t,[0,1/{LONG}],d) + exact(1,d)", TOO_LONG, 12),
            ("parse", f"exact(1,d) - meas(t,[-{LONG},0],d)", TOO_LONG, 22),
            ("parse_interval", f"[1,{LONG}]", TOO_LONG, 3),
            ("parse_rational", f"-1/{LONG}", TOO_LONG, 3),
        ]
    ),
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


def scattered_corpus() -> list[tuple]:
    """(tree, its text with blanks and comments scattered) for 300 seeds."""
    corpus = []
    for seed in range(300):
        rng = random.Random(seed)
        e = gen_any(rng, token_boxes(rng), rng.randint(1, 14))
        corpus.append((e, scatter(rng, format_expr(e))))
    return corpus


def test_scattered_blanks_and_comments_round_trip():
    for seed, (e, text) in enumerate(scattered_corpus()):
        assert parse(text) == e, (seed, text)


# The lexer pattern without leaf lexemes: one match per name, number and
# symbol.  Under it `parse` reads every leaf slot by slot.
LEXEME_ONLY = re.compile(r"(?:\s+|#[^\n]*)*([A-Za-z][A-Za-z0-9_]*|[0-9]+|[-+*/()\[\],]|\Z)")


def outcome(text: str, read=parse) -> tuple:
    """The tree's repr, or the exception's type, message and offset."""
    try:
        return ("ok", repr(read(text)))
    except Exception as err:  # every failure must match, whatever its type
        return (type(err).__name__, str(err), getattr(err, "position", None))


def lexeme_only(monkeypatch, texts: list[str]) -> list[tuple]:
    with monkeypatch.context() as m:
        m.setattr(parser, "_LEXEME", LEXEME_ONLY)
        return [outcome(text) for text in texts]


@pytest.mark.parametrize(
    "text",
    [
        "meas (t,[1,2],d)",
        "meas(t,[1, 2],d)",
        "meas(t,[- 1,2],d)",
        "meas(t,[1,2], # a note\n d)",
        "exact(1/007,d)",
        "meas(meas,[1,2],exact) * exact(-0,meas)",
    ],
)
def test_leaf_with_blanks_or_keyword_names_parses_as_lexeme_by_lexeme(monkeypatch, text):
    assert outcome(text)[0] == "ok"
    assert [outcome(text)] == lexeme_only(monkeypatch, [text])


# Letters of both keywords and a name, every symbol, a blank, a comment,
# a line break and a character no lexeme takes; digits are drawn apart.
MUTATION_CHARS = "measxct1(),[]-+*/ #\n$"


def mutate(rng: random.Random, text: str) -> str:
    """One to three single-character insertions, deletions or replacements."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        edit = rng.choice("idr")
        new = rng.choice("0123456789" if rng.random() < 0.4 else MUTATION_CHARS)
        if edit == "i":
            text = text[:at] + new + text[at:]
        elif edit == "d":
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + new + text[at + 1 :]
    return text


def mutation_corpus() -> list[str]:
    """400 printed trees, then 20 000 mutations of them."""
    rng = random.Random(20261018)
    corpus = []
    for seed in range(400):
        gen = gen_affine if seed % 2 else gen_any
        e = gen(rng, token_boxes(rng), rng.randint(1, 16))
        corpus.append(format_expr(e))
    return corpus + [mutate(rng, rng.choice(corpus)) for _ in range(20_000)]


def test_whole_leaf_lexemes_parse_as_lexeme_by_lexeme(monkeypatch):
    texts = mutation_corpus()
    fast = [outcome(text) for text in texts]
    slow = lexeme_only(monkeypatch, texts)
    differ = [(text, f, s) for text, f, s in zip(texts, fast, slow) if f != s]
    assert not differ, (len(differ), differ[:3])
    # the mutations reach every kind of outcome
    assert {o[0] for o in fast} >= {"ok", "ParseError", "IntervalOrderError"}


def distinct_leaves(e):
    """e rebuilt with a fresh object at every leaf occurrence."""
    return fold(e, copy.copy, {cls: cls for cls in (Add, Sub, Mul, Div, Neg)})


def test_equal_leaf_texts_share_one_node_per_parse():
    text = " + ".join(["meas(t,[1,2],d)"] * 5 + ["exact(3/4,d)", "meas(t,[1,2],d)"])
    first, second = parse(text), parse(text)
    meas = [n for n in postorder(first) if isinstance(n, Meas)]
    assert len(meas) == 6 and all(n is meas[0] for n in meas)
    assert not {id(n) for n in postorder(first)} & {id(n) for n in postorder(second)}


def order_corpus() -> list[str]:
    """Texts of every shape whose parse order the tests below check: the
    scattered corpus, affine trees, long sums and deep chains of each wrap,
    shared leaves, a long run of unary minus and a lone leaf."""
    rng = random.Random(2501)
    texts = [text for _, text in scattered_corpus()]
    texts += [format_expr(gen_affine(rng, token_boxes(rng), rng.randint(1, 30))) for _ in range(100)]
    texts.append(long_affine_text(rng, 300, 40))
    texts += [long_affine_text(rng, 300, 40, True, wrap) for wrap in CHAIN_WRAPS.values()]
    texts.append(" * ".join(["(meas(t,[1,2],d) - -meas(t,[1,2],d))"] * 20))
    texts += ["-" * 3000 + "meas(t,[1,2],d)", "meas(t,[1,2],d)", "(((exact(3/4,d))))"]
    return texts


def test_parse_order_is_a_fresh_walk():
    # A parsed root keeps its program, not the order its nodes were
    # completed in, so `postorder` walks it as it walks any other tree.  The
    # walk meets the nodes the parse built the program from: one step per
    # operator, and the distinct measured leaves in the order they come first,
    # whose tokens and interval objects the program lists.
    for text in order_corpus():
        e = parse(text)
        assert not hasattr(e, "_postorder"), text
        postorder(e).clear()  # each call returns a list of its own
        walked = postorder(e)
        program = e._program
        assert walked[-1] is e, text
        assert sum(isinstance(node, OPS) for node in walked) == len(program._steps), text
        first = {id(node): node for node in walked if type(node) is Meas}.values()
        assert program.leaves == [(leaf.token, leaf.interval) for leaf in first], text
        assert all(box is leaf.interval for (_, box), leaf in zip(program.leaves, first)), text


def test_a_parsed_tree_reads_as_its_rebuilt_shape():
    for text in order_corpus():
        e = parse(text)
        rebuilt = _rebuild(_shape(e))  # a tree of constructors, on the same leaves
        assert pickle.dumps(e) == pickle.dumps(rebuilt), text
        assert hash(e) == hash(rebuilt) and repr(e) == repr(rebuilt), text
        copied = copy.deepcopy(e)
        assert copied == rebuilt and pickle.dumps(copied) == pickle.dumps(copy.deepcopy(rebuilt))
        assert getattr(e, "_program", None) is not None, text
        for cold in copied, pickle.loads(pickle.dumps(e)), *postorder(e)[:-1]:
            assert not hasattr(cold, "_program"), text


def program_matches_the_walk(e) -> int:
    """Check that the program `parse` left on e is, field for field, the one
    `Compiled` builds walking a cold copy of e, and that it keeps two rules
    read off the tree alone: one register per token, loaded in the order the
    tokens first occur, and one step per operator, in post-order, that is
    `_over_itself` exactly where a quotient's operands are equal.  Return the
    number of those self-quotients."""
    parsed = e._program
    cold = copy.deepcopy(e)
    assert not hasattr(cold, "_program")
    walked = Compiled(cold)
    assert cold._program is walked
    # A step function equals only itself; the leaves are (token, interval) pairs.
    assert parsed._registers == walked._registers and parsed._loads == walked._loads
    assert parsed._steps == walked._steps and parsed._root == walked._root
    assert parsed._checks == walked._checks and parsed.leaves == walked.leaves
    nodes = postorder(e)
    tokens = {node.token.name: node.token for node in nodes if type(node) is Meas}
    assert [token for _, token in parsed._loads] == list(tokens.values())
    ops = [node for node in nodes if isinstance(node, OPS)]
    rules = [_over_itself if type(op) is Div and op.lhs == op.rhs else _STEP[type(op)] for op in ops]
    assert rules == [step for _, step, _, _ in parsed._steps]
    return rules.count(_over_itself)


def test_parsed_program_matches_the_walk(perfbench_texts):
    # order_corpus holds the scattered corpus too.
    self_quotients = 0
    for text in order_corpus() + list(perfbench_texts((1, 2))):
        try:
            e = parse(text)
        except (ParseError, IntervalOrderError):  # perfbench's `cli` calls read bad files too
            continue
        self_quotients += program_matches_the_walk(e)
    assert self_quotients


def test_a_parsed_tree_is_freed_by_reference_counting():
    # A program lists each measured leaf's token and interval, not the leaf,
    # so no memo makes a cycle: not on an operator root, not on a lone leaf
    # root, which keeps its own program, nor on a leaf subtree compiled alone.
    rng = random.Random(2502)
    texts = [long_affine_text(rng, 300, 40), long_affine_text(rng, 300, 40, right=True)]
    texts += ["-" * 3000 + "meas(t,[1,2],d)", "meas(t,[1,2],d)", "meas(t,[1,2],d) + exact(1,d)"]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for text in texts:
            e = parse(text)
            # the memos a walk leaves, on the root or on a leaf subtree of a sum
            node = e.lhs if text.endswith("exact(1,d)") else e
            postorder(node), compile_expr(node), evaluate(EMPTY_ENV, node), to_affine(node)
            refs = weakref.ref(e), weakref.ref(node)
            del e, node
            assert [ref() for ref in refs] == [None, None], text[:40]
    finally:
        if enabled:
            gc.enable()


def test_checking_perfbench_ops_leaves_no_cyclic_garbage(perfbench_gen):
    # Parsing, classifying and auditing leave nothing that only the cycle
    # collector can free: each tree goes when its last reference is dropped.
    gen = perfbench_gen
    workloads = {
        name: [op for op in getattr(gen, name)(1) if not op.probe]
        for name in ("suite", "products", "wide")
    }
    leaf = "meas(t,[1,2],d)"
    workloads["lone leaves"] = [
        gen.Op("leaf", leaf, tgt, expect="", nodes=1) for tgt in (leaf, "exact(3/2,d)")
    ]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        garbage = {}
        for name, ops in workloads.items():
            for op in ops:
                src, tgt = parse(op.src), parse(op.tgt)
                assert audit_classification(classify(src, tgt, op.grid, op.budget), src, tgt)
            garbage[name] = gc.collect()
        assert garbage == dict.fromkeys(workloads, 0)
    finally:
        if enabled:
            gc.enable()


def test_a_parse_allocates_one_object_per_operator_node():
    # Objects, not seconds: with the collector off, the young generation's
    # count rises by one for each object the collector tracks that is made,
    # and falls by one for each that is freed.  An operator node is one such
    # object, its fields and memos in slots; with a `__dict__` of its own
    # it was two, and a 300-term sum made about 2.3 per node, not 1.8.
    rng = random.Random(31)
    texts = long_affine_text(rng, 300, 40), long_affine_text(rng, 300, 40, right=True)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        before = gc.get_count()[0]
        src = parse(texts[0])
        made = gc.get_count()[0] - before
    finally:
        if enabled:
            gc.enable()
    assert made < 2.0 * len(postorder(src)), made
    tgt = parse(texts[1])
    assert audit_classification(classify(src, tgt), src, tgt)
    for e in src, tgt:
        compile_expr(e), evaluate(EMPTY_ENV, e), to_affine(e)  # every memo a walk leaves
        assert not any(hasattr(node, "__dict__") for node in postorder(e) if isinstance(node, OPS))


@pytest.mark.parametrize(
    "src, tgt",
    [
        ("meas(t,[1,2],d) + meas(t,[1,2],d) - meas(u,[0,1],d)", "exact(2,d) * meas(t,[1,2],d)"),
        ("meas(t,[1,2],d) * meas(t,[1,2],d)", "meas(t,[1,2],d) * meas(u,[1,2],d)"),
        ("meas(t,[1,2],d) / meas(t,[1,2],d)", "exact(1,d)"),
    ],
)
def test_shared_leaves_behave_as_distinct_equal_leaves(src, tgt):
    shared = parse(src), parse(tgt)
    distinct = tuple(distinct_leaves(e) for e in shared)
    assert len({id(n) for n in postorder(shared[0])}) < len(postorder(shared[0]))
    for a, b in zip(shared, distinct):
        assert len({id(n) for n in postorder(b)}) == len(postorder(b))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) and format_expr(a) == format_expr(b)
        for trip in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
            assert trip == b and repr(trip) == repr(b)
    cls_shared, cls_distinct = classify(*shared), classify(*distinct)
    assert repr(cls_shared) == repr(cls_distinct)
    assert audit_classification(cls_shared, *shared) == audit_classification(cls_distinct, *distinct)


# --- the parent's parser as reference, and the work one parse does -----------


def literal_corpora(rng: random.Random) -> dict[str, list[str]]:
    """Texts for `parse_interval`, `parse_rational` and `parse_env`: printed
    literals and environment files, then mutations of them."""
    intervals = []
    for _ in range(200):
        iv = rand_interval(rng)
        shape = rng.choice(["[{},{}]", "[ {} , {} ]", "[{}, {}] # c"])
        intervals.append(shape.format(iv.lo, iv.hi))
    rationals = [str(rand_rational(rng)) for _ in range(200)]
    envs = []
    for _ in range(200):
        lines = [f"t{rng.randint(0, 3)} = {rand_rational(rng)}" for _ in range(rng.randint(0, 4))]
        envs.append(rng.choice(["\n", "\n# c\n", "\r\n"]).join(lines))
    return {
        name: texts + [mutate(rng, rng.choice(texts)) for _ in range(3000)]
        for name, texts in [("interval", intervals), ("rational", rationals), ("env", envs)]
    }


def test_every_corpus_parses_as_the_reference_parser(perfbench_texts):
    corpora = {
        "mutations": mutation_corpus(),
        "scattered": [text for _, text in scattered_corpus()],
        "perfbench": list(perfbench_texts((1, 2, 3))),
    }
    for name, texts in corpora.items():
        differ = [text for text in texts if outcome(text) != outcome(text, reference.parse)]
        assert not differ, (name, len(differ), differ[:2])
    assert len(corpora["perfbench"]) > 3000


# Texts over the lexer's alphabet: leaves of each kind with a filler in
# every gap (mostly none; ASCII and Unicode blanks, comments with and
# without a line break after them, a name or a number), joined by the
# symbols, and in some a character no lexeme starts with, "_" among them.
GAPS = ["", "", "", "", "", "", " ", "\t\n", "\r\x0b\x0c", "\x1c", "\x85", "\u00a0", "\u2028", "\u3000",
        "# c\n", "#(", "#", "x", "0"]
LEAF_SHAPES = [
    "meas{}({}t{},{}[{}-1{},{}2/3{}]{},{}d{}){}",
    "exact{}({}1/2{},{}d{}){}",
    "exact{}({}-0{},{}meas{}){}",
    "meas{}({}exact{},{}[{}1{},{}1{}]{},{}u_1{}){}",
]
PREFIXES = ["", "", "-", "(", "-(", "((", "- "]
INFIXES = [" + ", "-", "*", " / ", ")", ") + ", "", "--", "(", ","]
STRAYS = "_$é.\x00"


@st.composite
def lexer_texts(draw) -> str:
    text = ""
    for _ in range(draw(st.integers(1, 4))):
        gaps = draw(st.lists(st.sampled_from(GAPS), min_size=12, max_size=12))
        text += draw(st.sampled_from(PREFIXES)) + draw(st.sampled_from(LEAF_SHAPES)).format(*gaps)
        text += draw(st.sampled_from(INFIXES))
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(STRAYS)) + text[at:]
    return text


@settings(max_examples=400, deadline=None)
@given(lexer_texts())
def test_lexer_matches_the_reference_parser_on_its_alphabet(text):
    assert outcome(text) == outcome(text, reference.parse)


@settings(max_examples=400, deadline=None)
@given(lexer_texts())
def test_parsed_program_matches_the_walk_on_the_lexer_alphabet(text):
    try:
        e = parse(text)
    except (ParseError, IntervalOrderError):
        return
    program_matches_the_walk(e)


def test_literal_readers_match_the_reference_parser():
    readers = {
        "interval": (parse_interval, reference.parse_interval),
        "rational": (parse_rational, reference.parse_rational),
        "env": (parse_env, reference.parse_env),
    }
    for name, texts in literal_corpora(random.Random(20261019)).items():
        read, ref = readers[name]
        outcomes = [outcome(text, read) for text in texts]
        differ = [t for t, o in zip(texts, outcomes) if o != outcome(t, ref)]
        assert not differ, (name, len(differ), differ[:2])
        assert {o[0] for o in outcomes} >= {"ok", "ParseError"}, name


class Counted:
    """A compiled pattern whose method calls are recorded: (method, text)."""

    def __init__(self, pattern: re.Pattern):
        self.pattern, self.calls = pattern, []

    def __getattr__(self, name):
        method = getattr(self.pattern, name)

        def counted(text, *args):
            self.calls.append((name, text))
            return method(text, *args)

        return counted


LEAF_TEXT = re.compile(r"(?:meas|exact)\([^()]*\)")


def test_leaf_grammar_is_checked_once_per_distinct_leaf_text(monkeypatch, perfbench_texts):
    repeated = 0
    for text in perfbench_texts([1]):
        leaves = LEAF_TEXT.findall(text)
        with monkeypatch.context() as m:
            m.setattr(parser, "_LEAF", counted := Counted(parser._LEAF))
            parse(text)
        assert counted.calls == [("fullmatch", leaf) for leaf in dict.fromkeys(leaves)], text
        repeated += len(leaves) - len(counted.calls)
    assert repeated > 10_000  # `wide` repeats most of its leaf texts


# A compact leaf's parts: token, interval ends and dim of a `meas`, or
# value and dim of an `exact`.
LEAF_PARTS = re.compile(r"meas\((\w+),\[([^,]+),([^\]]+)\],(\w+)\)|exact\(([^,]+),(\w+)\)")


def test_equal_part_texts_share_one_object_per_parse(monkeypatch, perfbench_texts):
    """One parse builds each distinct interval, rational, token name and dim
    tag in its input once, so a long sum over a few boxes holds a few parts."""
    fractions = []  # the arguments of each Fraction built
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        fractions.append(args)
        return new(cls, *args, **kwargs)

    shared = 0
    for text in perfbench_texts([1]):
        leaves = LEAF_PARTS.findall(text)
        texts = {
            "interval": {(lo, hi) for _, lo, hi, _, _, _ in leaves if lo},
            "rational": {r for leaf in leaves for r in leaf[1:3] + leaf[4:5] if r},
            "token": {token for token, *_ in leaves if token},
            "dim": {leaf[3] or leaf[5] for leaf in leaves},
        }
        fractions.clear()
        with monkeypatch.context() as m:
            m.setattr(Fraction, "__new__", counted)
            e = parse(text)
        nodes = [n for n in postorder(e) if isinstance(n, (Meas, Exact))]
        meas = [n for n in nodes if isinstance(n, Meas)]
        objects = {
            "interval": {id(n.interval) for n in meas},
            "rational": {id(q) for n in meas for q in (n.interval.lo, n.interval.hi)}
            | {id(n.value) for n in nodes if isinstance(n, Exact)},
            "token": {id(n.token) for n in meas},
            "dim": {id(n.dim) for n in nodes},
        }
        for kind in texts:
            assert len(objects[kind]) == len(texts[kind]), (kind, text[:60])
        assert len(fractions) <= len(texts["rational"]), text[:60]
        shared += len(meas) - len(objects["interval"])
    assert shared > 7000  # `wide`'s long sums repeat a few boxes: 7928 leaf occurrences reuse one


def test_a_successful_parse_works_out_no_offset(monkeypatch, perfbench_texts):
    texts = list(perfbench_texts([1])) + [text for _, text in scattered_corpus()]
    texts += ["meas (t,[1,2],d)", "meas(meas,[1,2],exact) * exact(-0,meas)"]
    for text in texts:
        with monkeypatch.context() as m:
            m.setattr(parser, "_LEXEME", counted := Counted(parser._LEXEME))
            m.setattr(parser, "_FINE", fine := Counted(parser._FINE))
            parse(text)
        assert counted.calls == [("findall", text)] and fine.calls == [], text
    refused = "exact(1,d) + meas(t,[1,2],3)"
    with monkeypatch.context() as m:
        m.setattr(parser, "_LEXEME", counted := Counted(parser._LEXEME))
        m.setattr(parser, "_FINE", fine := Counted(parser._FINE))
        with pytest.raises(ParseError):
            parse(refused)
    assert counted.calls == [("findall", refused)]
    assert fine.calls == [("findall", refused), ("finditer", refused)]


@pytest.mark.parametrize(
    "text",
    [
        f"exact({'9' * 1000}/7,d)",
        f"exact(1,d) + meas(t,[1,{'8' * 700}],d) + meas(t,[1,{'8' * 700}],d)",
    ],
    ids=["exact", "meas-in-a-sum"],
)
def test_long_compact_leaves_are_read_once(monkeypatch, text):
    """A compact leaf longer than 640 characters, each number under the
    int-to-string limit, is one lexeme that the first reading accepts."""
    assert max(map(len, parser._LEXEME.findall(text))) > 640
    with monkeypatch.context() as m:
        m.setattr(parser, "_FINE", fine := Counted(parser._FINE))
        got = outcome(text)
    assert got[0] == "ok" and fine.calls == []
    assert got == outcome(text, reference.parse)
