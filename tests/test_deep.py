"""Deep and long inputs, and the iterative walks checked against references.

Every input here is far deeper than the interpreter's recursion limit, so
any recursive tree walk left in the package would fail with
RecursionError instead of an answer or a documented exit code.
"""

import copy
import dataclasses
import json
import pickle
import random
from fractions import Fraction as F

import pytest

from enclosures import (
    Add,
    Div,
    Exact,
    ExactInterval,
    Interval,
    Meas,
    Mul,
    Neg,
    NotAffineError,
    RewriteClass,
    Sub,
    Token,
    audit_classification,
    classify,
    enclosure,
    format_expr,
    parse,
    to_affine,
)
from enclosures.blind import forget_tokens
from enclosures.cli import main
from enclosures.expr import Dim
from enclosures.rewrite import Holds, SameExpression
from enclosures.semantics import TokenEnv, evaluate, token_consistent
from exprgen import (
    equal_value_variant,
    gen_any,
    gen_exact,
    naive_consistent,
    naive_evaluate,
    rand_rational,
    redeclare,
    token_boxes,
)

D = Dim("d")
LEAF = "meas(t,[1,2],d)"


def sum_text(n: int, seed: int = 0) -> str:
    """An n-term sum and difference over four tokens and some constants."""
    rng = random.Random(seed)
    terms = [
        f"exact({i % 7},d)" if i % 5 == 4 else f"meas(t{i % 4},[0,1],d)" for i in range(n)
    ]
    text = terms[0]
    for term in terms[1:]:
        text += rng.choice((" + ", " - ")) + term
    return text


# (name, source, target): each pair is interchangeable by value.
DEEP_PAIRS = [
    ("sum5000", sum_text(5000), sum_text(5000) + " + exact(0,d)"),
    ("parens3000", "(" * 3000 + f"{LEAF} + exact(1,d)" + ")" * 3000, f"{LEAF} + exact(1,d)"),
    ("neg3000", "-" * 3000 + LEAF, LEAF),
]


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text + "\n", encoding="utf-8")
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name, src, tgt", DEEP_PAIRS, ids=[p[0] for p in DEEP_PAIRS])
@pytest.mark.parametrize("command", ["eval", "enclosure", "classify", "blind", "oracle"])
def test_subcommands_answer_deep_inputs(capsys, files, name, src, tgt, command):
    s, t = files("s.expr", src), files("t.expr", tgt)
    operands = [s, t] if command in ("classify", "blind") else [s]
    code, out, err = run_cli(capsys, command, *operands, "--grid", "2")
    assert code in (0, 3, 4), err
    assert "Traceback" not in err
    payloads = [json.loads(line) for line in out.splitlines()]
    assert payloads
    if command == "classify":
        assert payloads[0]["classification"]["class"] == "interchangeable"
        assert payloads[0]["audit"] is True
    if command == "enclosure" and name != "neg3000":
        assert payloads[0]["result"]["outcome"] == "exact-interval"


@pytest.mark.parametrize("name, src, tgt", DEEP_PAIRS, ids=[p[0] for p in DEEP_PAIRS])
def test_pretty_output_on_deep_inputs(capsys, files, name, src, tgt):
    code, out, err = run_cli(
        capsys, "classify", files("s.expr", src), files("t.expr", tgt), "--pretty"
    )
    assert code == 0, err
    assert "class: interchangeable" in out.splitlines()


@pytest.mark.parametrize("n", [400, 1000])
def test_classify_separately_parsed_long_sums(n):
    text = sum_text(n, seed=n)
    src, tgt = parse(text), parse(text)
    assert src is not tgt
    cls = classify(src, tgt)
    assert cls.kind is RewriteClass.INTERCHANGEABLE
    assert cls.forward == Holds(SameExpression())
    assert audit_classification(cls, src, tgt)


def _leaf(i: int):
    if i % 3 == 0:
        return Exact(F(i, 7), D)
    return Meas(Token(f"t{i % 5}"), Interval.of(-1, i % 4), D)


def deep_trees():
    left_sum = _leaf(0)
    for i in range(1, 5000):
        left_sum = (Add if i % 2 else Sub)(left_sum, _leaf(i))
    right_chain = _leaf(0)
    for i in range(1, 3000):
        right_chain = (Sub if i % 2 else Div)(_leaf(i), right_chain)
    negs = _leaf(1)
    for _ in range(3000):
        negs = Neg(negs)
    mixed = _leaf(2)
    for i in range(3000):
        op = (Mul, Div, Add, Sub)[i % 4]
        mixed = Neg(op(mixed, _leaf(i))) if i % 5 == 0 else op(_leaf(i), mixed)
    return {"left-sum": left_sum, "right-chain": right_chain, "negs": negs, "mixed": mixed}


@pytest.mark.parametrize("name", ["left-sum", "right-chain", "negs", "mixed"])
def test_deep_trees_print_parse_compare_and_hash(name):
    e = deep_trees()[name]
    back = parse(format_expr(e))
    assert back is not e
    assert back == e
    assert hash(back) == hash(e)
    changed = Add(e, _leaf(1)) if name != "negs" else Neg(Neg(e))
    assert changed != e


def ref_eq(a, b) -> bool:
    """Structural equality written out by hand; recursion is fine on small trees."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (Exact, Meas)):
        return a == b
    if isinstance(a, Neg):
        return ref_eq(a.operand, b.operand)
    return ref_eq(a.lhs, b.lhs) and ref_eq(a.rhs, b.rhs)


def corpus(seed: int, count: int, budget: int):
    rng = random.Random(seed)
    boxes = token_boxes(rng, max_tokens=2)
    out = []
    for _ in range(count):
        e = gen_any(rng, boxes, rng.randint(1, budget))
        out += [e, redeclare(rng, e)] if rng.random() < 0.3 else [e]
        if rng.random() < 0.2:
            out.append(equal_value_variant(rng, gen_exact(rng, 3)))
    return out, rng


@pytest.mark.parametrize("seed", range(8))
def test_equality_and_hash_match_reference(seed):
    # Tiny trees over few tokens collide often, so equal pairs are common.
    trees, _ = corpus(seed, 60, 5)
    trees += [parse(format_expr(e)) for e in trees[:30]]
    equal_pairs = 0
    for a in trees:
        for b in trees:
            assert (a == b) is ref_eq(a, b)
            assert (a != b) is not ref_eq(a, b)
            if ref_eq(a, b):
                equal_pairs += a is not b
                assert hash(a) == hash(b)
    assert equal_pairs > 0


@pytest.mark.parametrize("seed", range(40))
def test_evaluate_and_consistency_match_reference(seed):
    trees, rng = corpus(1000 + seed, 10, 15)
    for e in trees:
        tokens = sorted({leaf.token for leaf in _meas(e)}, key=lambda t: t.name)
        for _ in range(4):
            # Values near the boxes, sometimes unbound, so both verdicts occur.
            env = TokenEnv(
                {t: rand_rational(rng, -11, 11, 2) for t in tokens if rng.random() < 0.9}
            )
            assert evaluate(env, e) == naive_evaluate(env, e)
            assert token_consistent(env, e) is naive_consistent(env, e)


def _meas(e):
    stack, out = [e], []
    while stack:
        node = stack.pop()
        if isinstance(node, Meas):
            out.append(node)
        elif isinstance(node, Neg):
            stack.append(node.operand)
        elif not isinstance(node, Exact):
            stack += [node.lhs, node.rhs]
    return out


@pytest.mark.parametrize(
    "text",
    [
        "(meas(t,[1,2],d) * meas(u,[1,2],d)) / exact(0,d)",
        "(meas(t,[-1,1],d) / meas(t,[-1,1],d)) / exact(0,d)",
        "(meas(t,[1,2],d) / meas(u,[1,2],d)) / (exact(1,d) - exact(1,d))",
    ],
)
def test_division_by_exact_zero_encloses_to_zero(text):
    assert enclosure(parse(text)) == ExactInterval(Interval.point(0))


def test_scaling_by_zero_does_not_absorb_a_product():
    # Only total division folds a non-affine operand away; a zero factor
    # leaves the product outside the fragment, as before.
    with pytest.raises(NotAffineError):
        to_affine(parse("exact(0,d) * (meas(t,[1,2],d) * meas(u,[1,2],d))"))


def ref_repr(e) -> str:
    """The dataclass repr, field by field; recursion is fine on small trees."""
    if not isinstance(e, (Add, Sub, Mul, Div, Neg)):
        return repr(e)
    fields = (f"{f.name}={ref_repr(getattr(e, f.name))}" for f in dataclasses.fields(e))
    return f"{type(e).__qualname__}({', '.join(fields)})"


def test_repr_text():
    e = parse("-meas(t,[1,2],d) / exact(1/2,d)")
    assert repr(e) == (
        "Div(lhs=Neg(operand=Meas(token=Token(name='t'), interval=Interval("
        "lo=Fraction(1, 1), hi=Fraction(2, 1)), dim=Dim(tag='d'))),"
        " rhs=Exact(value=Fraction(1, 2), dim=Dim(tag='d')))"
    )
    assert repr(forget_tokens(e)) == (
        "Div(lhs=Neg(operand=BlindMeas(interval=Interval(lo=Fraction(1, 1),"
        " hi=Fraction(2, 1)), dim=Dim(tag='d'))),"
        " rhs=BlindExact(value=Fraction(1, 2), dim=Dim(tag='d')))"
    )


@pytest.mark.parametrize("seed", range(8))
def test_repr_matches_reference(seed):
    trees, _ = corpus(3000 + seed, 30, 15)
    for e in trees:
        assert repr(e) == ref_repr(e)
        assert repr(forget_tokens(e)) == ref_repr(forget_tokens(e))


@pytest.mark.parametrize("name, src, tgt", DEEP_PAIRS, ids=[p[0] for p in DEEP_PAIRS])
def test_deep_inputs_repr_pickle_and_deepcopy(name, src, tgt):
    e = parse(src)
    assert repr(e).startswith(type(e).__name__ + "(")
    for tree in (e, forget_tokens(e)):
        back = pickle.loads(pickle.dumps(tree))
        assert back is not tree and back == tree
        twin = copy.deepcopy(tree)
        assert twin is not tree and twin == tree


@pytest.mark.parametrize("name", ["left-sum", "right-chain", "negs", "mixed"])
def test_deep_trees_pickle_and_deepcopy(name):
    e = deep_trees()[name]
    assert pickle.loads(pickle.dumps(e)) == e
    assert copy.deepcopy(e) == e
