"""Verdict laws on an exhaustive small universe.

`licensed(a, b)` holds when Encl(b) ⊆ Encl(a): rewriting a into b is safe.
So verdicts on different pairs must fit together, and laws that follow
from that definition alone make an oracle that needs no second
implementation (metamorphic testing):

- preorder: if a ⇝ b and b ⇝ c both hold, a ⇝ c is never Fails;
- renaming: renaming tokens one-to-one leaves every class unchanged;
- token split: giving each later occurrence of a token a fresh token with
  the same interval and dim only adds environments, so
  split_token(e, t) ⇝ e is never Fails;
- token-disjoint congruence: if a ⇝ b holds and the context C shares no
  token with a or b, C[a] ⇝ C[b] is never Fails.

Not a law, and the paper's point: a context that shares a token with the
hole can turn a direction that holds inside into one that fails.

The universe is every tree of at most 3 nodes over the leaves t:[0,1],
u:[-1,1], exact 0 and exact 1: 76 trees, so 5776 ordered pairs.  The
token split runs on the trees of at most 5 nodes that repeat a token.
"""

import collections
import functools
import random
from fractions import Fraction as F

import pytest

from enclosures import (
    Add,
    Dim,
    Div,
    Exact,
    Fails,
    Holds,
    Interval,
    Meas,
    Mul,
    Neg,
    Sub,
    Token,
    Undecided,
    audit_verdict,
    classify,
    format_expr,
    licensed,
    meas_leaves,
    parse,
    split_token,
    tokens_of,
)

D = Dim("d")
LEAVES = (
    Meas(Token("t"), Interval.of(0, 1), D),
    Meas(Token("u"), Interval.of(-1, 1), D),
    Exact(F(0), D),
    Exact(F(1), D),
)
OPS = (Add, Sub, Mul, Div)


def universe(max_nodes: int, leaves: tuple = LEAVES) -> list:
    """Every tree of at most max_nodes nodes over the leaves, smallest first:
    76 trees at 3 nodes, 272 at 4.  The order depends only on the order of
    the leaves, so renamed leaves give the renamed trees at the same places."""
    by_size = {1: list(leaves)}
    for n in range(2, max_nodes + 1):
        trees = [Neg(a) for a in by_size[n - 1]]
        for k in range(1, n - 1):
            trees += [op(a, b) for op in OPS for a in by_size[k] for b in by_size[n - 1 - k]]
        by_size[n] = trees
    return [e for n in sorted(by_size) for e in by_size[n]]


@functools.cache
def classified(leaves: tuple = LEAVES) -> tuple[list, dict]:
    """The 3-node universe over the leaves, and classify(trees[i], trees[j])
    for every i <= j."""
    trees = universe(3, leaves)
    return trees, {
        (i, j): classify(trees[i], trees[j])
        for i in range(len(trees))
        for j in range(i, len(trees))
    }


def verdict_matrix() -> list[list]:
    """v[i][j] = licensed(trees[i], trees[j]), read off one classify per pair."""
    trees, classes = classified()
    v = [[None] * len(trees) for _ in trees]
    for (i, j), cls in classes.items():
        v[i][j], v[j][i] = cls.forward, cls.backward
    return v


def _text(*trees) -> str:
    return " ⇝ ".join(format_expr(e) for e in trees)


def test_universe_sizes():
    assert len(universe(3)) == 76 and len(universe(4)) == 272
    assert len(set(universe(4))) == 272  # no tree twice


def test_preorder():
    trees, _ = classified()
    v = verdict_matrix()
    holds = [[type(x) is Holds for x in row] for row in v]
    chains, violations = 0, []
    for b in range(len(trees)):
        into = [a for a in range(len(trees)) if holds[a][b]]
        onward = [c for c in range(len(trees)) if holds[b][c]]
        chains += len(into) * len(onward)
        violations += [
            _text(trees[a], trees[b], trees[c])
            for a in into
            for c in onward
            if type(v[a][c]) is Fails
        ]
    assert not violations, (len(violations), violations[:5])
    assert chains > 50_000  # 52 109 chains today; a new rung only adds some


RENAMINGS = {
    "swap": {"t": "u", "u": "t"},  # also reverses the order tokens are sampled in
    "fresh": {"t": "a1", "u": "zz"},
}


@pytest.mark.parametrize("name", list(RENAMINGS))
def test_renaming_keeps_every_class(name):
    renamed = tuple(
        Meas(Token(RENAMINGS[name][leaf.token.name]), leaf.interval, leaf.dim)
        if isinstance(leaf, Meas)
        else leaf
        for leaf in LEAVES
    )
    trees, before = classified()
    _, after = classified(renamed)
    changed = [_text(trees[i], trees[j]) for i, j in before if before[i, j].kind is not after[i, j].kind]
    assert not changed, (len(changed), changed[:5])


def test_split_token_renames_each_later_occurrence():
    e = parse("meas(t,[0,1],d) * meas(t,[0,1],d) - meas(t,[0,2],m) + meas(t_1,[0,1],d) / meas(u,[1,2],d)")
    split = split_token(e, Token("t"))
    assert format_expr(split) == (
        "meas(t,[0,1],d) * meas(t_2,[0,1],d) - meas(t_3,[0,2],m) + meas(t_1,[0,1],d) / meas(u,[1,2],d)"
    )
    assert parse(format_expr(split)) == split and split_token(e, Token("v")) == e
    odd = Meas(Token("a b"), Interval.of(0, 1), D)  # not a grammar name: fresh names still are
    assert format_expr(split_token(Add(odd, odd), odd.token).rhs) == "meas(t_1,[0,1],d)"


def test_token_split():
    pairs = [
        (e, t)
        for e in universe(5)
        for t, n in collections.Counter(leaf.token for leaf in meas_leaves(e)).items()
        if n > 1
    ]
    violations, undecided = [], 0
    for e, t in pairs:
        split = split_token(e, t)
        assert len(tokens_of(split)) == len(tokens_of(e)) + sum(leaf.token == t for leaf in meas_leaves(e)) - 1
        verdict = licensed(split, e)
        undecided += type(verdict) is Undecided
        if type(verdict) is Fails:
            violations.append(_text(split, e))
    assert not violations, (len(violations), violations[:5])
    assert len(pairs) == 720 and undecided < len(pairs)  # 444 undecided today


FRESH = Meas(Token("v"), Interval.of(-1, 2), D)  # shares no token with the universe
DISJOINT_CONTEXTS = [
    *(lambda x, op=op: op(x, FRESH) for op in OPS),
    *(lambda x, op=op: op(FRESH, x) for op in OPS),
]


def test_token_disjoint_congruence():
    trees, _ = classified()
    v = verdict_matrix()
    inner = [(i, j) for i, row in enumerate(v) for j, x in enumerate(row) if i != j and type(x) is Holds]
    violations = []
    for i, j in random.Random(2601).sample(inner, 300):
        for context in DISJOINT_CONTEXTS:
            src, tgt = context(trees[i]), context(trees[j])
            if type(licensed(src, tgt)) is Fails:
                violations.append(_text(src, tgt))
    assert not violations, (len(violations), violations[:5])


# (a, b, context): a ⇝ b holds, and in a context that shares a token with
# them the direction becomes the verdict named.
SHARED_CONTEXTS = {
    "t - t vs 0 - t": ("meas(t,[0,1],d)", "exact(0,d)", "({}) - meas(t,[0,1],d)", Fails),
    "t - t vs 1 - t": ("meas(t,[0,1],d)", "exact(1,d)", "({}) - meas(t,[0,1],d)", Fails),
    "u - u vs t - u": ("meas(u,[-1,1],d)", "meas(t,[0,1],d)", "({}) - meas(u,[-1,1],d)", Fails),
    "-u + u vs 0 + u": ("-meas(u,[-1,1],d)", "exact(0,d)", "({}) + meas(u,[-1,1],d)", Fails),
    # u*u takes no negative value, so 1*u's -1 breaks the containment, but
    # no certificate bounds a product of two measured sides: the ladder
    # cannot refute it, and it says so.
    "u * u vs 1 * u": ("meas(u,[-1,1],d)", "exact(1,d)", "({}) * meas(u,[-1,1],d)", Undecided),
}


@pytest.mark.parametrize("name", list(SHARED_CONTEXTS))
def test_a_shared_token_breaks_congruence(name):
    a_text, b_text, context, verdict = SHARED_CONTEXTS[name]
    a, b = parse(a_text), parse(b_text)
    assert type(licensed(a, b)) is Holds
    src, tgt = parse(context.format(a_text)), parse(context.format(b_text))
    lifted = licensed(src, tgt)
    assert type(lifted) is verdict and audit_verdict(lifted, src, tgt)
