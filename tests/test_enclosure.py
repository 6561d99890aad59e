"""Affine normalization, enclosure outcomes, sampling, membership."""

from __future__ import annotations

import collections
import copy
import importlib
import itertools
import operator
import pickle
import random
import sys
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from enclosures import (
    Add,
    AffineForm,
    BudgetExceededError,
    Div,
    EmptySet,
    Exact,
    ExactInterval,
    ExclusionCertificate,
    Inconclusive,
    InfeasibleTokenError,
    Interval,
    Meas,
    Member,
    Mul,
    Neg,
    NonMember,
    NotAffineError,
    Sub,
    Token,
    UNBOUNDED,
    Unknown,
    affine_witness,
    blind_compare,
    classify,
    effective_intervals,
    enclosure,
    evaluate,
    licensed,
    meas_leaves,
    membership,
    over_approx,
    parse,
    to_affine,
    token_consistent,
    under_approx_samples,
)
from enclosures.cli import main
from enclosures.enclosure import _ONE, _ZERO, GRID_TOO_SMALL, NEGATIVE_BUDGET, _linear_bounds
from enclosures.enclosure import lazy_enclosure
from enclosures.expr import Expr, narrow_box, postorder
from enclosures.semantics import compile_expr
from exprgen import (
    CHAIN_WRAPS,
    D,
    corner_min_max,
    gen_affine,
    gen_any,
    long_affine_text,
    naive_affine,
    naive_bounds,
    naive_samples,
    rand_rational,
    redeclare,
    token_boxes,
)

T = Token("t")
T1, T2 = Token("t1"), Token("t2")

SAME_DIFF = parse("meas(t,[2,5],d) - meas(t,[2,5],d)")
DIST_DIFF = parse("meas(t1,[2,5],d) - meas(t2,[2,5],d)")
SAME_DIV = parse("meas(t,[1,2],d) / meas(t,[1,2],d)")
DIST_DIV = parse("meas(t1,[1,2],d) / meas(t2,[1,2],d)")
SHARED_BG = parse("(meas(ts,[10,11],d) + meas(tb,[1,2],d)) - meas(tb,[1,2],d)")
INFEASIBLE = parse("meas(t,[0,1],d) + meas(t,[2,3],d)")


class TestToAffine:
    def test_cancellation_keeps_zero_coefficient(self):
        f = to_affine(SAME_DIFF)
        assert f.constant == F(0)
        assert f.coeffs == {T: F(0)}
        assert f.boxes == {T: Interval.of(2, 5)}

    def test_scalar_multiple(self):
        f = to_affine(parse("exact(2,d) * meas(t,[1,3],d) + exact(1,d)"))
        assert f.constant == F(1)
        assert f.coeffs == {T: F(2)}

    def test_distinct_division_rejected(self):
        with pytest.raises(NotAffineError):
            to_affine(DIST_DIV)

    def test_measured_product_rejected(self):
        with pytest.raises(NotAffineError):
            to_affine(parse("meas(t1,[1,2],d) * meas(t2,[1,2],d)"))

    def test_division_by_exact_constant(self):
        f = to_affine(parse("meas(t,[1,3],d) / exact(2,d)"))
        assert f.constant == F(0)
        assert f.coeffs == {T: F(1, 2)}

    def test_division_by_exact_zero_folds_to_zero(self):
        # the numerator is not affine, but the quotient is still constant 0
        f = to_affine(parse("meas(t1,[1,2],d) * meas(t2,[1,2],d) / exact(0,d)"))
        assert f.constant == F(0)
        assert set(f.coeffs) == {T1, T2}
        assert all(c == 0 for c in f.coeffs.values())

    def test_identical_subtree_quotient_positive(self):
        f = to_affine(SAME_DIV)
        assert f.constant == F(1)
        assert f.coeffs == {T: F(0)}

    def test_identical_subtree_quotient_negative(self):
        f = to_affine(parse("meas(t,[-4,-2],d) / meas(t,[-4,-2],d)"))
        assert f.constant == F(1)

    def test_identical_subtree_quotient_identically_zero(self):
        f = to_affine(parse("meas(t,[0,0],d) / meas(t,[0,0],d)"))
        assert f.constant == F(0)

    def test_identical_subtree_quotient_straddling_zero_rejected(self):
        with pytest.raises(NotAffineError):
            to_affine(parse("meas(t,[-1,1],d) / meas(t,[-1,1],d)"))

    def test_repeated_token_coefficients_sum(self):
        f = to_affine(parse("meas(t,[1,2],d) + meas(t,[1,2],d)"))
        assert f.coeffs == {T: F(2)}


def _matches_reference_fold(e) -> bool:
    """to_affine(e) equals the reference fold; False when e is not affine."""
    boxes = effective_intervals(e)
    try:
        constant, coeffs = naive_affine(e, boxes)
    except NotAffineError:
        with pytest.raises(NotAffineError):
            to_affine(e)
        return False
    f = to_affine(e)
    assert f == AffineForm(constant, coeffs, boxes)
    assert f.interval == naive_bounds(constant, coeffs, boxes)
    return True


class TestToAffineMatchesReference:
    CASES = {
        "sub-new-token": ("exact(3,d) - meas(t,[1,2],d)", True),
        "sub-new-tokens": ("meas(t,[1,2],d) - (meas(u,[0,1],d) - meas(v,[2,3],d))", True),
        "add-zero": ("meas(t,[1,2],d) + exact(0,d)", True),
        "sub-zero": ("meas(t,[1,2],d) - exact(0,d)", True),
        "zero-sub": ("exact(0,d) - meas(t,[1,2],d)", True),
        "add-nonzero": ("meas(t,[1,2],d) + exact(-5/2,d)", True),
        "zero-scale": ("exact(0,d) * meas(t,[1,2],d)", True),
        "neg": ("-(meas(t,[1,2],d) - meas(u,[1,2],d) + exact(1,d))", True),
        "div-zero": ("meas(t,[1,2],d) / exact(0,d)", True),
        "div-zero-product": ("meas(t,[1,2],d) * meas(u,[1,2],d) / exact(0,d)", True),
        "self-quotient-one": (
            "(meas(t,[1,2],d) + exact(1,d)) / (meas(t,[1,2],d) + exact(1,d))",
            True,
        ),
        "self-quotient-zero": (
            "(meas(t,[1,2],d) - meas(t,[1,2],d)) / (meas(t,[1,2],d) - meas(t,[1,2],d))",
            True,
        ),
        "self-quotient-straddles": ("meas(t,[-1,1],d) / meas(t,[-1,1],d)", False),
        # one token under two intervals: one register, but not a self-quotient
        "same-token-unequal-leaves": ("meas(t1,[-13,-7/4],d) / meas(t1,[-12,-7/4],d)", False),
        "product": ("meas(t,[1,2],d) * meas(u,[1,2],d)", False),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_case(self, name):
        text, affine = self.CASES[name]
        assert _matches_reference_fold(parse(text)) is affine

    @pytest.mark.parametrize("gen", [gen_affine, gen_any], ids=["affine", "any"])
    def test_seeded_corpus(self, gen):
        affine = 0
        for seed in range(400):
            rng = random.Random(seed)
            e = gen(rng, token_boxes(rng), rng.randint(1, 15))
            if seed % 3 == 0:
                e = redeclare(rng, e)  # repeated tokens with differing intervals
            affine += _matches_reference_fold(e)
        assert 0 < affine <= 400

    @pytest.mark.parametrize(
        "terms, ntok, right, wrap",
        [
            (100, 25, False, CHAIN_WRAPS["sum"]),
            (300, 75, False, CHAIN_WRAPS["sum"]),
            (301, 12, True, CHAIN_WRAPS["sum"]),
            (301, 12, True, CHAIN_WRAPS["scaled"]),
            (301, 12, True, CHAIN_WRAPS["divided"]),
            (301, 12, True, CHAIN_WRAPS["negated"]),
        ],
        ids=[
            "sum100",
            "sum300",
            "right-chain300",
            "right-chain300-scaled",
            "right-chain300-divided",
            "right-chain300-negated",
        ],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_long_trees(self, terms, ntok, right, wrap, seed):
        # Repeated tokens in the forms m, -m, c*m, m*c and m/c, as in a
        # long benchmark sum, where the scaling and negation shortcuts fire;
        # in a right-nested chain each level may also scale or negate the rest.
        e = parse(long_affine_text(random.Random(seed), terms, ntok, right, wrap))
        assert _matches_reference_fold(e)

    def test_interval_is_the_corner_min_max(self):
        most = 0
        for seed in range(200):
            rng = random.Random(seed)
            boxes = token_boxes(rng, 6)
            e = gen_affine(rng, boxes, rng.randint(1, 12))
            for t, box in boxes.items():  # every token, scaled, possibly by 0
                e = Add(e, Mul(Exact(rand_rational(rng, -2, 2, 2), D), Meas(t, box, D)))
            f = to_affine(e)
            tokens = list(f.boxes)
            most = max(most, len(tokens))
            values = [
                f.constant + sum(f.coeffs[t] * x for t, x in zip(tokens, corner))
                for corner in itertools.product(
                    *([f.boxes[t].lo, f.boxes[t].hi] for t in tokens)
                )
            ]
            assert f.interval == Interval(min(values), max(values))
        assert most == 6


def _t_form(constant):
    """repr of constant + 1 * t with t's box [1,2]."""
    box = "Interval(lo=Fraction(1, 1), hi=Fraction(2, 1))"
    return (
        f"AffineForm(constant=Fraction({constant}, 1), "
        f"coeffs={{Token(name='t'): Fraction(1, 1)}}, boxes={{Token(name='t'): {box}}})"
    )


class TestDeferredSelfQuotient:
    """A self-quotient is decided on the boxes met so far, which contain the
    final ones; one that straddles 0 there is decided again on the final
    boxes.  Each row's repr or exception is what deciding every quotient on
    the final boxes gives."""

    ROWS = {
        # Straddles on [-1,3]; the last leaf narrows t to [1,2], where it is 1.
        "straddle-then-positive": (
            "meas(t,[-1,3],d)/meas(t,[-1,3],d) + meas(t,[1,2],d)",
            _t_form(1),
        ),
        # Infeasibility wins over the self-quotient met before it.
        "infeasible-after-quotient": (
            "meas(t,[1,2],d)/meas(t,[1,2],d) + meas(t,[5,6],d)",
            (InfeasibleTokenError, "token 't' admits no consistent value"),
        ),
        "straddles-on-final-box": (
            "meas(t,[-1,3],d)/meas(t,[-1,3],d)",
            (NotAffineError, "self-quotient can take both 0 and 1 over the boxes"),
        ),
        "straddle-then-narrowed-across-0": (
            "meas(t,[-1,3],d)/meas(t,[-1,3],d) + meas(t,[-1,1/2],d)",
            (NotAffineError, "self-quotient can take both 0 and 1 over the boxes"),
        ),
        "identically-zero": (
            "(meas(t,[-1,3],d)*exact(0,d))/(meas(t,[-1,3],d)*exact(0,d)) + meas(t,[1,2],d)",
            _t_form(0),
        ),
        # Infeasibility also wins over a measured product before it.
        "infeasible-after-product": (
            "meas(u,[0,1],d) * meas(t,[0,1],d) + meas(t,[2,3],d) + meas(u,[2,3],d)",
            (InfeasibleTokenError, "token 't' admits no consistent value"),
        ),
        # Of two infeasible tokens, the one whose box empties first, left to right.
        "two-infeasible-leftmost": (
            "meas(t,[0,1],d) + meas(t,[2,3],d) + meas(u,[0,1],d) + meas(u,[2,3],d)",
            (InfeasibleTokenError, "token 't' admits no consistent value"),
        ),
        "two-infeasible-interleaved": (
            "meas(t,[0,1],d) + meas(u,[0,1],d) + meas(u,[2,3],d) + meas(t,[5,6],d)",
            (InfeasibleTokenError, "token 'u' admits no consistent value"),
        ),
    }

    @pytest.mark.parametrize("name", list(ROWS))
    def test_row(self, name):
        text, expected = self.ROWS[name]
        if isinstance(expected, str):
            assert repr(to_affine(parse(text))) == expected
        else:
            cls, message = expected
            with pytest.raises(cls) as err:
                to_affine(parse(text))
            assert type(err.value) is cls and str(err.value) == message


class TestOneWalk:
    def test_to_affine_walks_the_tree_once(self, monkeypatch):
        # The one walk of a parsed tree is its parse, which builds the
        # program; the fold and its boxes read the program, so to_affine
        # walks nothing.  Any other tree is walked once, by compile_expr,
        # and a tree whose program exists walks nothing.
        e = parse(long_affine_text(random.Random(0), 100, 25))
        cold = copy.deepcopy(e)  # copying walks, so before the count starts
        compiled = copy.deepcopy(parse(long_affine_text(random.Random(1), 100, 25)))
        walked = []
        for name in ("enclosures.expr", "enclosures.semantics"):
            module = importlib.import_module(name)
            monkeypatch.setattr(module, "postorder", lambda e: walked.append(e) or postorder(e))
        assert not hasattr(importlib.import_module("enclosures.enclosure"), "postorder")
        to_affine(e)
        assert walked == []
        to_affine(cold)
        assert walked == [cold]
        compile_expr(compiled)
        del walked[:]
        to_affine(compiled)
        assert walked == []

    @pytest.mark.parametrize("gen", [gen_affine, gen_any], ids=["affine", "any"])
    def test_boxes_match_effective_intervals(self, gen):
        # Same tokens, boxes, order and first infeasible token: witness
        # environments and reprs are built in this order.
        compared = infeasible = 0
        for seed in range(300):
            rng = random.Random(seed)
            e = gen(rng, token_boxes(rng), rng.randint(1, 15))
            if seed % 3 == 0:
                e = redeclare(rng, e)
            leaves = list(meas_leaves(e))
            if leaves and seed % 4 == 0:  # an occurrence outside its token's box
                leaf = rng.choice(leaves)
                clash = Meas(leaf.token, Interval(leaf.interval.hi + 1, leaf.interval.hi + 2), D)
                e = Add(clash, e) if rng.random() < 0.5 else Add(e, clash)
            try:
                expected = list(effective_intervals(e).items())
            except InfeasibleTokenError as ex:
                with pytest.raises(InfeasibleTokenError) as err:
                    to_affine(e)
                assert err.value.token == ex.token
                infeasible += 1
                continue
            try:
                f = to_affine(e)
            except NotAffineError:
                continue
            assert list(f.boxes.items()) == expected
            compared += 1
        assert compared > 50 and infeasible > 20, (compared, infeasible)


MEMO_TREES = {
    "affine": "meas(t,[1,3],d) * exact(2,d) - meas(u,[0,1],d)",
    "not-affine": "meas(t,[1,2],d) * meas(u,[1,2],d)",
    "infeasible": "meas(t,[0,1],d) + meas(t,[2,3],d)",
    "straddling-self-quotient": "meas(t,[-1,1],d) / meas(t,[-1,1],d)",
}


def _fold_outcome(e):
    """repr of to_affine(e) and its interval, or the error raised, its message and token."""
    try:
        f = to_affine(e)
    except (NotAffineError, InfeasibleTokenError) as ex:
        return ex, type(ex), str(ex), getattr(ex, "token", None)
    return f, repr(f), f.interval


class TestAffineMemo:
    """An operator node keeps its fold: a later `to_affine` folds nothing, and
    no result, copy, pickle or comparison can tell."""

    @pytest.mark.parametrize("name", list(MEMO_TREES))
    def test_second_call_folds_nothing(self, affine_folds, name):
        e = parse(MEMO_TREES[name])
        first = _fold_outcome(e)
        folds = len(affine_folds)
        second = _fold_outcome(e)
        assert len(affine_folds) == folds >= 1
        assert second[1:] == first[1:] and second[0] is not first[0]

    def test_changing_a_result_changes_no_later_fold(self):
        e = parse(MEMO_TREES["affine"])
        f = to_affine(e)
        f.coeffs[Token("t")] = F(99)
        f.coeffs[Token("z")] = F(1)
        f.boxes[Token("u")] = Interval.of(5, 6)
        del f.boxes[Token("t")]
        cold = copy.deepcopy(e)
        assert _fold_outcome(e)[1:] == _fold_outcome(cold)[1:]
        assert enclosure(e) == enclosure(cold) == ExactInterval(Interval.of(1, 6))

    @pytest.mark.parametrize("name", list(MEMO_TREES))
    def test_memo_is_invisible_and_not_copied(self, affine_folds, name):
        e = parse(MEMO_TREES[name])
        before = pickle.dumps(e), repr(e), hash(e)
        outcome = _fold_outcome(e)
        assert (pickle.dumps(e), repr(e), hash(e)) == before
        assert e == parse(MEMO_TREES[name]) == pickle.loads(before[0])
        for cold in (copy.deepcopy(e), copy.copy(e), pickle.loads(pickle.dumps(e))):
            del affine_folds[:]
            assert _fold_outcome(cold)[1:] == outcome[1:]
            assert affine_folds[0] is cold


# --- reference fold -----------------------------------------------------------
#
# `_affine_parts` as the package wrote it when every subtree's coefficients
# were a dict rebuilt at each level, kept verbatim but for its name, so the
# fold read off the compiled program is checked repr for repr against an
# independent text.


def _reference_affine_parts(
    e: Expr, boxes: dict[Token, Interval]
) -> tuple[Fraction | NotAffineError, dict[Token, Fraction], bool]:
    """Fold e bottom-up to (constant, coeffs, straddled), filling in boxes.

    A subtree's coeffs have an entry for each token below it, so it is
    measurement-free exactly when they are empty.  Outside the fragment the
    constant is the NotAffineError saying why, and the coeffs still list
    the tokens, because dividing by an exact zero makes any numerator 0.

    Each measured leaf narrows its token's box as it is met, as in
    `effective_intervals`.  So a self-quotient is decided on boxes that
    contain the final ones, where its image contains its image on the final
    boxes: a value that avoids 0, or is identically 0, there does so on the
    final boxes too.  Only one that straddles 0 may change as later leaves
    narrow a box; `straddled` says one was met, to be folded again.
    """
    done: list[tuple[Fraction | NotAffineError, dict[Token, Fraction]]] = []
    straddled = False
    for node in postorder(e):
        cls, factor = type(node), None
        if cls is Meas:
            narrow_box(boxes, node.token, node.interval)
            c, k = _ZERO, {node.token: _ONE}
        elif cls is Exact:
            c, k = node.value, {}
        elif cls is Neg:
            c, k = done.pop()
            if not isinstance(c, NotAffineError):
                c, k = -c, {t: -v for t, v in k.items()}
        elif cls in (Add, Sub, Mul, Div):
            (cr, kr), (c, k) = done.pop(), done.pop()
            if cls is Add or cls is Sub:
                combine = operator.add if cls is Add else operator.sub
                for t, v in kr.items():  # each pair has one consumer: update in place
                    old = k.get(t)
                    k[t] = (v if cls is Add else -v) if old is None else combine(old, v)
                # A NotAffineError is truthy, and adding an exact 0 changes nothing.
                if cr and not isinstance(c, NotAffineError):
                    c = cr if isinstance(cr, NotAffineError) else combine(c, cr)
            elif cls is Mul and not (k and kr):
                # A measurement-free factor scales the other one.
                c, k, factor = (cr, kr, c) if not k else (c, k, cr)
            elif cls is Div and not kr:
                # Total division: x / 0 = 0 for every x, affine or not.
                c, factor = (_ZERO, _ZERO) if cr == 0 else (c, 1 / cr)
            elif cls is Div and node.lhs == node.rhs:
                # Same subtree above and below: 1 where it is nonzero, 0 where zero.
                if not isinstance(c, NotAffineError):
                    lo, hi = _linear_bounds(c, k, boxes)
                    if lo > 0 or hi < 0:
                        c, k = _ONE, dict.fromkeys(k, _ZERO)
                    elif lo == 0 and hi == 0:
                        c, k = _ZERO, dict.fromkeys(k, _ZERO)
                    else:
                        straddled = True
                        c = NotAffineError(
                            "self-quotient can take both 0 and 1 over the boxes"
                        )
            elif cls is Mul:
                k.update(kr)
                c = NotAffineError("product of two measured subexpressions")
            else:
                k.update(kr)
                c = NotAffineError("measured denominator")
        else:
            raise TypeError(f"not an expression node: {node!r}")
        if factor is not None and not isinstance(c, NotAffineError):
            if c:  # a scaled exact 0 stays 0
                c = factor * c
            # A leaf's coefficient _ONE scales to the factor itself.
            k = {t: factor if v is _ONE else factor * v for t, v in k.items()}
        done.append((c, k))
    constant, coeffs = done[0]
    return constant, coeffs, straddled


def _reference_outcome(e) -> tuple:
    """`_fold_outcome(e)[1:]` by the reference fold, folded again once the
    boxes are final when a self-quotient straddled 0."""
    boxes = {}
    try:
        constant, coeffs, straddled = _reference_affine_parts(e, boxes)
        if straddled:
            constant, coeffs, _ = _reference_affine_parts(e, boxes)
    except InfeasibleTokenError as err:
        return InfeasibleTokenError, str(err), err.token
    if isinstance(constant, NotAffineError):
        return NotAffineError, str(constant), None
    return repr(AffineForm(constant, coeffs, boxes)), Interval(*_linear_bounds(constant, coeffs, boxes))


def _zero(e):
    """e times an exact 0: identically 0, and still measured."""
    return Mul(e, Exact(F(0), D))


def _fold_corpus(count: int):
    """Seeded trees meant to reach every rule of the fold, with a tag each."""
    for seed in range(count):
        rng = random.Random(seed)
        if seed % 50 == 49:  # long chains, left-deep or right-nested
            wrap = list(CHAIN_WRAPS.values())[seed // 50 % 4]
            right = seed // 200 % 2 == 0
            yield "chain", parse(long_affine_text(rng, rng.randint(20, 80), 6, right, wrap))
            continue
        e = (gen_affine, gen_any)[seed % 2](rng, token_boxes(rng), rng.randint(1, 15))
        if seed % 3 == 0:
            e = redeclare(rng, e)  # repeated tokens with differing intervals
        shift = Exact(F(rng.choice((-1, 1)) * 10**6), D)
        tag, e = [
            ("plain", e),
            ("self-quotient", Div(e, e)),  # straddling, definite or zero
            ("sign-definite", Div(Add(e, shift), Add(e, shift))),
            ("identically-zero", Div(_zero(e), _zero(e))),
            ("nested", Div(Add(Div(e, e), e), Add(Div(e, e), e))),
            ("over-exact-zero", Div(Mul(e, e), Exact(F(0), D))),
            ("zero-times-product", Mul(Exact(F(0), D), Mul(e, e))),
        ][seed % 7]
        leaves = list(meas_leaves(e))
        if leaves and seed % 4 == 0:  # an occurrence outside its token's box
            leaf = rng.choice(leaves)
            clash = Meas(leaf.token, Interval(leaf.interval.hi + 1, leaf.interval.hi + 2), D)
            e = Add(clash, e) if rng.random() < 0.5 else Add(e, clash)
            tag = "clash"
        yield tag, e


class TestFoldMatchesReference:
    def test_seeded_corpus(self):
        seen = collections.Counter()
        for tag, e in _fold_corpus(3500):
            got = _fold_outcome(e)[1:]
            assert got == _reference_outcome(e), e
            seen[tag] += 1
            seen["affine" if type(got[0]) is str else got[0].__name__] += 1
            if got[0] is NotAffineError:  # each reason, a straddling self-quotient included
                seen[got[1]] += 1
        assert min(seen.values()) > 30, seen

    def test_perfbench_sides(self, perfbench_gen):
        # Every side perfbench times for two seeds, its 300-term sums included.
        gen = perfbench_gen
        for seed, workload in itertools.product((1, 2), (gen.suite, gen.products, gen.wide)):
            for op in workload(seed):
                for text in () if op.probe else (op.src, op.tgt):
                    e = parse(text)
                    assert _fold_outcome(e)[1:] == _reference_outcome(e), text


class TestLinearFold:
    """`to_affine` does O(1) work per node on every shape, so a right-nested
    chain costs about what a left-deep sum of the same size does, counted in
    profiler events, and its one adjoint sweep goes over each step once.  A
    fold that rebuilds the nested coefficients at each level is quadratic in
    the depth; `TestFlattenWork` doubles each chain in profiler events too."""

    @staticmethod
    def _events(right: bool) -> int:
        e = parse(long_affine_text(random.Random(800), 800, 200, right))
        return _profiler_events(lambda: to_affine(e))

    @pytest.mark.parametrize("wrap", list(CHAIN_WRAPS.values()), ids=list(CHAIN_WRAPS))
    def test_right_chain_doubling(self, sweeps, wrap):
        # With no self-quotient the fold makes one sweep, over the steps of
        # the whole program and the registers it reaches: doubling the depth
        # at most doubles them, give or take 10%.
        visited = []
        for depth in (100, 200, 400, 800):
            e = parse(long_affine_text(random.Random(depth), depth, depth // 4, True, wrap))
            sweeps.clear()
            to_affine(e)
            assert len(sweeps) == 1, sweeps
            visited.append(sum(steps + tokens for steps, tokens in sweeps))
        assert all(b <= 2.2 * a for a, b in zip(visited, visited[1:])), visited

    def test_right_chain_against_left_deep_sum(self):
        # Only the sum chain: a scaled, divided or negated level brings a
        # multiplier of its own, which a left-deep sum has no counterpart for.
        # At depth 800 they read about 78 000 and 75 000 events.
        right, left = self._events(True), self._events(False)
        assert right <= 2 * left, (right, left)


def _mixed_chain(rng: random.Random, depth: int) -> str:
    """A right-nested chain whose levels mix sums, products and quotients of
    measured sides, some scaled, negated or divided by an exact 0."""
    text = ""
    for _ in range(depth + 1):
        k = rng.randrange(6)
        leaf = f"meas(t{k},[{k},{k + 2}],d)"
        text = f"{leaf} {rng.choice('+-*/')} ({text})" if text else leaf
        wrap = rng.random()
        if wrap < 0.1:
            text = f"({text}) / exact(0,d)"
        elif wrap < 0.2:
            text = f"exact({rng.choice(['2', '-3', '1/2'])},d) * ({text})"
        elif wrap < 0.25:
            text = f"-({text})"
    return text


def _right_product(factors: int) -> Expr:
    """t0 * (t1 * (... * t(factors-1))) over distinct tokens."""
    leaves = [f"meas(t{i},[1,2],d)" for i in range(factors)]
    return parse(" * (".join(leaves) + ")" * (factors - 1))


def _profiler_events(run) -> int:
    """Profiler events (calls, returns and builtin calls) while run() runs:
    a work count that does not depend on the machine."""
    events = [0]

    def count(frame, event, arg):
        events[0] += 1

    sys.setprofile(count)
    try:
        run()
    except NotAffineError:
        pass
    finally:
        sys.setprofile(None)
    return events[0]


def _line_events(run) -> int:
    """Lines run in `enclosures.enclosure` while run() runs: a work count
    that does not depend on the machine, loops without calls included."""
    events = [0]
    path = sys.modules["enclosures.enclosure"].__file__

    def line(frame, event, arg):
        events[0] += 1
        return line

    sys.settrace(lambda frame, event, arg: line if frame.f_code.co_filename == path else None)
    try:
        run()
    finally:
        sys.settrace(None)
    return events[0]


class TestFlattenWork:
    """The work of flattening a tree into its linear form: the fold sums
    integer pairs and makes one Fraction per token, it is linear in the
    tree's size off the fragment too, and a self-quotient's sweep goes back
    over its own operand's steps only."""

    @pytest.mark.parametrize("wrap", list(CHAIN_WRAPS.values()), ids=list(CHAIN_WRAPS))
    def test_no_fraction_arithmetic(self, fraction_ops, wrap):
        e = parse(long_affine_text(random.Random(800), 800, 200, True, wrap))
        fraction_ops.clear()
        to_affine(e)
        assert not fraction_ops, fraction_ops

    def test_right_nested_product_doubling(self):
        events = []
        for factors in (250, 500, 1000, 2000):
            e = _right_product(factors)
            events.append(_profiler_events(lambda: to_affine(e)))
        assert all(b <= 2.2 * a for a, b in zip(events, events[1:])), events

    @pytest.mark.parametrize("wrap", list(CHAIN_WRAPS.values()), ids=list(CHAIN_WRAPS))
    def test_right_chain_doubling(self, wrap):
        # Doubling the depth at most doubles the work, give or take 10%; a
        # fold quadratic in the depth grows about 4x.
        events = []
        for depth in (100, 200, 400, 800):
            e = parse(long_affine_text(random.Random(depth), depth, depth // 4, True, wrap))
            events.append(_profiler_events(lambda: to_affine(e)))
        assert all(b <= 2.2 * a for a, b in zip(events, events[1:])), events

    def test_self_quotient_sweeps_doubling(self, sweeps):
        # A sweep over the whole program at each quotient took 32 s at 4000.
        visited = []
        for terms in (500, 1000, 2000, 4000):
            quotients = [f"meas(t{k},[1,2],d) / meas(t{k},[1,2],d)" for k in range(terms)]
            e = parse(" + ".join(quotients))
            sweeps.clear()
            assert to_affine(e).constant == terms
            visited.append(sum(steps + tokens for steps, tokens in sweeps))
        assert all(b <= 2.2 * a for a, b in zip(visited, visited[1:])), visited

    SHARED = {
        "leaf": "meas(t,[1,2],d) / meas(t,[1,2],d)",
        "sum": "(meas(t,[1,2],d) + meas(u,[1,2],d)) / (meas(t,[1,2],d) + meas(u,[1,2],d))",
    }

    @pytest.mark.parametrize("quotient", list(SHARED.values()), ids=list(SHARED))
    def test_shared_token_self_quotients_doubling(self, sweeps, quotient):
        # Every quotient reads the same token registers, so a fold that scans
        # back over register numbers for its operand's steps is quadratic: one
        # took 2.6 s at 4000 leaf quotients.  Lines run in the module count
        # such a scan, which no sweep is handed.
        visited, lines = [], []
        for terms in (500, 1000, 2000, 4000):
            e = parse(" + ".join([quotient] * terms))
            sweeps.clear()
            lines.append(_line_events(lambda: to_affine(e)))
            assert to_affine(e).constant == terms
            visited.append(sum(steps + reached for steps, reached in sweeps))
        assert all(b <= 2.2 * a for a, b in zip(visited, visited[1:])), visited
        assert all(b <= 2.2 * a for a, b in zip(lines, lines[1:])), lines

    # the 3000-level chain: no step of either fold recurses
    CHAINS = [(seed, (5, 40, 300)[seed % 3]) for seed in range(40)] + [(0, 3000)]

    @pytest.mark.parametrize("seed, depth", CHAINS)
    def test_mixed_chains_match_reference(self, seed, depth):
        e = parse(_mixed_chain(random.Random(seed), depth))
        assert _fold_outcome(e)[1:] == _reference_outcome(e)


class TestAffineEnclosure:
    def test_same_token_difference(self):
        out = enclosure(SAME_DIFF)
        assert out == ExactInterval(Interval.point(F(0)))

    def test_distinct_token_difference(self):
        out = enclosure(DIST_DIFF)
        assert out == ExactInterval(Interval.of(-3, 3))

    def test_shared_background(self):
        out = enclosure(SHARED_BG)
        assert out == ExactInterval(Interval.of(10, 11))

    @settings(max_examples=60)
    @given(st.integers(0, 10**9))
    def test_matches_corner_oracle(self, seed):
        rng = random.Random(seed)
        e = gen_affine(rng, token_boxes(rng), rng.randint(1, 12))
        lo, hi = corner_min_max(e)
        assert enclosure(e) == ExactInterval(Interval(lo, hi))


class TestAffineWitness:
    @settings(max_examples=40)
    @given(st.integers(0, 10**9), st.integers(0, 6))
    def test_interior_rationals_are_attained(self, seed, numerator):
        rng = random.Random(seed)
        e = gen_affine(rng, token_boxes(rng), rng.randint(1, 12))
        iv = enclosure(e).interval
        q = iv.lo + (iv.hi - iv.lo) * F(numerator, 6)
        env = affine_witness(e, q)
        assert env is not None
        assert token_consistent(env, e)
        assert evaluate(env, e) == q

    def test_outside_returns_none(self):
        assert affine_witness(SAME_DIFF, F(1)) is None

    def test_q_converts_as_an_exact_value(self):
        assert evaluate(affine_witness(DIST_DIFF, 1), DIST_DIFF) == 1
        with pytest.raises(TypeError, match=r"got float 0\.5$"):
            affine_witness(DIST_DIFF, 0.5)

    def test_end_witnesses_are_box_corners(self, perfbench_gen, fraction_ops):
        """The refute rung offers an end of an affine target's interval, which
        a corner of the token boxes attains: its witness is read off the boxes
        with no Fraction arithmetic.  perfbench's `wide` sum300-shift pair is
        refuted both ways, each time with a 75-token witness."""
        (op,) = [op for op in perfbench_gen.wide(1) if op.label == "sum300-shift"]
        src, tgt = parse(op.src), parse(op.tgt)
        fraction_ops.clear()
        cls = classify(src, tgt)
        assert not fraction_ops, fraction_ops
        for verdict, target in (cls.forward, tgt), (cls.backward, src):
            boxes = effective_intervals(target)
            assert len(verdict.env.bindings) == len(boxes) == 75
            for t, value in verdict.env.bindings.items():
                assert value in (boxes[t].lo, boxes[t].hi), t


class TestOverApprox:
    def test_dependency_problem_visible(self):
        assert over_approx(SAME_DIFF) == Interval.of(-3, 3)

    def test_positive_division(self):
        assert over_approx(DIST_DIV) == Interval(F(1, 2), F(2))

    def test_zero_containing_denominator(self):
        assert over_approx(parse("exact(1,d) / meas(t,[-1,1],d)")) is UNBOUNDED

    @settings(max_examples=60)
    @given(st.integers(0, 10**9))
    def test_contains_all_samples(self, seed):
        rng = random.Random(seed)
        e = gen_any(rng, token_boxes(rng, max_tokens=3), rng.randint(1, 10))
        over = over_approx(e)
        if over is UNBOUNDED:
            return
        for _, value in under_approx_samples(e, 3, budget=10_000):
            assert over.contains(value)


def _sampled_grid(box: Interval, n: int) -> list[F]:
    """The values token t takes in the samples of a lone `meas(t, box)` on a
    grid of n points per token, in increasing order."""
    return sorted(env.value(T) for env, _ in under_approx_samples(Meas(T, box, D), n))


class TestGridValues:
    def test_endpoints_plus_interiors(self):
        assert _sampled_grid(Interval.of(0, 4), 5) == [F(0), F(1), F(2), F(3), F(4)]
        assert _sampled_grid(Interval.of(2, 5), 2) == [F(2), F(5)]
        assert _sampled_grid(Interval.of(0, 1), 3) == [F(0), F(1, 2), F(1)]

    def test_degenerate_box(self):
        assert _sampled_grid(Interval.point(F(3)), 5) == [F(3)]

    def test_int_ends_give_fractions(self):
        values = _sampled_grid(Interval(1, 2), 3)
        assert values == [F(1), F(3, 2), F(2)]
        assert all(type(v) is F for v in values)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            _sampled_grid(Interval.of(0, 1), 1)

    def test_refinement_chain_nests(self):
        # evenly spaced grids nest exactly when (m-1) divides (n-1)
        box = Interval(F(-1, 3), F(7, 2))
        previous = set(_sampled_grid(box, 2))
        for n in (3, 5, 9):
            current = set(_sampled_grid(box, n))
            assert previous <= current
            previous = current


ONE = parse("exact(1,d)")
TOKEN = parse("meas(t,[1,2],d)")

# Every entry that takes grid_points, on sides with and without tokens.
GRID_CALLS = {
    "classify-token-vs-exact": lambda n: classify(TOKEN, ONE, grid_points=n),
    "classify-same-side": lambda n: classify(SAME_DIFF, SAME_DIFF, grid_points=n),
    "licensed-exact-sides": lambda n: licensed(ONE, parse("exact(2,d)"), grid_points=n),
    "licensed-same-side": lambda n: licensed(ONE, ONE, grid_points=n),
    "enclosure-affine": lambda n: enclosure(TOKEN, n),
    "enclosure-product": lambda n: enclosure(parse("meas(t,[1,2],d) * meas(t,[1,2],d)"), n),
    "enclosure-infeasible": lambda n: enclosure(INFEASIBLE, n),
    "lazy-enclosure-exact": lambda n: lazy_enclosure(ONE, n),
    "membership-exact": lambda n: membership(ONE, 1, grid_points=n),
    "blind-compare": lambda n: blind_compare(SAME_DIFF, DIST_DIFF, ONE, grid_points=n),
    "under-approx-exact": lambda n: under_approx_samples(ONE, n),
    "under-approx-infeasible": lambda n: under_approx_samples(INFEASIBLE, n),
    "grid-values": lambda n: _sampled_grid(Interval.of(0, 1), n),
}


class TestGridPointsChecked:
    """Fewer than 2 grid points per token is refused at every entry, whatever
    its sides are, with the one message the CLI's --grid gives too."""

    @pytest.mark.parametrize("name", list(GRID_CALLS))
    @pytest.mark.parametrize("n", [1, 0, -5])
    def test_too_few_points_are_refused(self, name, n):
        with pytest.raises(ValueError) as err:
            GRID_CALLS[name](n)
        assert str(err.value) == GRID_TOO_SMALL == "grid needs at least 2 points per token"

    @pytest.mark.parametrize("name", list(GRID_CALLS))
    def test_two_points_are_enough(self, name):
        GRID_CALLS[name](2)

    @pytest.mark.parametrize("name", list(GRID_CALLS))
    @pytest.mark.parametrize("n", [3.0, "3"])
    def test_non_integers_are_refused(self, name, n):
        with pytest.raises(TypeError):
            GRID_CALLS[name](n)

    def test_the_cli_gives_the_same_message(self, capsys):
        assert main(["demo", "--family", "division", "--mode", "same", "--grid", "1"]) == 2
        assert capsys.readouterr().err.endswith(f"argument --grid: {GRID_TOO_SMALL}\n")


# Every entry that takes a budget, on sides with and without tokens; each
# call gets cold copies, so it has no program or fold to start from.
cold = copy.deepcopy
BUDGET_CALLS = {
    "classify-token-vs-exact": lambda b: classify(cold(TOKEN), cold(ONE), budget=b),
    "classify-same-side": lambda b: classify(cold(SAME_DIFF), cold(SAME_DIFF), budget=b),
    "licensed-exact-sides": lambda b: licensed(cold(ONE), Exact(F(2), D), budget=b),
    "licensed-same-side": lambda b: licensed(cold(ONE), cold(ONE), budget=b),
    "enclosure-affine": lambda b: enclosure(cold(TOKEN), budget=b),
    "enclosure-product": lambda b: enclosure(Mul(cold(TOKEN), cold(TOKEN)), budget=b),
    "enclosure-infeasible": lambda b: enclosure(cold(INFEASIBLE), budget=b),
    "lazy-enclosure-exact": lambda b: lazy_enclosure(cold(ONE), budget=b),
    "membership-exact": lambda b: membership(cold(ONE), 1, budget=b),
    "blind-compare": lambda b: blind_compare(*map(cold, (SAME_DIFF, DIST_DIFF, ONE)), budget=b),
    "under-approx-exact": lambda b: under_approx_samples(cold(ONE), budget=b),
    "under-approx-infeasible": lambda b: under_approx_samples(cold(INFEASIBLE), budget=b),
}


class TestBudgetChecked:
    """A negative or non-integer budget is refused at every entry, whatever
    its sides are, before any program is built or side folded, with the one
    message the CLI's --budget gives too."""

    @pytest.mark.parametrize("name", list(BUDGET_CALLS))
    @pytest.mark.parametrize("budget", [-1, -5])
    def test_negative_budgets_are_refused(self, compiles, affine_folds, name, budget):
        with pytest.raises(ValueError) as err:
            BUDGET_CALLS[name](budget)
        assert str(err.value) == NEGATIVE_BUDGET == "budget must be nonnegative"
        assert compiles == affine_folds == []

    @pytest.mark.parametrize("name", list(BUDGET_CALLS))
    @pytest.mark.parametrize("budget", [2.5, "10", None])
    def test_non_integers_are_refused(self, compiles, affine_folds, name, budget):
        with pytest.raises(TypeError):
            BUDGET_CALLS[name](budget)
        assert compiles == affine_folds == []

    @pytest.mark.parametrize("name", list(BUDGET_CALLS))
    def test_zero_is_a_budget(self, name):
        try:
            BUDGET_CALLS[name](0)
        except BudgetExceededError as err:  # a grid of one environment is past it
            assert err.budget == 0

    def test_the_cli_gives_the_same_message(self, capsys):
        assert main(["demo", "--family", "division", "--mode", "same", "--budget", "-1"]) == 2
        assert capsys.readouterr().err.endswith(f"argument --budget: {NEGATIVE_BUDGET}\n")


class TestUnderApproxSamples:
    def test_distinct_difference_corners(self):
        values = {v for _, v in under_approx_samples(DIST_DIFF, 2)}
        assert values == {F(0), F(3), F(-3)}

    def test_same_token_always_zero(self):
        for grid in (2, 3, 5):
            assert {v for _, v in under_approx_samples(SAME_DIFF, grid)} == {F(0)}

    def test_infeasible_gives_empty(self):
        assert under_approx_samples(INFEASIBLE, 3) == []

    def test_corners_come_first(self):
        samples = under_approx_samples(DIST_DIFF, 3)
        corner_values = [v for _, v in samples[:4]]
        assert corner_values == [F(0), F(-3), F(3), F(0)]
        assert len(samples) == 9

    def test_exact_expression_single_sample(self):
        samples = under_approx_samples(parse("exact(7,d)"), 5)
        assert len(samples) == 1
        env, value = samples[0]
        assert value == F(7) and not env.bindings

    def test_budget_exceeded_carries_partial(self):
        with pytest.raises(BudgetExceededError) as err:
            under_approx_samples(DIST_DIFF, 5, budget=3)
        assert err.value.required == 25
        assert err.value.budget == 3
        assert len(err.value.partial) == 3

    def test_samples_are_consistent_witnesses(self):
        for env, value in under_approx_samples(DIST_DIV, 3):
            assert token_consistent(env, DIST_DIV)
            assert evaluate(env, DIST_DIV) == value

    def test_monotone_refinement_on_nesting_grids(self):
        previous: set = set()
        for grid in (2, 3, 5, 9):
            current = {v for _, v in under_approx_samples(DIST_DIV, grid)}
            assert previous <= current
            previous = current


def _sampled(e, grid_points, budget):
    """Samples, or (required, partial) when the budget cuts the grid."""
    try:
        return under_approx_samples(e, grid_points, budget)
    except BudgetExceededError as ex:
        return ex.required, ex.partial


def _reference(e, grid_points, budget):
    try:
        return naive_samples(e, grid_points, budget)
    except BudgetExceededError as ex:
        return ex.required, ex.partial


class TestUnderApproxMatchesReference:
    """The compiled, lazily enumerated sampler agrees with a naive one."""

    CASES = [
        # repeated tokens under different declared intervals
        "meas(t,[0,4],d) * meas(u,[-1,1],d) + meas(t,[1,6],d) * meas(u,[-3,1/2],d)",
        # zero-containing denominator that the grid hits exactly
        "meas(t,[-1,1],d) / meas(u,[-2,2],d)",
        "(meas(a,[1,3],d) + exact(2,d)) / (meas(b,[-1,1],d) - meas(a,[1,3],d) + exact(2,d))",
        # degenerate and infeasible boxes, and no tokens at all
        "meas(t,[2,2],d) * meas(u,[0,3],d)",
        "meas(t,[0,1],d) * meas(t,[2,3],d)",
        "exact(3,d) / exact(0,d)",
    ]

    @pytest.mark.parametrize("text", CASES)
    @pytest.mark.parametrize("grid", [2, 3, 5])
    @pytest.mark.parametrize("budget", [1, 4, 7, 100_000])
    def test_fixed_cases(self, text, grid, budget):
        e = parse(text)
        assert _sampled(e, grid, budget) == _reference(e, grid, budget)

    def test_denominator_zero_is_sampled(self):
        samples = under_approx_samples(parse("meas(t,[-1,1],d) / meas(u,[-2,2],d)"), 5)
        assert any(env.value(Token("u")) == 0 and v == 0 for env, v in samples)

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_corpus(self, seed):
        rng = random.Random(seed)
        boxes = token_boxes(rng)
        e = redeclare(rng, gen_any(rng, boxes, rng.randint(3, 11)))
        for grid, budget in [(2, 100_000), (3, 100_000), (4, 5), (3, rng.randint(1, 30))]:
            assert _sampled(e, grid, budget) == _reference(e, grid, budget), (grid, budget)

    def test_huge_grid_is_enumerated_lazily(self):
        e = parse("meas(a,[1,2],d) * meas(b,[1,3],d)")
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as err:
                under_approx_samples(e, 200_000, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.required == 200_000**2
        assert len(err.value.partial) == 10
        assert peak < 1 << 20


class TestEnclosure:
    def test_exact_leaf(self):
        assert enclosure(parse("exact(7,d)")) == ExactInterval(Interval.point(F(7)))

    def test_affine_path(self):
        assert enclosure(DIST_DIFF) == ExactInterval(Interval.of(-3, 3))

    def test_int_divisor_stays_exact(self):
        e = Div(Meas(T, Interval(F(1), F(2)), D), Exact(3, D))
        assert enclosure(e) == ExactInterval(Interval(F(1, 3), F(2, 3)))

    def test_non_affine_is_unknown(self):
        out = enclosure(DIST_DIV)
        assert isinstance(out, Unknown)
        assert out.over == Interval(F(1, 2), F(2))
        values = {v for _, v in out.under}
        assert {F(1), F(2), F(1, 2)} <= values
        assert not out.truncated

    def test_infeasible_is_empty(self):
        out = enclosure(INFEASIBLE)
        assert out == EmptySet(T)

    def test_budget_truncation_flagged(self):
        out = enclosure(DIST_DIV, grid_points=5, budget=3)
        assert isinstance(out, Unknown)
        assert out.truncated
        assert len(out.under) == 3

    def test_never_claims_exact_off_affine_path(self):
        # hull(under) == over here, yet interior attainability is unproven
        e = parse("meas(t1,[1,2],d) * meas(t2,[1,2],d)")
        out = enclosure(e)
        assert isinstance(out, Unknown)

    @settings(max_examples=60)
    @given(st.integers(0, 10**9))
    def test_empty_iff_grid_finds_nothing(self, seed):
        rng = random.Random(seed)
        boxes = token_boxes(rng, max_tokens=2)
        e = gen_any(rng, boxes, rng.randint(1, 8))
        out = enclosure(e, grid_points=3, budget=10_000)
        samples = under_approx_samples(e, 3, budget=10_000)
        if isinstance(out, EmptySet):
            assert samples == []
        else:
            assert samples != []


class TestMembership:
    def test_zero_in_same_token_difference(self):
        res = membership(SAME_DIFF, F(0))
        assert isinstance(res, Member)
        assert res.env.value(T) == F(2)

    def test_three_in_distinct_difference(self):
        res = membership(DIST_DIFF, F(3))
        assert isinstance(res, Member)
        assert res.env.value(T1) == F(5)
        assert res.env.value(T2) == F(2)

    def test_one_not_in_same_token_difference(self):
        res = membership(SAME_DIFF, F(1))
        assert isinstance(res, NonMember)
        assert res.certificate.kind == "exact-interval"
        assert res.certificate.bounds == Interval.point(F(0))

    def test_empty_enclosure_excludes_everything(self):
        res = membership(INFEASIBLE, F(0))
        assert isinstance(res, NonMember)
        assert res.certificate.kind == "empty"
        assert res.certificate.excludes(F(0))

    def test_over_approx_refutation(self):
        res = membership(DIST_DIV, F(10))
        assert isinstance(res, NonMember)
        assert res.certificate.kind == "over-approx"

    def test_sampled_member(self):
        res = membership(DIST_DIV, F(2))
        assert isinstance(res, Member)
        assert evaluate(res.env, DIST_DIV) == F(2)

    @pytest.mark.parametrize("e", [DIST_DIFF, DIST_DIV], ids=["affine", "sampled"])
    def test_q_converts_as_an_exact_value(self, e):
        for q in (1, F(1, 2)):
            res = membership(e, q)
            assert isinstance(res, Member) and type(res.value) is F and res.value == q
            assert evaluate(res.env, e) == q
        with pytest.raises(TypeError, match=r"got float 0\.5$"):
            membership(e, 0.5)

    def test_inconclusive_interior(self):
        # 7/5 is inside the over bounds but not on the default grid
        res = membership(DIST_DIV, F(7, 5), grid_points=3)
        assert isinstance(res, Inconclusive)

    def test_point_outside_over_draws_nothing(self, env_draws):
        res = membership(DIST_DIV, F(10))
        assert res == NonMember(ExclusionCertificate("over-approx", over_approx(DIST_DIV)))
        assert env_draws == []

    def test_inconclusive_outcomes_are_full_enclosures(self):
        seen = truncated = 0
        for seed in range(60):
            rng = random.Random(seed)
            e = gen_any(rng, token_boxes(rng, 3), rng.randint(3, 9))
            over = over_approx(e)
            if not isinstance(over, Interval):
                continue
            for grid, budget in itertools.product((3, 4), (10, 2000)):
                for k in range(1, 7):
                    q = over.lo + (over.hi - over.lo) * F(k, 7)
                    res = membership(e, q, grid, budget)
                    if isinstance(res, Inconclusive):
                        assert res.outcome == enclosure(e, grid, budget)
                        seen += 1
                        truncated += getattr(res.outcome, "truncated", False)
        assert seen and truncated, (seen, truncated)
