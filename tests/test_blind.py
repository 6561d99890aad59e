"""Token erasure, blind interval semantics, and the comparator."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from enclosures import (
    Add,
    BlindMeas,
    Bounds,
    Div,
    Exact,
    Interval,
    Meas,
    Mul,
    Neg,
    RewriteClass,
    Sub,
    Token,
    UNBOUNDED,
    Unbounded,
    blind_compare,
    blind_enclosure,
    forget_tokens,
    format_blind,
    over_approx,
    parse,
    tokens_of,
    under_approx_samples,
)
from enclosures.expr import postorder
from exprgen import D, gen_any, token_boxes

I25 = Interval.of(2, 5)
I12 = Interval.of(1, 2)


# --- reference interval arithmetic -------------------------------------------
#
# The five operators as the package wrote them before they became one table
# in enclosures.enclosure, kept verbatim so the table is checked against an
# independent text rather than against itself.


def bounds_add(a: Bounds, b: Bounds) -> Bounds:
    if isinstance(a, Unbounded) or isinstance(b, Unbounded):
        return UNBOUNDED
    return Interval(a.lo + b.lo, a.hi + b.hi)


def bounds_sub(a: Bounds, b: Bounds) -> Bounds:
    if isinstance(a, Unbounded) or isinstance(b, Unbounded):
        return UNBOUNDED
    return Interval(a.lo - b.hi, a.hi - b.lo)


def bounds_neg(a: Bounds) -> Bounds:
    if isinstance(a, Unbounded):
        return UNBOUNDED
    return Interval(-a.hi, -a.lo)


def bounds_mul(a: Bounds, b: Bounds) -> Bounds:
    if isinstance(a, Unbounded) or isinstance(b, Unbounded):
        return UNBOUNDED
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Interval(min(products), max(products))


def bounds_div(a: Bounds, b: Bounds) -> Bounds:
    if isinstance(a, Unbounded) or isinstance(b, Unbounded):
        return UNBOUNDED
    if b.lo == 0 and b.hi == 0:
        # Total division: everything over exactly zero collapses to zero.
        return Interval.point(0)
    if b.lo <= 0 <= b.hi:
        # Denominator values arbitrarily close to zero: no finite bounds.
        return UNBOUNDED
    quotients = (a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi)
    return Interval(min(quotients), max(quotients))


REFERENCE = {Add: bounds_add, Sub: bounds_sub, Mul: bounds_mul, Div: bounds_div}


def reference_bounds(e):
    """Interval image of a token-level tree, every occurrence independent."""
    match e:
        case Exact(value, _):
            return Interval.point(value)
        case Meas(_, interval, _):
            return interval
        case Neg(operand):
            return bounds_neg(reference_bounds(operand))
        case Add(l, r) | Sub(l, r) | Mul(l, r) | Div(l, r):
            return REFERENCE[type(e)](reference_bounds(l), reference_bounds(r))
    raise TypeError(e)


class TestForgetTokens:
    def test_same_and_distinct_erase_equally(self):
        same = parse("meas(t,[2,5],d) - meas(t,[2,5],d)")
        distinct = parse("meas(t1,[2,5],d) - meas(t2,[2,5],d)")
        assert forget_tokens(same) == forget_tokens(distinct)
        assert forget_tokens(same) == Sub(BlindMeas(I25, D), BlindMeas(I25, D))

    def test_exact_leaf(self):
        # An exact leaf has no token to forget, so erasure keeps the leaf itself.
        leaf = Exact(F(0), D)
        assert forget_tokens(leaf) is leaf
        e = parse("exact(1/2,d) * meas(t,[1,2],d) - -exact(3,m)")
        exact = [node for node in postorder(e) if type(node) is Exact]
        kept = [node for node in postorder(forget_tokens(e)) if type(node) is Exact]
        assert len(exact) == 2 and all(a is b for a, b in zip(kept, exact, strict=True))

    def test_homomorphic_on_negation(self):
        e = Neg(Meas(Token("t"), I12, D))
        assert forget_tokens(e) == Neg(BlindMeas(I12, D))

    @pytest.mark.parametrize("leaf", [None, 3, Token("t"), BlindMeas(I12, D)], ids=repr)
    def test_a_non_node_raises_type_error(self, leaf):
        for tree in (leaf, Neg(leaf), Add(Exact(F(1), D), leaf)):
            with pytest.raises(TypeError, match="^not an expression node: "):
                forget_tokens(tree)

    def test_no_tokens_survive(self):
        e = parse("meas(alpha,[0,1],d) * (meas(beta,[0,1],d) + exact(2,d))")
        rendered = format_blind(forget_tokens(e))
        assert "alpha" not in rendered
        assert "beta" not in rendered


class TestBlindEnclosure:
    def test_difference(self):
        b = Sub(BlindMeas(I25, D), BlindMeas(I25, D))
        assert blind_enclosure(b) == Interval.of(-3, 3)

    def test_positive_division(self):
        b = Div(BlindMeas(I12, D), BlindMeas(I12, D))
        assert blind_enclosure(b) == Interval(F(1, 2), F(2))

    def test_exact_leaf_is_singleton(self):
        assert blind_enclosure(Exact(F(0), D)) == Interval.point(F(0))

    @pytest.mark.parametrize("value, point", [(3, F(3))])
    def test_exact_leaf_value_converts_as_interval_point(self, value, point):
        bounds = blind_enclosure(Exact(value, D))
        assert bounds == Interval.point(value) == Interval.point(point)
        assert type(bounds.lo) is F and type(bounds.hi) is F

    @pytest.mark.parametrize(
        "leaf", [None, 3, F(1, 2), "exact(1,d)", Interval.of(1, 2), Token("t")], ids=repr
    )
    def test_a_non_node_raises_type_error_in_both_folds(self, leaf):
        for bound in (over_approx, blind_enclosure):
            with pytest.raises(TypeError):
                bound(leaf)
            with pytest.raises(TypeError):
                bound(Neg(leaf))

    def test_zero_containing_denominator_unbounded(self):
        b = Div(Exact(F(1), D), BlindMeas(Interval.of(-1, 1), D))
        assert blind_enclosure(b) is UNBOUNDED

    def test_degenerate_zero_denominator_total_division(self):
        b = Div(BlindMeas(I12, D), Exact(F(0), D))
        assert blind_enclosure(b) == Interval.point(F(0))

    def test_unbounded_propagates(self):
        inner = Div(Exact(F(1), D), BlindMeas(Interval.of(0, 1), D))
        assert blind_enclosure(Add(inner, Exact(F(5), D))) is UNBOUNDED
        assert blind_enclosure(Neg(inner)) is UNBOUNDED

    @pytest.mark.parametrize("op", [Add, Sub, Mul, Div])
    @pytest.mark.parametrize("other", ["0", "5", "[-1,2]", "[1,2]"])
    def test_unbounded_operand_in_either_position(self, op, other):
        inner = parse("exact(1,d) / meas(z,[0,1],d)")
        leaf = parse(f"exact({other},d)" if other[0] != "[" else f"meas(o,{other},d)")
        for e in (op(inner, leaf), op(leaf, inner), Neg(inner)):
            assert over_approx(e) is UNBOUNDED
            assert blind_enclosure(forget_tokens(e)) is UNBOUNDED
            assert reference_bounds(e) is UNBOUNDED

    def test_product_of_mixed_signs(self):
        b = Mul(BlindMeas(Interval.of(-2, 3), D), BlindMeas(Interval.of(-1, 4), D))
        assert blind_enclosure(b) == Interval.of(-8, 12)


class TestAgainstEnclosureModule:
    @settings(max_examples=80)
    @given(st.integers(0, 10**9))
    def test_over_approx_is_blind_enclosure(self, seed):
        rng = random.Random(seed)
        e = gen_any(rng, token_boxes(rng), rng.randint(1, 12))
        assert over_approx(e) == blind_enclosure(forget_tokens(e)) == reference_bounds(e)

    def test_seeded_corpus_matches_reference(self):
        # Boxes are drawn from [-10, 10], so many denominators straddle 0.
        straddling = bounded_quotients = 0
        for seed in range(400):
            rng = random.Random(seed)
            e = gen_any(rng, token_boxes(rng), rng.randint(1, 12))
            expected = reference_bounds(e)
            assert over_approx(e) == expected, seed
            assert blind_enclosure(forget_tokens(e)) == expected, seed
            for node in postorder(e):
                if isinstance(node, Div):
                    den = reference_bounds(node.rhs)
                    if den is UNBOUNDED or den.lo < 0 < den.hi:
                        straddling += 1
                    elif reference_bounds(node) is not UNBOUNDED:
                        bounded_quotients += 1
        assert straddling > 20 and bounded_quotients > 20

    @settings(max_examples=60)
    @given(st.integers(0, 10**9))
    def test_token_renaming_invariance(self, seed):
        rng = random.Random(seed)
        e = gen_any(rng, token_boxes(rng), rng.randint(1, 12))
        mapping = {t: Token(f"renamed_{i}") for i, t in enumerate(sorted(tokens_of(e), key=lambda t: t.name))}
        renamed = _rename(e, mapping)
        assert blind_enclosure(forget_tokens(e)) == blind_enclosure(forget_tokens(renamed))

    @settings(max_examples=60)
    @given(st.integers(0, 10**9))
    def test_erasure_soundness_on_samples(self, seed):
        rng = random.Random(seed)
        e = gen_any(rng, token_boxes(rng, max_tokens=3), rng.randint(1, 10))
        bounds = blind_enclosure(forget_tokens(e))
        if bounds is UNBOUNDED:
            return
        for _, value in under_approx_samples(e, 3, budget=10_000):
            assert bounds.contains(value)


def _rename(e, mapping):
    match e:
        case Exact():
            return e
        case Meas(token, interval, dim):
            return Meas(mapping[token], interval, dim)
        case Add(l, r):
            return Add(_rename(l, mapping), _rename(r, mapping))
        case Sub(l, r):
            return Sub(_rename(l, mapping), _rename(r, mapping))
        case Mul(l, r):
            return Mul(_rename(l, mapping), _rename(r, mapping))
        case Div(l, r):
            return Div(_rename(l, mapping), _rename(r, mapping))
        case Neg(operand):
            return Neg(_rename(operand, mapping))
    raise TypeError(e)


def _blind_leaves(b):
    match b:
        case Exact():
            return []
        case BlindMeas(interval, _):
            return [interval]
        case Add(l, r) | Sub(l, r) | Mul(l, r) | Div(l, r):
            return _blind_leaves(l) + _blind_leaves(r)
        case Neg(operand):
            return _blind_leaves(operand)
    raise TypeError(b)


def _blind_eval(b, values):
    match b:
        case Exact(value, _):
            return value
        case BlindMeas():
            return next(values)
        case Add(l, r):
            return _blind_eval(l, values) + _blind_eval(r, values)
        case Sub(l, r):
            return _blind_eval(l, values) - _blind_eval(r, values)
        case Mul(l, r):
            return _blind_eval(l, values) * _blind_eval(r, values)
        case Div(l, r):
            num = _blind_eval(l, values)
            den = _blind_eval(r, values)
            return num / den if den != 0 else F(0)
        case Neg(operand):
            return -_blind_eval(operand, values)
    raise TypeError(b)


class TestIndependentOccurrenceOracle:
    @settings(max_examples=60)
    @given(st.integers(0, 10**9))
    def test_endpoints_match_independent_corner_sweep(self, seed):
        # every occurrence varies independently, so corner enumeration
        # per occurrence is the exact oracle for the blind interval
        rng = random.Random(seed)
        e = gen_any(rng, token_boxes(rng, max_tokens=2), rng.randint(1, 9))
        blind = forget_tokens(e)
        bounds = blind_enclosure(blind)
        if bounds is UNBOUNDED:
            return
        leaves = _blind_leaves(blind)
        if len(leaves) > 6:
            return
        grids = [[iv.lo, iv.hi] if iv.lo != iv.hi else [iv.lo] for iv in leaves]
        values = [
            _blind_eval(blind, iter(combo)) for combo in itertools.product(*grids)
        ]
        assert min(values) == bounds.lo
        assert max(values) == bounds.hi
        # interior combinations stay inside as well
        mids = [[(iv.lo + iv.hi) / 2] for iv in leaves]
        for combo in itertools.product(*mids):
            assert bounds.contains(_blind_eval(blind, iter(combo)))


class TestFormatBlind:
    def test_leaves_and_operators(self):
        b = Sub(BlindMeas(I25, D), Exact(F(1, 2), D))
        assert format_blind(b) == "meas([2,5],d) - exact(1/2,d)"

    def test_parenthesization(self):
        b = Mul(Add(Exact(F(1), D), Exact(F(2), D)), BlindMeas(I12, D))
        assert format_blind(b) == "(exact(1,d) + exact(2,d)) * meas([1,2],d)"

    @pytest.mark.parametrize("leaf", [None, 3, "x", Token("t"), Meas(Token("t"), I12, D)], ids=repr)
    def test_a_non_node_raises_type_error(self, leaf):
        for tree in (leaf, Neg(leaf), Add(Exact(F(1), D), leaf)):
            with pytest.raises(TypeError, match="^not a blind expression node: "):
                format_blind(tree)


class TestBlindCompare:
    def test_cancellation_pair(self):
        same = parse("meas(t,[2,5],d) - meas(t,[2,5],d)")
        distinct = parse("meas(t1,[2,5],d) - meas(t2,[2,5],d)")
        report = blind_compare(same, distinct, Exact(F(0), D))
        assert report.erased_equal
        assert report.bounds_equal
        assert report.class1.kind is RewriteClass.INTERCHANGEABLE
        assert report.class2.kind is RewriteClass.ONE_WAY_ONLY_FORWARD
        assert report.classes_differ
        assert report.demonstrates_insufficiency

    def test_background_pair(self):
        same = parse("(meas(ts,[10,11],d) + meas(tb,[1,2],d)) - meas(tb,[1,2],d)")
        distinct = parse("(meas(ts,[10,11],d) + meas(tb1,[1,2],d)) - meas(tb2,[1,2],d)")
        target = parse("meas(ts,[10,11],d)")
        report = blind_compare(same, distinct, target)
        assert report.demonstrates_insufficiency
        assert report.class1.kind is RewriteClass.INTERCHANGEABLE
        assert report.class2.kind is RewriteClass.ONE_WAY_ONLY_FORWARD

    def test_division_pair(self):
        same = parse("meas(t,[1,2],d) / meas(t,[1,2],d)")
        distinct = parse("meas(t1,[1,2],d) / meas(t2,[1,2],d)")
        report = blind_compare(same, distinct, Exact(F(1), D))
        assert report.demonstrates_insufficiency

    def test_structurally_different_pair(self):
        e1 = parse("meas(t,[0,1],d)")
        e2 = parse("meas(t,[0,2],d)")
        report = blind_compare(e1, e2)
        assert not report.erased_equal
        assert not report.bounds_equal
        assert not report.demonstrates_insufficiency

    def test_shared_target_is_folded_once(self, affine_folds):
        same = parse("(meas(ts,[10,11],d) + meas(tb,[1,2],d)) - meas(tb,[1,2],d)")
        distinct = parse("(meas(ts,[10,11],d) + meas(tb1,[1,2],d)) - meas(tb2,[1,2],d)")
        target = parse("meas(ts,[10,11],d) + exact(0,d)")
        blind_compare(same, distinct, target)
        assert [e for e in affine_folds if e is target] == [target]

    def test_pairwise_mode_without_target(self):
        e1 = parse("meas(t,[2,5],d) - meas(t,[2,5],d)")
        e2 = parse("exact(0,d)")
        report = blind_compare(e1, e2)
        assert report.class1.kind is RewriteClass.INTERCHANGEABLE
        assert report.class2.kind is RewriteClass.INTERCHANGEABLE
        assert not report.classes_differ
