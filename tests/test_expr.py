"""Core types, the expression grammar, and the printer/parser pair."""

import importlib
import random
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from enclosures import (
    Add,
    Dim,
    Div,
    Exact,
    FrozenInstanceError,
    InfeasibleTokenError,
    Interval,
    IntervalOrderError,
    Meas,
    Mul,
    Neg,
    ParseError,
    Sub,
    Token,
    dims_of,
    effective_intervals,
    format_expr,
    is_exact,
    parse,
    parse_interval,
    parse_rational,
    tokens_of,
)
from exprgen import D, gen_any, token_boxes


class TestInterval:
    def test_order_enforced(self):
        with pytest.raises(IntervalOrderError):
            Interval(F(5), F(2))

    def test_point_and_contains(self):
        iv = Interval.of(2, 5)
        assert iv.contains(F(2)) and iv.contains(F(5)) and iv.contains(F(7, 2))
        assert not iv.contains(F(6))
        assert Interval.point(F(3)).is_point

    def test_intersect(self):
        assert Interval.of(2, 5).intersect(Interval.of(4, 8)) == Interval.of(4, 5)
        assert Interval.of(0, 1).intersect(Interval.of(2, 3)) is None
        # closed intervals: touching endpoints intersect in a point
        assert Interval.of(0, 2).intersect(Interval.of(2, 3)) == Interval.point(F(2))

    def test_encloses(self):
        assert Interval.of(0, 10).encloses(Interval.of(2, 5))
        assert not Interval.of(2, 5).encloses(Interval.of(0, 10))

    def test_contains_and_encloses_agree_with_fraction_order(self):
        # Both cross-multiply integer pairs; check them against Fraction's
        # own order on ends and values of mixed signs and denominators.
        values = sorted({F(n, d) for n in range(-7, 8) for d in (1, 2, 3, 7)})[::3]
        boxes = [Interval(lo, hi) for lo in values for hi in values if lo <= hi]
        for iv in boxes:
            for q in values + [-2, 0, 3]:
                assert iv.contains(q) is (iv.lo <= q <= iv.hi), (iv, q)
            for other in boxes:
                assert iv.encloses(other) is (iv.lo <= other.lo and other.hi <= iv.hi)


class TestFractionLeaves:
    """Interval ends and exact values are Fractions from construction on."""

    def test_ints_become_fractions(self):
        iv, ex = Interval(1, F(5, 2)), Exact(3, D)
        assert (type(iv.lo), type(iv.hi), type(ex.value)) == (F, F, F)
        assert (iv, ex) == (Interval(F(1), F(5, 2)), Exact(F(3), D))
        with pytest.raises(IntervalOrderError):
            Interval(2, 1)

    @pytest.mark.parametrize("bad", [0.5, 1.0, "1", Decimal(1), None])
    def test_non_rationals_rejected(self, bad):
        with pytest.raises(TypeError):
            Interval(bad, F(2))
        with pytest.raises(TypeError):
            Interval(F(-2), bad)
        with pytest.raises(TypeError):
            Exact(bad, D)


    def test_of_and_point_reject_floats(self):
        assert Interval.of(1, F(5, 2)) == Interval.of("1", "5/2") == Interval(F(1), F(5, 2))
        assert Interval.of("0.1", 1).lo == F(1, 10)
        assert Interval.point(3) == Interval.point("3") == Interval(F(3), F(3))
        for bad in (0.1, 1.0, Decimal(1), None):
            with pytest.raises(TypeError):
                Interval.of(bad, 1)
            with pytest.raises(TypeError):
                Interval.of(0, bad)
            with pytest.raises(TypeError):
                Interval.point(bad)


def _deep(depth: int, last: Meas, op=Add) -> Add:
    """op(m_1, op(m_2, ... op(m_depth, last))): a right chain depth deep."""
    e = last
    for i in range(depth, 0, -1):
        e = op(Meas(Token(f"t{i % 7}"), Interval.of(0, i), D), e)
    return e


class TestLockstepEquality:
    """Equality walks both trees in step, skips shared subtrees and stops at
    the first difference; hashing still reads the post-order."""

    LEAF = Meas(Token("t"), Interval.of(0, 1), D)
    OTHER = Meas(Token("t"), Interval.of(0, 2), D)

    @pytest.fixture
    def leaf_comparisons(self, monkeypatch):
        """Meas.__eq__ calls while the test runs."""
        calls = []
        compare = Meas.__eq__

        def counted(a, b):
            calls.append((a, b))
            return compare(a, b)

        monkeypatch.setattr(Meas, "__eq__", counted)
        return calls

    def test_deep_trees_equal_and_unequal(self):
        a, b = _deep(3000, self.LEAF), _deep(3000, self.LEAF)
        assert a is not b and a == b and hash(a) == hash(b)
        deeper_diff = _deep(3000, self.OTHER)
        assert a != deeper_diff and not a == deeper_diff
        assert _deep(3000, self.LEAF, Sub) != a

    def test_mismatch_at_the_root_walks_nothing(self, leaf_comparisons, monkeypatch):
        def walked(e):
            raise AssertionError("equality built a post-order")

        monkeypatch.setattr(importlib.import_module("enclosures.expr"), "postorder", walked)
        a = _deep(3000, self.LEAF)
        assert Sub(a.lhs, a.rhs) != a and Neg(a) != Neg(Sub(a.lhs, a.rhs))
        assert leaf_comparisons == []

    def test_mismatch_at_the_deepest_leaf(self, leaf_comparisons):
        a, b = _deep(50, self.LEAF), _deep(50, self.OTHER)
        assert a != b
        assert leaf_comparisons[-1] == (self.LEAF, self.OTHER)
        assert len(leaf_comparisons) == 51  # every leaf, the deepest last

    def test_mismatch_in_the_first_leaf_stops_there(self, leaf_comparisons):
        a = _deep(50, self.LEAF)
        b = Add(Meas(Token("x"), Interval.of(0, 1), D), a.rhs)
        assert a != b
        assert len(leaf_comparisons) == 1

    def test_shared_subtrees_are_not_compared(self, leaf_comparisons):
        a = _deep(50, self.LEAF)
        assert Add(a, a) == Add(a, Add(a.lhs, a.rhs))
        assert leaf_comparisons == []

    def test_mismatch_in_a_shared_leaf(self):
        # parse shares one node per leaf text, so a tree can hold one leaf
        # object in several places; a copy differing in one of them differs.
        e = parse("meas(t,[0,1],d) * meas(t,[0,1],d) + meas(t,[0,1],d)")
        shared = e.rhs
        assert e.lhs.lhs is e.lhs.rhs is shared
        assert e == Add(Mul(shared, shared), shared)
        assert e != Add(Mul(shared, self.OTHER), shared)
        assert e != Add(Mul(shared, shared), self.OTHER)
        assert e != Add(Mul(self.OTHER, shared), shared)


class TestTokenAndDim:
    def test_equal_values_from_separate_parses_are_one_key(self):
        first, second = parse("meas(t,[1,2],d)"), parse("meas(t,[3,4],d)")
        assert first.token is not second.token and first.dim is not second.dim
        for a, b in ((first.token, second.token), (first.dim, second.dim)):
            assert a == b and hash(a) == hash(b) == hash(str(a))
            assert {a: 1}[b] == 1 and {b: 2}[a] == 2
        assert repr(first.token) == "Token(name='t')" and repr(first.dim) == "Dim(tag='d')"

    def test_fields_stay_frozen(self):
        with pytest.raises(FrozenInstanceError):
            Token("t").name = "u"
        with pytest.raises(FrozenInstanceError):
            Dim("d").tag = "e"


class TestParse:
    def test_sub_of_meas(self):
        t = Token("t")
        iv = Interval.of(2, 5)
        expected = Sub(Meas(t, iv, D), Meas(t, iv, D))
        assert parse("meas(t,[2,5],d) - meas(t,[2,5],d)") == expected

    def test_exact_leaf(self):
        assert parse("exact(0,d)") == Exact(F(0), D)

    def test_interval_order_checked(self):
        with pytest.raises(IntervalOrderError):
            parse("meas(t,[5,2],d)")

    def test_precedence(self):
        a, b, c = Exact(F(1), D), Exact(F(2), D), Exact(F(3), D)
        assert parse("exact(1,d) + exact(2,d) * exact(3,d)") == Add(a, Mul(b, c))
        assert parse("(exact(1,d) + exact(2,d)) * exact(3,d)") == Mul(Add(a, b), c)
        assert parse("exact(1,d) - exact(2,d) - exact(3,d)") == Sub(Sub(a, b), c)
        assert parse("-exact(1,d) * exact(2,d)") == Mul(Neg(a), b)
        assert parse("--exact(1,d)") == Neg(Neg(a))

    def test_whitespace_and_comments(self):
        text = """
        # leading comment
        meas(t, [2, 5], d)   # trailing comment
          - meas(t,[2,5],d)
        """
        assert parse(text) == parse("meas(t,[2,5],d)-meas(t,[2,5],d)")

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse("exact(1,d) +")
        assert err.value.position == 12
        with pytest.raises(ParseError):
            parse("meas(7,[2,5],d)")
        with pytest.raises(ParseError):
            parse("exact(1,d) exact(2,d)")
        with pytest.raises(ParseError):
            parse("")

    def test_rationals(self):
        assert parse_rational("9/2") == F(9, 2)
        assert parse_rational("-3") == F(-3)
        assert parse_rational("-6/4") == F(-3, 2)
        with pytest.raises(ParseError):
            parse_rational("1/0")
        with pytest.raises(ParseError):
            parse_rational("1.5")

    def test_parse_interval(self):
        assert parse_interval("[2,5]") == Interval.of(2, 5)
        assert parse_interval("[-1/2, 3]") == Interval(F(-1, 2), F(3))
        with pytest.raises(IntervalOrderError):
            parse_interval("[5,2]")


class TestFormat:
    def test_leaf_forms(self):
        assert format_expr(Exact(F(1, 2), D)) == "exact(1/2,d)"
        assert format_expr(Neg(Exact(F(3), D))) == "-exact(3,d)"
        t = Token("t1")
        assert (
            format_expr(Sub(Meas(t, Interval.of(2, 5), D), Meas(Token("t2"), Interval.of(2, 5), D)))
            == "meas(t1,[2,5],d) - meas(t2,[2,5],d)"
        )

    @pytest.mark.parametrize("leaf", [None, 3, Token("t"), Interval.of(1, 2)], ids=repr)
    def test_a_non_node_raises_type_error(self, leaf):
        for tree in (leaf, Neg(leaf), Add(Exact(F(1), D), leaf)):
            with pytest.raises(TypeError, match="^not an expression node: "):
                format_expr(tree)

    def test_parenthesization(self):
        a, b, c = Exact(F(1), D), Exact(F(2), D), Exact(F(3), D)
        assert format_expr(Sub(a, Add(b, c))) == "exact(1,d) - (exact(2,d) + exact(3,d))"
        assert format_expr(Mul(Add(a, b), c)) == "(exact(1,d) + exact(2,d)) * exact(3,d)"
        assert format_expr(Div(a, Mul(b, c))) == "exact(1,d) / (exact(2,d) * exact(3,d))"
        assert format_expr(Neg(Add(a, b))) == "-(exact(1,d) + exact(2,d))"
        assert format_expr(Mul(Neg(a), b)) == "-exact(1,d) * exact(2,d)"
        assert format_expr(Neg(Mul(a, b))) == "-(exact(1,d) * exact(2,d))"
        assert format_expr(Add(a, Neg(b))) == "exact(1,d) + -exact(2,d)"

    @given(st.integers(0, 10**9))
    def test_round_trip(self, seed):
        rng = random.Random(seed)
        e = gen_any(rng, token_boxes(rng), rng.randint(1, 14))
        assert parse(format_expr(e)) == e

    # format_expr prints a name only when the grammar reads it back.
    @pytest.mark.parametrize("name", ["t", "T9", "x_1", "a_", "meas", "exact", "d" * 300])
    def test_a_grammar_name_prints_and_parses_back(self, name):
        for e in (Meas(Token(name), Interval.of(0, 1), Dim(name)), Exact(F(-1, 2), Dim(name))):
            assert parse(format_expr(e)) == e

    @pytest.mark.parametrize("name", ["a b", "m/s", "", "1t", "_t", "t-u", "t\n", "é", "t)"])
    def test_a_name_outside_the_grammar_is_refused(self, name):
        token_leaf = Meas(Token(name), Interval.of(0, 1), D)
        dim_leaf = Meas(Token("t"), Interval.of(0, 1), Dim(name))
        exact_leaf = Exact(F(1), Dim(name))
        cases = [  # (kind, leaf, the text it would print unchecked, a tree holding it)
            ("token name", token_leaf, f"meas({name},[0,1],d)", Add(Exact(F(1), D), token_leaf)),
            ("dim tag", dim_leaf, f"meas(t,[0,1],{name})", Neg(dim_leaf)),
            ("dim tag", exact_leaf, f"exact(1,{name})", exact_leaf),
        ]
        for kind, leaf, unchecked, e in cases:
            with pytest.raises(ValueError) as err:
                format_expr(e)
            assert str(err.value) == f"{kind} {name!r} is not a name the grammar reads ([A-Za-z][A-Za-z0-9_]*)"
            try:  # the unchecked text is refused, or reads back as another leaf
                assert parse(unchecked) != leaf
            except ParseError:
                pass


class TestStructuralQueries:
    def test_is_exact(self):
        assert is_exact(Add(Exact(F(2), D), Exact(F(3), D)))
        assert not is_exact(Meas(Token("t"), Interval.of(2, 5), D))
        assert is_exact(Neg(Div(Exact(F(1), D), Exact(F(0), D))))

    def test_effective_intervals_intersects(self):
        t = Token("t")
        e = Add(Meas(t, Interval.of(2, 5), D), Meas(t, Interval.of(4, 8), D))
        assert effective_intervals(e) == {t: Interval.of(4, 5)}

    def test_effective_intervals_infeasible(self):
        t = Token("t")
        e = Add(Meas(t, Interval.of(0, 1), D), Meas(t, Interval.of(2, 3), D))
        with pytest.raises(InfeasibleTokenError) as err:
            effective_intervals(e)
        assert err.value.token == t

    def test_effective_intervals_repeated_equal(self):
        t = Token("t")
        iv = Interval.of(2, 5)
        e = Sub(Meas(t, iv, D), Add(Meas(t, Interval.of(2, 5), D), Meas(t, iv, D)))
        assert effective_intervals(e) == {t: iv}

    def test_effective_intervals_repeated_differing(self):
        t, u = Token("t"), Token("u")
        e = parse(
            "meas(t,[2,5],d) + meas(u,[0,1],d) - meas(t,[2,5],d)"
            " + meas(t,[3,9],d) * meas(t,[3,9],d) + meas(t,[1,4],d)"
        )
        assert effective_intervals(e) == {t: Interval.of(3, 4), u: Interval.of(0, 1)}

    def test_effective_intervals_first_conflict_reported(self):
        # Both a and b end up infeasible; b's conflict comes first, left to right.
        e = parse(
            "meas(a,[0,1],d) + meas(b,[0,1],d) + meas(a,[0,1],d)"
            " + meas(b,[2,3],d) + meas(a,[5,6],d)"
        )
        with pytest.raises(InfeasibleTokenError) as err:
            effective_intervals(e)
        assert err.value.token == Token("b")
        e = parse("meas(a,[0,1],d) + meas(b,[0,1],d) + meas(a,[5,6],d) + meas(b,[2,3],d)")
        with pytest.raises(InfeasibleTokenError) as err:
            effective_intervals(e)
        assert err.value.token == Token("a")

    def test_effective_intervals_independent(self):
        t1, t2 = Token("t1"), Token("t2")
        iv = Interval.of(2, 5)
        e = Sub(Meas(t1, iv, D), Meas(t2, iv, D))
        assert effective_intervals(e) == {t1: iv, t2: iv}

    def test_exact_has_no_intervals(self):
        assert effective_intervals(parse("exact(2,d) + exact(3,d)")) == {}

    def test_tokens_and_dims(self):
        e = parse("meas(t1,[0,1],a) + meas(t2,[0,1],b) * exact(2,b)")
        assert tokens_of(e) == {Token("t1"), Token("t2")}
        assert dims_of(e) == {Dim("a"), Dim("b")}
