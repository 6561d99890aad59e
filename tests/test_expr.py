"""Core types, the expression grammar, and the printer/parser pair."""

import dataclasses
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


class TestTokenAndDim:
    def test_equal_values_from_separate_parses_are_one_key(self):
        first, second = parse("meas(t,[1,2],d)"), parse("meas(t,[3,4],d)")
        assert first.token is not second.token and first.dim is not second.dim
        for a, b in ((first.token, second.token), (first.dim, second.dim)):
            assert a == b and hash(a) == hash(b) == hash(str(a))
            assert {a: 1}[b] == 1 and {b: 2}[a] == 2
        assert repr(first.token) == "Token(name='t')" and repr(first.dim) == "Dim(tag='d')"

    def test_fields_stay_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Token("t").name = "u"
        with pytest.raises(dataclasses.FrozenInstanceError):
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
