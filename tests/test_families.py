"""Family builders: validation, shapes, and end-to-end classifications."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from enclosures import (
    Dim,
    Exact,
    FamilySpec,
    FamilySpecError,
    Interval,
    RewriteClass,
    build_pair,
    build_variants,
    classify,
    expected_class,
    forget_tokens,
    format_expr,
    parse,
    source_expr,
    tokens_of,
)
from exprgen import rand_family_spec


class TestValidation:
    def test_division_needs_positive_interval(self):
        with pytest.raises(FamilySpecError, match="0 < lo"):
            FamilySpec("division", "same", interval=Interval.of(-1, 2))
        with pytest.raises(FamilySpecError, match="0 < lo"):
            FamilySpec("division", "distinct", interval=Interval.of(0, 2))

    def test_degenerate_intervals_rejected(self):
        with pytest.raises(FamilySpecError, match="lo < hi"):
            FamilySpec("cancellation", "same", interval=Interval.of(3, 3))
        with pytest.raises(FamilySpecError, match="lo < hi"):
            FamilySpec("division", "same", interval=Interval.of(2, 2))
        with pytest.raises(FamilySpecError, match="lo < hi"):
            FamilySpec(
                "background",
                "same",
                signal=Interval.of(10, 11),
                background=Interval.of(1, 1),
            )

    def test_missing_intervals_rejected(self):
        with pytest.raises(FamilySpecError, match="needs an interval"):
            FamilySpec("cancellation", "same")
        with pytest.raises(FamilySpecError, match="signal interval"):
            FamilySpec("background", "same", signal=Interval.of(10, 11))
        with pytest.raises(FamilySpecError, match="signal interval"):
            FamilySpec("background", "same", background=Interval.of(1, 2))

    def test_unknown_family_and_mode(self):
        with pytest.raises(FamilySpecError, match="unknown family"):
            FamilySpec("subtraction", "same", interval=Interval.of(1, 2))
        with pytest.raises(FamilySpecError, match="unknown mode"):
            FamilySpec("cancellation", "both", interval=Interval.of(1, 2))
        spec = FamilySpec("cancellation", "same", interval=Interval.of(1, 2))
        with pytest.raises(FamilySpecError, match="unknown mode: 'bogus'"):
            source_expr(spec, "bogus")

    @pytest.mark.parametrize("tag", ["m/s", "", "m s", "1d"])
    def test_a_dim_tag_outside_the_grammar_is_refused(self, tag):
        # The pair's text must parse back, so its dim tag must be a name.
        with pytest.raises(FamilySpecError, match=f"dim tag {tag!r} is not a name"):
            FamilySpec("cancellation", "same", interval=Interval.of(1, 2), dim=Dim(tag))

    @pytest.mark.parametrize("tag", ["d", "m_per_s", "K2"])
    def test_a_grammar_dim_tag_parses_back(self, tag):
        spec = FamilySpec(
            "background", "distinct", signal=Interval.of(10, 11), background=Interval.of(1, 2), dim=Dim(tag)
        )
        for e in build_variants(spec):
            assert parse(format_expr(e)) == e

    def test_degenerate_signal_is_allowed(self):
        spec = FamilySpec(
            "background",
            "distinct",
            signal=Interval.of(7, 7),
            background=Interval.of(1, 2),
        )
        src, tgt = build_pair(spec)
        assert classify(src, tgt).kind is expected_class("distinct")


class TestShapes:
    def test_cancellation_pair(self):
        spec = FamilySpec("cancellation", "distinct", interval=Interval.of(2, 5))
        src, tgt = build_pair(spec)
        assert format_expr(src) == "meas(t1,[2,5],d) - meas(t2,[2,5],d)"
        assert tgt == Exact(0, Dim("d"))

    def test_background_pair(self):
        spec = FamilySpec(
            "background",
            "same",
            signal=Interval.of(10, 11),
            background=Interval.of(1, 2),
        )
        src, tgt = build_pair(spec)
        # left-associative, so the sum needs no parentheses
        assert format_expr(src) == "meas(ts,[10,11],d) + meas(tb,[1,2],d) - meas(tb,[1,2],d)"
        assert format_expr(tgt) == "meas(ts,[10,11],d)"

    def test_division_pair(self):
        spec = FamilySpec("division", "same", interval=Interval.of(1, 2))
        src, tgt = build_pair(spec)
        assert format_expr(src) == "meas(t,[1,2],d) / meas(t,[1,2],d)"
        assert tgt == Exact(1, Dim("d"))

    def test_distinct_mode_uses_fresh_tokens(self):
        spec = FamilySpec(
            "background",
            "distinct",
            signal=Interval.of(10, 11),
            background=Interval.of(1, 2),
        )
        src, _ = build_pair(spec)
        assert {t.name for t in tokens_of(src)} == {"ts", "tb1", "tb2"}

    def test_variants_erase_identically(self):
        spec = FamilySpec("cancellation", "same", interval=Interval.of(2, 5))
        same, distinct, _ = build_variants(spec)
        assert same != distinct
        assert forget_tokens(same) == forget_tokens(distinct)

    def test_custom_dimension_tag(self):
        spec = FamilySpec(
            "cancellation", "same", interval=Interval.of(2, 5), dim=Dim("kg")
        )
        src, tgt = build_pair(spec)
        assert format_expr(src) == "meas(t,[2,5],kg) - meas(t,[2,5],kg)"
        assert tgt == Exact(0, Dim("kg"))


SPECS = {
    "cancellation": dict(interval=Interval.of(2, 5)),
    "background": dict(signal=Interval.of(10, 11), background=Interval.of(1, 2)),
    "division": dict(interval=Interval.of(1, 2)),
}


def _meas(name, lo, hi):
    return (
        f"Meas(token=Token(name={name!r}), interval=Interval(lo=Fraction({lo}, 1),"
        f" hi=Fraction({hi}, 1)), dim=Dim(tag='d'))"
    )


# The source trees' reprs, as `source_expr`'s six hand-written cases gave them.
SOURCE_REPRS = {
    ("cancellation", "same"): f"Sub(lhs={_meas('t', 2, 5)}, rhs={_meas('t', 2, 5)})",
    ("cancellation", "distinct"): f"Sub(lhs={_meas('t1', 2, 5)}, rhs={_meas('t2', 2, 5)})",
    ("background", "same"): (
        f"Sub(lhs=Add(lhs={_meas('ts', 10, 11)}, rhs={_meas('tb', 1, 2)}), rhs={_meas('tb', 1, 2)})"
    ),
    ("background", "distinct"): (
        f"Sub(lhs=Add(lhs={_meas('ts', 10, 11)}, rhs={_meas('tb1', 1, 2)}),"
        f" rhs={_meas('tb2', 1, 2)})"
    ),
    ("division", "same"): f"Div(lhs={_meas('t', 1, 2)}, rhs={_meas('t', 1, 2)})",
    ("division", "distinct"): f"Div(lhs={_meas('t1', 1, 2)}, rhs={_meas('t2', 1, 2)})",
}


class TestSourceTrees:
    @pytest.mark.parametrize("family, mode", sorted(SOURCE_REPRS))
    def test_repr_is_pinned(self, family, mode):
        src, _ = build_pair(FamilySpec(family, mode, **SPECS[family]))
        assert repr(src) == SOURCE_REPRS[family, mode]

    @pytest.mark.parametrize("family", sorted(SPECS))
    def test_same_mode_shares_one_leaf_and_distinct_mode_none(self, family):
        def occurrences(src):  # the two leaves of the quantity measured twice
            return (src.lhs.rhs, src.rhs) if family == "background" else (src.lhs, src.rhs)

        same, distinct, _ = build_variants(FamilySpec(family, "same", **SPECS[family]))
        first, second = occurrences(same)
        assert first is second
        first, second = occurrences(distinct)
        assert first is not second and first.token != second.token


class TestExpectedClass:
    def test_modes(self):
        assert expected_class("same") is RewriteClass.INTERCHANGEABLE
        assert expected_class("distinct") is RewriteClass.ONE_WAY_ONLY_FORWARD
        with pytest.raises(FamilySpecError):
            expected_class("mixed")


class TestClassifications:
    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec("cancellation", "same", interval=Interval.of(-4, 9)),
            FamilySpec("cancellation", "distinct", interval=Interval.of(-4, 9)),
            FamilySpec(
                "background",
                "same",
                signal=Interval.of(-2, 0),
                background=Interval.of(5, 8),
            ),
            FamilySpec(
                "background",
                "distinct",
                signal=Interval.of(-2, 0),
                background=Interval.of(5, 8),
            ),
            FamilySpec("division", "same", interval=Interval.of(3, 7)),
            FamilySpec("division", "distinct", interval=Interval.of(3, 7)),
        ],
        ids=lambda s: f"{s.family}-{s.mode}",
    )
    def test_each_family_and_mode(self, spec):
        src, tgt = build_pair(spec)
        assert classify(src, tgt).kind is expected_class(spec.mode)

    @settings(max_examples=40)
    @given(st.integers(0, 10**9))
    def test_random_parameterizations(self, seed):
        rng = random.Random(seed)
        family = rng.choice(["cancellation", "background", "division"])
        mode = rng.choice(["same", "distinct"])
        spec = rand_family_spec(rng, family, mode)
        src, tgt = build_pair(spec)
        assert classify(src, tgt).kind is expected_class(mode)


class TestRoundTrip:
    def test_sources_parse_back(self):
        spec = FamilySpec(
            "background",
            "distinct",
            signal=Interval.of(10, 11),
            background=Interval.of(1, 2),
        )
        for e in build_variants(spec):
            assert parse(format_expr(e)) == e
