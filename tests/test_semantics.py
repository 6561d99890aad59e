"""Evaluation, token consistency, exact values, environment files."""

import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from enclosures import (
    EMPTY_ENV,
    InfeasibleTokenError,
    NotExactError,
    ParseError,
    Token,
    TokenEnv,
    effective_intervals,
    evaluate,
    exact_value,
    format_expr,
    meas_leaves,
    parse,
    parse_env,
    token_consistent,
    tokens_of,
)
from exprgen import (
    gen_any,
    gen_exact,
    naive_consistent,
    naive_evaluate,
    rand_rational,
    redeclare,
    token_boxes,
)


class TestEvaluate:
    def test_distinct_difference(self):
        e = parse("meas(t1,[2,5],d) - meas(t2,[2,5],d)")
        env = TokenEnv({Token("t1"): F(5), Token("t2"): F(2)})
        assert evaluate(env, e) == F(3)

    def test_division_by_zero_is_zero(self):
        assert evaluate(EMPTY_ENV, parse("exact(1,d) / exact(0,d)")) == F(0)
        env = TokenEnv({Token("t"): F(0)})
        assert evaluate(env, parse("meas(t,[-1,1],d) / meas(t,[-1,1],d)")) == F(0)

    def test_same_token_cancels(self):
        e = parse("meas(t,[2,5],d) - meas(t,[2,5],d)")
        assert evaluate(TokenEnv({Token("t"): F(3)}), e) == F(0)

    def test_unbound_token_defaults_to_zero(self):
        assert evaluate(EMPTY_ENV, parse("meas(t,[2,5],d)")) == F(0)

    @given(st.integers(0, 10**9))
    def test_unused_bindings_are_irrelevant(self, seed):
        rng = random.Random(seed)
        e = gen_any(rng, token_boxes(rng), rng.randint(1, 12))
        env = TokenEnv({t: rand_rational(rng) for t in tokens_of(e)})
        noise = dict(env.bindings)
        noise[Token("unused_elsewhere")] = rand_rational(rng)
        assert evaluate(env, e) == evaluate(TokenEnv(noise), e)

    @given(st.integers(0, 10**9))
    def test_matches_reference_evaluator(self, seed):
        # Partial environments exercise the default for unbound tokens, and
        # small rationals make zero denominators common.
        rng = random.Random(seed)
        e = gen_any(rng, token_boxes(rng), rng.randint(1, 15))
        for _ in range(3):
            env = TokenEnv(
                {t: rand_rational(rng, -2, 2, 2) for t in tokens_of(e) if rng.random() < 0.8}
            )
            assert evaluate(env, e) == naive_evaluate(env, e)

    @given(st.integers(0, 10**9))
    def test_exact_value_ignores_environment(self, seed):
        rng = random.Random(seed)
        e = gen_exact(rng, rng.randint(1, 12))
        v = exact_value(e)
        for _ in range(3):
            env = TokenEnv({Token(f"t{i}"): rand_rational(rng) for i in range(3)})
            assert evaluate(env, e) == v


class TestTokenConsistent:
    def test_endpoints_included(self):
        e = parse("meas(t,[2,5],d)")
        assert token_consistent(TokenEnv({Token("t"): F(2)}), e)
        assert not token_consistent(TokenEnv({Token("t"): F(6)}), e)

    def test_multiple_occurrences(self):
        e = parse("meas(t,[2,5],d) + meas(t,[4,8],d)")
        assert token_consistent(TokenEnv({Token("t"): F(9, 2)}), e)
        assert not token_consistent(TokenEnv({Token("t"): F(3)}), e)

    def test_exact_imposes_nothing(self):
        assert token_consistent(EMPTY_ENV, parse("exact(7,d)"))

    @given(st.integers(0, 10**9))
    def test_matches_effective_intervals(self, seed):
        rng = random.Random(seed)
        e = gen_any(rng, token_boxes(rng), rng.randint(1, 12))
        env = TokenEnv({t: rand_rational(rng) for t in tokens_of(e)})
        try:
            effective = effective_intervals(e)
        except InfeasibleTokenError:
            assert not token_consistent(env, e)
            return
        expected = all(iv.contains(env.value(t)) for t, iv in effective.items())
        assert token_consistent(env, e) == expected


class TestTokenConsistentMatchesReference:
    """Each distinct leaf node is checked once, and the verdict is the
    reference's whether equal leaves share one node or not."""

    @pytest.mark.parametrize(
        "value, consistent", [(F(1, 2), False), (F(5, 2), False), (F(3, 2), True)]
    )
    def test_token_under_two_intervals(self, value, consistent):
        # t's first interval is shared by two occurrences; the third
        # occurrence's differs, and each interval is checked.
        for text in (
            "meas(t,[0,2],d) * meas(t,[0,2],d) + meas(t,[1,3],d)",
            "meas(t,[1,3],d) - meas(t,[0,2],d) / meas(t,[0,2],d)",
        ):
            e = parse(text)
            env = TokenEnv({Token("t"): value})
            assert token_consistent(env, e) is consistent is naive_consistent(env, e)

    @pytest.mark.parametrize("shared", [True, False], ids=["parsed", "built"])
    def test_seeded_corpus(self, shared):
        verdicts: Counter = Counter()
        reused = 0
        for seed in range(300):
            rng = random.Random(seed)
            boxes = token_boxes(rng)
            e = gen_any(rng, boxes, rng.randint(1, 15))
            if seed % 2:
                e = redeclare(rng, e)  # one token under several intervals
            if shared:
                e = parse(format_expr(e))  # equal leaf texts share one node
            leaves = list(meas_leaves(e))
            nodes = {id(leaf) for leaf in leaves}
            reused += len(nodes) < len(leaves) if shared else len(set(leaves)) < len(nodes)
            tokens = sorted({leaf.token for leaf in leaves}, key=lambda t: t.name)
            for _ in range(6):
                # Inside the token's generated box half the time, so both
                # verdicts occur; otherwise anywhere near the boxes.
                env = TokenEnv(
                    {
                        t: rng.choice((boxes[t].lo, boxes[t].hi))
                        if rng.random() < 0.5
                        else rand_rational(rng, -11, 11, 2)
                        for t in tokens
                    }
                )
                verdict = token_consistent(env, e)
                assert verdict is naive_consistent(env, e)
                verdicts[verdict] += 1
        assert verdicts[True] > 300 and verdicts[False] > 300, verdicts
        assert reused > 40, reused


class TestExactValue:
    def test_sum(self):
        assert exact_value(parse("exact(3,d) + exact(4,d)")) == F(7)

    def test_total_division(self):
        assert exact_value(parse("exact(1,d) / exact(0,d)")) == F(0)

    def test_measured_rejected(self):
        with pytest.raises(NotExactError):
            exact_value(parse("meas(t,[2,5],d)"))


class TestParseEnv:
    def test_bindings(self):
        env = parse_env("t1 = 9/2\nt2 = -3\n")
        assert env.value(Token("t1")) == F(9, 2)
        assert env.value(Token("t2")) == F(-3)
        assert env.value(Token("absent")) == F(0)

    def test_comments_and_blanks(self):
        env = parse_env("# header\n\nt = 1  # inline\n")
        assert env.value(Token("t")) == F(1)

    def test_last_binding_wins(self):
        env = parse_env("t = 1\nt = 2\n")
        assert env.value(Token("t")) == F(2)

    def test_empty_file(self):
        assert parse_env("") == EMPTY_ENV

    # Each error sits at the name or value it names, or at the line start.
    MALFORMED = {
        "t1 9/2": 0,
        "= 3": 0,
        "t =": 3,
        "t = x": 4,
        "1t = 3": 0,
        "t = 1/0": 4,
        "t = 1 extra": 4,
        "t = 1\nt = x\n": 10,
        "t = 1\n  2t = 3": 8,
        "# c\r\n  t 3": 5,
        # Breaks other than "\n" still end a binding.
        "t = 1\vt = x": 10,
        "t = 1\ft = x\n": 10,
        "t = 1\x1c t = x": 11,
        "t = 1\n\x85t = x\n": 11,
        "t = 1\u2028t = x": 10,
    }

    @pytest.mark.parametrize("text", list(MALFORMED))
    def test_malformed_lines(self, text):
        with pytest.raises(ParseError) as err:
            parse_env(text)
        assert err.value.position == self.MALFORMED[text]

    # Line numbers count "\n" breaks only, as an editor does.
    LINES = {
        "t1 9/2": 1,
        "t = 1\nt = x\n": 2,
        "# c\r\n  t 3": 2,
        "t = 1\vt = x": 1,
        "t = 1\ft = x\n": 1,
        "t = 1\x1c t = x": 1,
        "t = 1\n\x85t = x\n": 2,
        "t = 1\u2028t = x": 1,
        "\n\f\nbad": 3,
    }

    @pytest.mark.parametrize("text", list(LINES))
    def test_line_numbers_count_newlines_only(self, text):
        with pytest.raises(ParseError) as err:
            parse_env(text)
        assert str(err.value).startswith(f"line {self.LINES[text]}: ")
