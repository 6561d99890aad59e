"""Evaluation, token consistency, exact values, environment files."""

import copy
import operator
import pickle
import random
import sys
from collections import Counter
from fractions import Fraction
from fractions import Fraction as F
from typing import Callable

import pytest
from hypothesis import given, strategies as st

from enclosures import (
    EMPTY_ENV,
    Add,
    Div,
    Exact,
    Expr,
    InfeasibleTokenError,
    Interval,
    IntervalOrderError,
    Meas,
    Mul,
    Neg,
    NotExactError,
    ParseError,
    Sub,
    Token,
    TokenEnv,
    audit_classification,
    classify,
    effective_intervals,
    evaluate,
    exact_value,
    fields,
    format_expr,
    meas_leaves,
    parse,
    parse_env,
    replace,
    to_affine,
    token_consistent,
    tokens_of,
)
from enclosures.expr import _Op, fold, narrow_box, postorder
from enclosures.semantics import _over_itself, compile_expr
from exprgen import (
    CHAIN_WRAPS,
    gen_affine,
    gen_any,
    gen_exact,
    long_affine_text,
    naive_consistent,
    naive_evaluate,
    rand_interval,
    rand_rational,
    redeclare,
    token_boxes,
)


class TestTokenEnvText:
    def test_bindings_print_sorted_by_token_name(self):
        env = TokenEnv({Token("u"): 1, Token("t"): F(3)})
        assert str(env) == "{t=3, u=1}"
        assert str(TokenEnv(default=5)) == "{}"


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


class TestBoxChecksOnPairs:
    """A consistency check and an interval's order check cross-multiply
    integer pairs, so neither makes a Fraction comparison."""

    # Token j is declared [j/2, j+1] and [j/3, j+2] in turn, so its box is [j/2, j+1].
    SUM = " + ".join(
        f"meas(t{k % 10},[{k % 10}/{2 + k // 10 % 2},{k % 10 + 1 + k // 10 % 2}],d)"
        for k in range(50)
    )
    ENVS = {
        "low ends": {j: F(j, 2) for j in range(10)},
        "high ends": {j: F(j + 1) for j in range(10)},
        "inside": {j: F(j, 2) + F(1, 7) for j in range(10)},
        "below one box": {**{j: F(j, 2) for j in range(10)}, 9: F(9, 2) - F(1, 100)},
        "above one box": {**{j: F(j + 1) for j in range(10)}, 4: F(5) + F(1, 100)},
        "negative": {j: F(-1, 3) for j in range(10)},
    }

    def test_token_consistent_on_50_leaves(self, fraction_compares):
        e = parse(self.SUM)
        envs = [TokenEnv({Token(f"t{j}"): v for j, v in env.items()}) for env in self.ENVS.values()]
        expected = [naive_consistent(env, e) for env in envs]
        assert expected == [True, True, True, False, False, False]
        fraction_compares.clear()
        for _ in ("cold", "warm"):
            assert [token_consistent(env, e) for env in envs] == expected
        assert not fraction_compares, fraction_compares

    ENDS = [
        (F(1, 3), F(1, 2)),
        (F(1, 2), F(1, 3)),
        (F(-1, 2), F(-1, 3)),
        (F(-1, 3), F(-1, 2)),
        (F(-2), F(-2)),
        (F(-7, 3), F(5)),
        (F(5), F(-7, 3)),
    ]

    def test_interval_order_check(self, fraction_compares):
        ordered = [lo <= hi for lo, hi in self.ENDS]
        fraction_compares.clear()
        made = []
        for lo, hi in self.ENDS:
            try:
                made.append(Interval(lo, hi) is not None)
            except IntervalOrderError as err:
                assert str(err) == f"interval [{lo},{hi}] has lo > hi"
                made.append(False)
        assert made == ordered and not fraction_compares, fraction_compares


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

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="no int-to-string limit in this interpreter",
    )
    def test_value_over_the_digit_limit(self):
        with pytest.raises(ParseError) as err:
            parse_env(f"t = 1\nu = {'9' * (sys.get_int_max_str_digits() + 1)}\n")
        assert err.value.position == 10 and str(err.value).startswith("line 2: bad rational")

    # A rejected name or value is quoted up to 40 characters, and cut there.
    QUOTED = {
        "t = " + "1" * 39 + "x": "line 1: bad rational '" + "1" * 39 + "x' (at offset 4)",
        "t = " + "9" * 5000 + "x": "line 1: bad rational '" + "9" * 40 + "'... (at offset 4)",
        "t = 1\n" + "u" * 5000 + "- = 1": (
            "line 2: bad token name '" + "u" * 40 + "'... (at offset 6)"
        ),
    }

    @pytest.mark.parametrize("text", list(QUOTED), ids=["40", "5000-digit value", "5000-char name"])
    def test_long_rejects_are_quoted_in_part(self, text):
        with pytest.raises(ParseError) as err:
            parse_env(text)
        assert str(err.value) == self.QUOTED[text] and len(str(err.value)) <= 90

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


class TestExactEnvironments:
    """An environment holds Fractions, as leaves do, so evaluation is exact."""

    T, U = Token("t"), Token("u")

    def test_int_values_become_fractions(self):
        env = TokenEnv({self.T: 3, self.U: 2})
        assert all(type(v) is F for v in env.bindings.values())
        assert env == TokenEnv({self.T: F(3), self.U: F(2)})
        assert type(TokenEnv(default=1).default) is F
        quotient = evaluate(env, parse("meas(t,[0,5],d) / meas(u,[1,5],d)"))
        leaf = evaluate(env, parse("meas(t,[0,5],d)"))
        assert (quotient, type(quotient)) == (F(3, 2), F)
        assert (leaf, type(leaf)) == (F(3), F)

    @pytest.mark.parametrize("bad", [0.5, 1.0, "1", None])
    def test_non_rationals_rejected(self, bad):
        with pytest.raises(TypeError):
            TokenEnv({self.T: F(1), self.U: bad})
        with pytest.raises(TypeError):
            TokenEnv(default=bad)

    @pytest.mark.parametrize(
        "text",
        [
            "exact(2,d)",
            "meas(t,[0,5],d)",
            "-meas(t,[0,5],d)",
            "exact(1,d) / exact(0,d)",
            "exact(3,d) * exact(1/3,d)",
            "meas(t,[0,5],d) - meas(t,[0,5],d)",
        ],
    )
    def test_evaluate_always_gives_a_fraction(self, text):
        e = parse(text)
        for env in (EMPTY_ENV, TokenEnv({self.T: 4}), TokenEnv({self.T: F(1, 2)})):
            value = evaluate(env, e)
            assert type(value) is F and value == naive_evaluate(env, e)
        if "meas" not in text:
            assert type(exact_value(e)) is F


# --- reference program ----------------------------------------------------------
#
# `compile_expr` and `token_consistent` as the package wrote them before the
# program was memoized and ran over integer pairs, kept verbatim but for their
# names, so the program is checked value for value against an independent text.

_ZERO = Fraction(0)

Compiled = Callable[[Callable[[Token], Fraction]], Fraction]


def _quotient(a: Fraction, b: Fraction) -> Fraction:
    return a / b if b else _ZERO


def _negate(a: Fraction, _: Fraction) -> Fraction:
    return -a


_STEP = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: _quotient}


def _reference_compile_expr(e: Expr) -> Compiled:
    """Flatten the tree once into a straight-line program over registers.

    Register k holds the value of the k-th node in post-order: constants
    are filled in here, measured leaves are loaded through the token
    lookup (for instance ``env.value``), and each operator is one step
    over earlier registers.  One compiled expression can then be run under
    many environments; division is total, as in `evaluate`.
    """
    registers: list[Fraction | None] = []
    loads: list[tuple[int, Token]] = []
    steps: list[tuple[int, Callable[[Fraction, Fraction], Fraction], int, int]] = []
    pending: list[int] = []  # registers of subtrees whose parent is still to come
    for k, node in enumerate(postorder(e)):
        cls = type(node)
        registers.append(node.value if cls is Exact else None)
        if cls is Meas:
            loads.append((k, node.token))
        elif cls is Neg:
            steps.append((k, _negate, pending[-1], pending.pop()))
        elif cls in _STEP:
            rhs = pending.pop()
            steps.append((k, _STEP[cls], pending.pop(), rhs))
        elif cls is not Exact:
            raise TypeError(f"not an expression node: {node!r}")
        pending.append(k)

    def run(value_of: Callable[[Token], Fraction]) -> Fraction:
        values = registers.copy()
        for k, token in loads:
            values[k] = value_of(token)
        for k, step, i, j in steps:
            values[k] = step(values[i], values[j])
        return values[-1]

    return run


def _reference_token_consistent(env: TokenEnv, e: Expr) -> bool:
    """True iff every measured leaf's interval contains its token's value.

    The condition is indexed by tokens, not leaf positions: two leaves
    sharing a token are checked against the same assigned value, once per
    declared interval.  A leaf node shared within the tree, as equal leaf
    texts are in one parse, is checked once.
    """
    leaves = {id(node): node for node in postorder(e) if type(node) is Meas}
    return all(
        leaf.interval.contains(env.value(leaf.token)) for leaf in leaves.values()
    )


def _agrees(env: TokenEnv, e: Expr) -> F:
    """evaluate and token_consistent give the reference's answers; the value."""
    value = evaluate(env, e)
    assert type(value) is F
    assert value == _reference_compile_expr(e)(env.value)
    assert token_consistent(env, e) is _reference_token_consistent(env, e)
    return value


def _chain(wrap: str) -> Expr:
    """A depth-800 right chain joined as CHAIN_WRAPS[wrap] says."""
    return parse(long_affine_text(random.Random(800), 800, 200, True, CHAIN_WRAPS[wrap]))


def _inner_env(e: Expr, k: int = 1) -> TokenEnv:
    """Each token k/3 of the way up its effective box."""
    return TokenEnv(
        {t: box.lo + (box.hi - box.lo) * F(k, 3) for t, box in effective_intervals(e).items()}
    )


class TestProgramMatchesReference:
    """The memoized integer-pair program gives the parent's values and
    consistency verdicts, as Fractions."""

    @pytest.mark.parametrize("gen", [gen_any, gen_affine], ids=["any", "affine"])
    def test_seeded_trees(self, gen):
        consistent = Counter()
        for seed in range(300):
            rng = random.Random(seed)
            boxes = token_boxes(rng)
            e = gen(rng, boxes, rng.randint(1, 15))
            if seed % 3 == 0:
                e = redeclare(rng, e)
            if seed % 2:
                e = parse(format_expr(e))  # equal leaf texts share one node
            if seed % 5 == 2:
                e = Div(e, e)  # a self-quotient: 1, or 0 where e is 0
            elif seed % 5 == 4:
                e = Div(e, parse(format_expr(e)))  # the same over an equal copy
            tokens = sorted(tokens_of(e), key=lambda t: t.name)
            for _ in range(4):
                # Box ends, small rationals (zero denominators are common),
                # ints and unbound tokens.
                env = TokenEnv(
                    {
                        t: rng.choice(
                            (
                                boxes[t].lo,
                                boxes[t].hi,
                                rand_rational(rng, -2, 2, 2),
                                rng.randint(-3, 3),
                            )
                        )
                        for t in tokens
                        if rng.random() < 0.9
                    }
                )
                assert _agrees(env, e) == naive_evaluate(env, e)
                consistent[naive_consistent(env, e)] += 1
        assert consistent[True] > 100 and consistent[False] > 100, consistent

    SPECIAL = [
        "meas(t,[1,2],d) / exact(0,d)",
        "meas(u,[-1,1],d) / (meas(t,[0,2],d) - meas(t,[0,2],d))",
        "(meas(t,[0,2],d) / meas(u,[-1,1],d)) / (exact(1,d) / meas(t,[0,2],d))",
        "meas(t,[0,2],d) / (meas(u,[-1,1],d) / (meas(t,[0,2],d) / meas(u,[-1,1],d)))",
        "-(-meas(t,[0,2],d) / -(meas(u,[-1,1],d) - exact(1/2,d)))",
        "exact(3,d) / exact(-4,d) * -exact(2,d)",
        "meas(t,[0,2],d) * meas(u,[-1,1],d) - meas(t,[1,3],d)",
        "meas(t,[0,2],d)",
        "-meas(u,[-1,1],d)",
        "exact(5/3,d)",
        # self-quotients, whose operand is 0 under some of the environments below
        "meas(t,[0,2],d) / meas(t,[0,2],d)",
        "(meas(t,[0,2],d) - meas(u,[-1,1],d)) / (meas(t,[0,2],d) - meas(u,[-1,1],d))",
        "(meas(t,[0,2],d) * meas(u,[-1,1],d)) / (meas(t,[0,2],d) * meas(u,[-1,1],d))",
        "(meas(t,[0,2],d) / meas(u,[-1,1],d)) / (meas(t,[0,2],d) / meas(u,[-1,1],d))",
        "(exact(0,d) * meas(t,[0,2],d)) / (exact(0,d) * meas(t,[0,2],d))",
        # two leaves of one token under different intervals are not equal trees
        "meas(t,[-13,-7/4],d) / meas(t,[-12,-7/4],d)",
    ]

    @pytest.mark.parametrize("text", SPECIAL)
    def test_quotients_and_negations(self, text):
        e = parse(text)
        for t in (0, 1, 2, 3, F(1, 2), F(-7, 3)):
            for u in (0, -1, F(1, 3), F(1, 2), 1):
                env = TokenEnv({Token("t"): t, Token("u"): u})
                assert _agrees(env, e) == naive_evaluate(env, e)

    @pytest.mark.parametrize(
        "text, over_itself",
        [
            ("meas(t,[0,2],d) / meas(t,[0,2],d)", True),
            ("(meas(t,[0,2],d) - exact(1,d)) / (meas(t,[0,2],d) - exact(1,d))", True),
            ("exact(0,d) / exact(0,d)", True),
            # one token, so one register, but two intervals: not equal trees
            ("meas(t,[-13,-7/4],d) / meas(t,[-12,-7/4],d)", False),
            ("meas(t,[0,2],d) / meas(u,[0,2],d)", False),
        ],
    )
    def test_self_quotient_is_its_own_step(self, text, over_itself):
        assert (compile_expr(parse(text))._steps[-1][1] is _over_itself) is over_itself

    @pytest.mark.parametrize("wrap", list(CHAIN_WRAPS))
    def test_depth_800_chains(self, wrap):
        e = _chain(wrap)
        for k in (0, 1, 3):
            _agrees(_inner_env(e, k), e)
        _agrees(TokenEnv({t: 100 for t in tokens_of(e)}), e)  # inconsistent, ints
        _agrees(EMPTY_ENV, e)


MEMO_TREES = {
    "affine": "meas(t,[1,3],d) * exact(2,d) - meas(u,[0,1],d)",
    "product": "meas(t,[1,2],d) * meas(u,[1,2],d) / meas(t,[1,2],d)",
    "exact": "exact(1,d) / exact(3,d) - -exact(2,d)",
    "negated": "-meas(t,[1,2],d)",
}
MEMO_ENV = TokenEnv({Token("t"): F(3, 2), Token("u"): F(1, 2)})


class TestProgramMemo:
    """Every node keeps its program, built once per tree: by `parse` for a
    parsed root, and by the first `evaluate`, `token_consistent` or
    `exact_value` for any other tree.  No result, copy, pickle or
    comparison can tell."""

    @pytest.mark.parametrize("name", list(MEMO_TREES))
    def test_built_once_per_tree(self, compiles, name):
        e = parse(MEMO_TREES[name])
        assert compiles == [e]
        first = evaluate(MEMO_ENV, e), token_consistent(MEMO_ENV, e)
        for _ in range(3):
            assert (evaluate(MEMO_ENV, e), token_consistent(MEMO_ENV, e)) == first
        if name == "exact":
            assert exact_value(e) == first[0]
        assert compile_expr(e) is compile_expr(e)
        assert compiles == [e]

    def test_a_leaf_keeps_its_memos(self, compiles, affine_folds):
        # A leaf keeps its program and its fold as an operator node does:
        # `parse` builds a leaf root's program, and its fold is made once;
        # its fields, its pickle and its copies do not show them.
        for text in ("meas(t,[1,2],d)", "exact(3/2,d)"):
            del compiles[:], affine_folds[:]
            leaf = parse(text)
            assert compiles == [leaf]
            kept = {name: vars(leaf)[name] for name in fields(leaf)}
            cold = pickle.dumps(leaf)
            assert evaluate(MEMO_ENV, leaf) == evaluate(MEMO_ENV, leaf) == F(3, 2)
            assert to_affine(leaf) == to_affine(leaf)
            assert compiles == affine_folds == [leaf]
            assert {name: vars(leaf)[name] for name in kept} == kept
            assert pickle.dumps(leaf) == cold
            copies = copy.copy(leaf), copy.deepcopy(leaf), replace(leaf)
            for copied in (*copies, pickle.loads(cold)):
                assert copied == leaf and vars(copied) == kept
                del compiles[:]
                assert evaluate(MEMO_ENV, copied) == F(3, 2) and compiles == [copied]

    @pytest.mark.parametrize("name", list(MEMO_TREES))
    def test_memo_is_invisible_and_not_copied(self, compiles, name):
        e = parse(MEMO_TREES[name])
        before = pickle.dumps(e), repr(e), hash(e)
        value = evaluate(MEMO_ENV, e)
        assert (pickle.dumps(e), repr(e), hash(e)) == before
        assert e == parse(MEMO_TREES[name]) == pickle.loads(before[0])
        for cold in (copy.deepcopy(e), copy.copy(e), pickle.loads(pickle.dumps(e))):
            del compiles[:]
            assert evaluate(MEMO_ENV, cold) == value
            assert len(compiles) == 1 and compiles[0] is cold

    @pytest.mark.parametrize("wrap", list(CHAIN_WRAPS))
    def test_depth_800_chain_makes_no_fraction_arithmetic(self, fraction_ops, wrap):
        # The parent ran hundreds of Fraction operations per evaluation here.
        e = _chain(wrap)
        env = _inner_env(e)
        for _ in ("cold", "warm"):
            fraction_ops.clear()
            evaluate(env, e)
            assert sum(fraction_ops.values()) <= 2, fraction_ops


# --- each token's box, kept by the program -------------------------------------


def _walked(e: Expr) -> tuple[dict | None, Token | None]:
    """The `effective_intervals` walk's answer: (boxes, None), or (None, the
    token whose box empties first) when some box is empty."""
    try:
        return effective_intervals(e), None
    except InfeasibleTokenError as ex:
        return None, ex.token


def _scattered(rng: random.Random, e: Expr) -> Expr:
    """e with each measured leaf declared under an interval of its own,
    drawn anywhere in [-10, 10], so some tokens' intervals are disjoint."""

    def leaf(node: Expr) -> Expr:
        return Meas(node.token, rand_interval(rng), node.dim) if type(node) is Meas else node

    return fold(e, leaf, {cls: cls for cls in (Add, Sub, Mul, Div, Neg)})


def _box_corpus(perfbench_texts) -> list[Expr]:
    """Parsed trees, constructor-built ones and their cold copies: exprgen's
    trees, some with tokens re-declared under overlapping intervals and some
    under scattered ones, perfbench's seed-1 texts, and the hand-made trees
    of `BOX_TEXTS`."""
    built = []
    for seed in range(300):
        rng = random.Random(seed)
        gen = gen_affine if seed % 2 else gen_any
        e = gen(rng, token_boxes(rng), rng.randint(1, 15))
        built.append(redeclare(rng, e) if seed % 3 == 1 else _scattered(rng, e) if seed % 3 else e)
    parsed = [parse(format_expr(e)) for e in built]
    for text in [*BOX_TEXTS, *perfbench_texts((1,))]:
        try:
            parsed.append(parse(text))
        except (ParseError, IntervalOrderError):  # perfbench's `cli` calls read bad files too
            continue
    return built + parsed + [copy.deepcopy(e) for e in parsed]


BOX_TEXTS = {
    # t is declared under three overlapping intervals: its box is [2,3]
    "overlapping": "meas(t,[0,4],d) + meas(t,[1,5],d) * meas(u,[0,1],d) - meas(t,[2,3],d)",
    # u is met first, but t's box empties first, at the third leaf
    "two infeasible": "meas(u,[0,1],d) + meas(t,[0,1],d) * meas(t,[2,3],d) - meas(u,[2,3],d)",
}


class TestProgramBoxes:
    """A program keeps each token's box, the intersection of its leaves'
    intervals, and the first token whose box empties, as the
    `effective_intervals` walk finds them; `token_consistent` checks each
    token once, against its box."""

    def test_hand_made_trees(self):
        e = parse(BOX_TEXTS["overlapping"])
        program = compile_expr(e)
        assert program.boxes == {Token("t"): Interval.of(2, 3), Token("u"): Interval.of(0, 1)}
        assert program.infeasible is None and len(program._checks) == 2
        e = parse(BOX_TEXTS["two infeasible"])
        assert compile_expr(e).infeasible == Token("t") == _walked(e)[1]
        assert not token_consistent(TokenEnv({Token("t"): 0, Token("u"): 0}), e)
        with pytest.raises(InfeasibleTokenError, match="^token 't' admits no consistent value$"):
            to_affine(e)

    def test_program_matches_the_walk(self, perfbench_texts):
        infeasible = overlapping = 0
        for e in _box_corpus(perfbench_texts):
            program = compile_expr(e)
            boxes, token = _walked(e)
            assert program.infeasible == token, format_expr(e)
            if boxes is not None:
                assert list(program.boxes.items()) == list(boxes.items()), format_expr(e)
                leaves = {id(leaf): leaf for leaf in meas_leaves(e)}.values()
                overlapping += len({leaf.interval for leaf in leaves}) > len(boxes)
            infeasible += token is not None
        assert infeasible > 20 and overlapping > 50, (infeasible, overlapping)

    def test_token_consistent_matches_the_reference(self, perfbench_texts):
        verdicts: Counter = Counter()
        rng = random.Random(34)
        for e in _box_corpus(perfbench_texts)[::2]:
            boxes, _ = _walked(e)
            tokens = {leaf.token: leaf.interval for leaf in meas_leaves(e)}
            for _ in range(3):
                # A corner of the token's box (or of one of its intervals)
                # half the time, so both verdicts occur; otherwise anywhere.
                env = TokenEnv(
                    {
                        t: rng.choice((box.lo, box.hi))
                        if rng.random() < 0.5
                        else rand_rational(rng, -11, 11, 2)
                        for t, box in (boxes or tokens).items()
                    }
                )
                verdict = token_consistent(env, e)
                assert verdict is _reference_token_consistent(env, e), format_expr(e)
                if len(postorder(e)) < 600:  # the naive reference recurses: no long trees
                    assert verdict is naive_consistent(env, e), format_expr(e)
                verdicts[verdict, boxes is None] += 1
        assert verdicts[True, False] > 100 and verdicts[False, False] > 100, verdicts
        assert verdicts[False, True] > 50 and not verdicts[True, True], verdicts


class TestOneMemoPerTree:
    """A node keeps one memo, its program, and the program keeps the rest:
    each token's box, worked out once as the tree is built, and the affine
    fold's outcome."""

    @staticmethod
    def _ops(gen, workload):
        return [op for op in getattr(gen, workload)(1) if not op.probe]

    def test_nodes_keep_only_their_program(self, perfbench_gen, affine_folds):
        assert _Op.__slots__ == ("_program", "__weakref__")
        leaf, exact = parse("meas(t,[1,2],d)"), parse("exact(3/2,d)")
        sides = [(leaf, exact), (exact, leaf)]
        sides += [(parse(op.src), parse(op.tgt)) for op in self._ops(perfbench_gen, "suite")]
        for src, tgt in sides:
            assert audit_classification(classify(src, tgt), src, tgt)
        for src, tgt in sides:
            for node in (*postorder(src), *postorder(tgt)):
                if not isinstance(node, _Op):
                    assert set(vars(node)) <= {*fields(node), "_program"}
        for e in leaf, exact:
            assert list(vars(e)) == [*fields(e), "_program"]
        del affine_folds[:]
        for src, tgt in sides:
            assert audit_classification(classify(src, tgt), src, tgt)
        assert affine_folds == []

    @pytest.mark.parametrize("workload", ["suite", "wide"])
    def test_boxes_are_worked_out_once_per_tree(self, perfbench_gen, workload):
        # A profile hook counts the calls, whatever name a caller binds.
        codes = {effective_intervals.__code__, narrow_box.__code__}
        calls: Counter = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                calls[frame.f_code.co_name] += 1

        leaves = 0
        for op in self._ops(perfbench_gen, workload):
            sys.setprofile(profile)
            try:
                src, tgt = parse(op.src), parse(op.tgt)
                assert audit_classification(classify(src, tgt, op.grid, op.budget), src, tgt)
            finally:
                sys.setprofile(None)
            for e in src, tgt:
                leaves += len({id(node) for node in postorder(e) if type(node) is Meas})
        assert calls["effective_intervals"] == 0
        assert 0 < calls["narrow_box"] <= leaves, (calls, leaves)
