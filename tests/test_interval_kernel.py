"""The interval kernel on integer pairs against its `Fraction` reference.

`over_approx`, `blind_enclosure`, `grid_values` and the order in which
`_env_stream` draws a grid are compared with `interval_reference.py`, the
kernel as it was written in `Fraction` arithmetic: on seeded trees, on
edge boxes, on total division and UNBOUNDED operands, on depth-800 right
chains and on hand-built blind leaves.  Work counts then check that the
bound and the grid set-up make no `Fraction` arithmetic call, and that a
grid with no interior value is not walked again once its corners are out.
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction as F

import pytest

import interval_reference as ref
from enclosures import (
    Add,
    BlindExact,
    BlindMeas,
    Div,
    Exact,
    InfeasibleTokenError,
    Interval,
    Meas,
    Mul,
    Neg,
    Sub,
    Token,
    UNBOUNDED,
    blind_enclosure,
    effective_intervals,
    forget_tokens,
    grid_values,
    over_approx,
    parse,
    under_approx_samples,
)
from enclosures.enclosure import SampleStream
from exprgen import CHAIN_WRAPS, D, gen_any, long_affine_text, redeclare, token_boxes

EDGE_BOXES = [
    Interval.of(0, 3),
    Interval.of(-2, 0),
    Interval.of(0, 0),
    Interval.of(-5, -1),
    Interval.of("-7/3", "-1/1000003"),
    Interval.point(F(7, 3)),
    Interval.point(F(-1, 1000003)),
    Interval.of("1/1000003", "7/3"),
    Interval.of(-1, "7/3"),
]
BINARY = (Add, Sub, Mul, Div)
PRODUCT = " * ".join(f"meas(t{i},[1,{i + 2}],d)" for i in range(6))


def _chain(wrap: str):
    """A depth-800 right chain joined as CHAIN_WRAPS[wrap] says."""
    return parse(long_affine_text(random.Random(800), 800, 200, True, CHAIN_WRAPS[wrap]))


def _outcome(f, *args):
    """repr of f(*args), or the class and message of what it raised."""
    try:
        return repr(f(*args))
    except Exception as ex:
        return type(ex), str(ex)


def _assert_bounds_match(e):
    got = _outcome(over_approx, e)
    assert got == _outcome(ref.over_approx, e), e
    blind = forget_tokens(e)
    assert _outcome(blind_enclosure, blind) == _outcome(ref.blind_enclosure, blind) == got


def _reference_draws(e, grid_points):
    """The value tuples the reference `_env_stream` yields for e's grid."""
    boxes = effective_intervals(e)
    tokens = sorted(boxes, key=lambda t: t.name)
    return list(ref._env_stream(tokens, boxes, grid_points))


def _assert_grid_matches(e, grid_points, env_draws):
    try:
        boxes = effective_intervals(e)
    except InfeasibleTokenError:
        return
    for box in boxes.values():
        assert repr(grid_values(box, grid_points)) == repr(ref.grid_values(box, grid_points))
    del env_draws[:]
    samples = under_approx_samples(e, grid_points, 10**6)
    assert repr(env_draws) == repr(_reference_draws(e, grid_points))
    assert len(samples) == len(env_draws)


class TestMatchesReference:
    @pytest.mark.parametrize("seed", range(60))
    def test_seeded_trees(self, seed, env_draws):
        rng = random.Random(seed)
        e = gen_any(rng, token_boxes(rng), rng.randint(1, 13))
        for tree in (e, redeclare(rng, e)):
            _assert_bounds_match(tree)
            for grid in (2, 3, 4):
                _assert_grid_matches(tree, grid, env_draws)

    def test_edge_boxes(self):
        leaves = [Meas(Token(f"t{i}"), box, D) for i, box in enumerate(EDGE_BOXES)]
        leaves += [Exact(F(0), D), Exact(F(-7, 3), D), Exact(F(1, 1000003), D)]
        for a in leaves:
            _assert_bounds_match(Neg(a))
            for b, cls in itertools.product(leaves, BINARY):
                _assert_bounds_match(cls(a, b))

    def test_edge_grids(self, env_draws):
        for box, n in itertools.product(EDGE_BOXES, (2, 3, 4, 5, 7)):
            assert repr(grid_values(box, n)) == repr(ref.grid_values(box, n))
        for boxes in itertools.combinations(EDGE_BOXES, 3):
            a, b, c = (Meas(Token(f"t{i}"), box, D) for i, box in enumerate(boxes))
            e = Add(Mul(a, b), c)
            for grid in (2, 3, 5):
                _assert_grid_matches(e, grid, env_draws)

    def test_too_few_points(self):
        for box in (Interval.of(0, 1), Interval.point(F(3))):
            assert _outcome(grid_values, box, 1) == _outcome(ref.grid_values, box, 1)

    @pytest.mark.parametrize("cls", BINARY)
    def test_total_division_and_unbounded_either_side(self, cls):
        x = parse("meas(x,[-2,3],d)")
        over_zero = Div(x, Exact(F(0), D))  # the point 0
        over_point_zero = Div(x, Meas(Token("z"), Interval.of(0, 0), D))  # the point 0
        unbounded = Div(x, parse("meas(y,[-1,1],d)"))
        touching = Div(x, parse("meas(w,[0,2],d)"))
        for special in (over_zero, over_point_zero, unbounded, touching):
            for other in (x, special, Exact(F(0), D)):
                _assert_bounds_match(cls(special, other))
                _assert_bounds_match(cls(other, special))
            _assert_bounds_match(Neg(special))
        assert over_approx(unbounded) is UNBOUNDED is over_approx(cls(x, unbounded))
        assert over_approx(over_zero) == Interval.point(0) == over_approx(over_point_zero)

    @pytest.mark.parametrize("wrap", list(CHAIN_WRAPS))
    def test_depth_800_right_chains(self, wrap):
        e = _chain(wrap)
        _assert_bounds_match(e)
        _assert_bounds_match(Mul(e, Neg(e)))

    @pytest.mark.parametrize("value", [3, F(-7, 3), "1/2", "-7/3", 0.5, "x", None])
    def test_hand_built_blind_leaves(self, value):
        # Leaf values convert as Interval.point converts them: an int converts,
        # a string parses, and a float or any other value raises TypeError.
        meas = BlindMeas(Interval.of(-1, 2), D)
        trees = [BlindExact(value, D), Neg(BlindExact(value, D))]
        trees += [cls(BlindExact(value, D), meas) for cls in BINARY]
        trees += [cls(meas, BlindExact(value, D)) for cls in BINARY]
        for b in trees:
            assert _outcome(blind_enclosure, b) == _outcome(ref.blind_enclosure, b), b

    def test_hand_built_blind_leaf_values(self):
        assert blind_enclosure(BlindExact("1/2", D)) == Interval.point(F(1, 2))
        assert blind_enclosure(BlindExact(3, D)) == Interval.point(F(3))
        with pytest.raises(TypeError):
            blind_enclosure(BlindExact(0.5, D))


class TestWork:
    """Fraction arithmetic calls and profiler events: work counts that do
    not depend on the machine."""

    @pytest.mark.parametrize("name", ["product", *CHAIN_WRAPS])
    def test_over_approx_makes_no_fraction_arithmetic(self, fraction_ops, name):
        # The Fraction kernel made 20 calls per bound on the product here.
        e = parse(PRODUCT) if name == "product" else _chain(name)
        fraction_ops.clear()
        over_approx(e)
        blind_enclosure(forget_tokens(e))
        assert not fraction_ops, fraction_ops

    def test_sample_stream_set_up_makes_no_fraction_arithmetic(self, fraction_ops):
        # The Fraction kernel made 4 calls per token of the product here.
        e = parse(PRODUCT)
        fraction_ops.clear()
        stream = SampleStream(e, 5, 100)
        assert stream.required == 5**6
        assert not fraction_ops, fraction_ops

    @pytest.mark.parametrize("box", ["[1,2]", "[3,3]"])
    def test_no_walk_once_the_corners_are_out(self, box):
        # With no interior value on any axis the corners are the whole grid.
        # The odometer used to walk all 2^k index combinations again after
        # them, yielding nothing: 467 521 profiler events at [1,2], and 811
        # at [3,3], where it took one step through all 12 axes.
        k = 12
        e = parse(" * ".join(f"meas(t{i},{box},d)" for i in range(k)))
        stream = SampleStream(e, 2, 10**6)
        corners = 2**k if box == "[1,2]" else 1
        assert len(list(itertools.islice(stream, corners))) == corners == stream.required
        events = []
        sys.setprofile(lambda frame, event, arg: events.append(event))
        try:
            more = stream._draw()
        finally:
            sys.setprofile(None)
        assert not more
        assert len(events) < 100, len(events)
