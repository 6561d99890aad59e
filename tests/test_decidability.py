"""How many random pairs the ladder leaves undetermined, as a yardstick.

A rung added to the containment ladder may only turn undetermined pairs
into decided ones, so each count below may fall but never rise.  The
commuted corpus pairs each source with the copy that swaps every `+` and
`*` operand: the two are the same function on the same boxes, so any
decided class between them other than interchangeable is unsound.
"""

import random

from enclosures import Add, Div, Mul, Neg, RewriteClass, Sub, classify
from enclosures.expr import fold
from exprgen import gen_any, token_boxes

SEEDS = range(300)
GRID, BUDGET = 3, 2000

# The counts when this test was written: 84 of 300 random pairs and 33 of
# the 82 commuted copies that differ from their source.
RANDOM_UNDETERMINED = 84
COMMUTED_UNDETERMINED = 33
COMMUTED_PAIRS = 82

_COMMUTE = {
    Add: lambda a, b: Add(b, a),
    Mul: lambda a, b: Mul(b, a),
    Sub: Sub,
    Div: Div,
    Neg: Neg,
}


def commuted(e):
    """e with the operands of every `+` and `*` swapped."""
    return fold(e, lambda leaf: leaf, _COMMUTE)


def _corpus():
    for seed in SEEDS:
        rng = random.Random(seed)
        boxes = token_boxes(rng, 3)
        yield gen_any(rng, boxes, rng.randint(1, 9)), gen_any(rng, boxes, rng.randint(1, 9))


def test_random_pairs_undetermined_at_most_baseline():
    kinds = [classify(src, tgt, GRID, BUDGET).kind for src, tgt in _corpus()]
    assert kinds.count(RewriteClass.UNDETERMINED) <= RANDOM_UNDETERMINED


def test_commuted_pairs_are_never_decided_apart():
    kinds = [
        classify(src, copy, GRID, BUDGET).kind
        for src, _ in _corpus()
        if (copy := commuted(src)) != src
    ]
    assert len(kinds) == COMMUTED_PAIRS
    assert set(kinds) <= {RewriteClass.INTERCHANGEABLE, RewriteClass.UNDETERMINED}
    assert kinds.count(RewriteClass.UNDETERMINED) <= COMMUTED_UNDETERMINED
