"""Token-erased expressions and their compositional interval semantics.

Erasing tokens keeps intervals, dimension tags, and tree shape but drops
observation identity, so repeated leaves are summarized independently.
The blind enclosure and `over_approx` are one interval fold
(`enclosure._interval_image`) of the erased and of the token-level tree, so
the two agree by construction (the dependency problem in its classic form).
The comparator at the bottom packages the demonstration that this
summary cannot recover the token-sensitive rewrite class.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .enclosure import DEFAULT_ENV_BUDGET, DEFAULT_GRID_POINTS, _interval_image
from .expr import (
    Add,
    Bounds,
    Dim,
    Div,
    Exact,
    Expr,
    Interval,
    Meas,
    Mul,
    Neg,
    Sub,
    fold,
    format_tree,
)
from .record import record
from .rewrite import Classification, classify


@record
class BlindExact:
    value: Fraction
    dim: Dim


@record
class BlindMeas:
    """A measured leaf with its token forgotten."""

    interval: Interval
    dim: Dim


# Arithmetic nodes are shared with the token-level syntax; only the leaf
# constructors differ between the two trees.
BlindExpr = Union[BlindExact, BlindMeas, Add, Sub, Mul, Div, Neg]


def forget_tokens(e: Expr) -> BlindExpr:
    """Erase tokens from measured leaves; homomorphic everywhere else."""
    return fold(e, _forget_leaf, _REBUILD)


def _forget_leaf(e: Expr) -> BlindExpr:
    if isinstance(e, Exact):
        return BlindExact(e.value, e.dim)
    if isinstance(e, Meas):
        return BlindMeas(e.interval, e.dim)
    raise TypeError(f"not an expression node: {e!r}")


# Each operator is rebuilt as itself over the erased operands.
_REBUILD = {cls: cls for cls in (Add, Sub, Mul, Div, Neg)}


def blind_enclosure(b: BlindExpr) -> Bounds:
    """Compositional interval image of a token-erased expression.

    Exact leaves are singletons, measured leaves contribute their declared
    interval, and every occurrence is treated independently because no
    token identity survives erasure.
    """
    return _interval_image(b)


def format_blind(b: BlindExpr) -> str:
    """Render a token-erased tree; measured leaves print without a token."""
    return format_tree(b, _blind_leaf_text)


def _blind_leaf_text(b: BlindExpr) -> str:
    if isinstance(b, BlindExact):
        return f"exact({b.value},{b.dim})"
    if isinstance(b, BlindMeas):
        return f"meas({b.interval},{b.dim})"
    raise TypeError(f"not a blind expression node: {b!r}")


# --- the blind-view comparator ------------------------------------------------


@record
class ComparisonReport:
    """Blind-view agreement versus token-sensitive classification.

    When `erased_equal` and `bounds_equal` hold while the two
    classifications differ, the pair witnesses that interval bounds,
    dimension tags, and erased syntax together underdetermine the rewrite
    class.
    """

    expr1: Expr
    expr2: Expr
    target: Expr | None
    blind1: BlindExpr
    blind2: BlindExpr
    erased_equal: bool
    bounds1: Bounds
    bounds2: Bounds
    bounds_equal: bool
    class1: Classification
    class2: Classification

    @property
    def classes_differ(self) -> bool:
        return self.class1.kind != self.class2.kind

    @property
    def demonstrates_insufficiency(self) -> bool:
        return self.erased_equal and self.bounds_equal and self.classes_differ


def blind_compare(
    e1: Expr,
    e2: Expr,
    target: Expr | None = None,
    *,
    grid_points: int = DEFAULT_GRID_POINTS,
    budget: int = DEFAULT_ENV_BUDGET,
) -> ComparisonReport:
    """Compare two expressions through their token-erased summaries.

    Classifies each expression against `target` when given, otherwise the
    two expressions against each other.
    """
    blind1 = forget_tokens(e1)
    blind2 = forget_tokens(e2)
    bounds1 = blind_enclosure(blind1)
    bounds2 = blind_enclosure(blind2)
    if target is not None:
        class1 = classify(e1, target, grid_points, budget)
        class2 = classify(e2, target, grid_points, budget)
    else:
        class1 = classify(e1, e2, grid_points, budget)
        class2 = classify(e2, e1, grid_points, budget)
    return ComparisonReport(
        expr1=e1,
        expr2=e2,
        target=target,
        blind1=blind1,
        blind2=blind2,
        erased_equal=blind1 == blind2,
        bounds1=bounds1,
        bounds2=bounds2,
        bounds_equal=bounds1 == bounds2,
        class1=class1,
        class2=class2,
    )
