"""The interval kernel of `enclosures/enclosure.py` as the package wrote it in
`Fraction` arithmetic, before it folded integer (numerator, denominator)
pairs: the interval table with `_hull`, `_div_bounds` and `_on_bounds`, the
leaf bounds of `over_approx` and of `blind_enclosure`, and the sampling
grid with `_grid_axis`, `grid_values` (the grid the package's sampler lays
on one token's box) and `_env_stream`.  Kept verbatim but for its imports,
this docstring, the name of the blind leaf function, which shared its
name with the token-level one, and the class of a blind exact leaf, which
is now `Exact` itself, as the reference that the differential tests in
`test_interval_kernel.py` compare the package with.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterator, Mapping

from enclosures.blind import BlindExpr, BlindMeas
from enclosures.expr import (
    UNBOUNDED,
    Add,
    Bounds,
    Div,
    Exact,
    Expr,
    Interval,
    Meas,
    Mul,
    Neg,
    Sub,
    Token,
    Unbounded,
    fold,
)


def _hull(*values: Fraction) -> Interval:
    return Interval(min(values), max(values))


def _div_bounds(a: Interval, b: Interval) -> Bounds:
    if b.lo == 0 and b.hi == 0:
        # Total division: everything over exactly zero collapses to zero.
        return Interval.point(0)
    if b.lo <= 0 <= b.hi:
        # Denominator values arbitrarily close to zero: no finite bounds.
        return UNBOUNDED
    return _hull(a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi)


def _on_bounds(op: Callable[..., Bounds]) -> Callable[..., Bounds]:
    """op over Intervals, extended to Bounds: any UNBOUNDED operand gives UNBOUNDED."""

    def extended(*operands: Bounds) -> Bounds:
        for b in operands:
            if isinstance(b, Unbounded):
                return UNBOUNDED
        return op(*operands)

    return extended


# Interval arithmetic: each operator's image on independent operand boxes.
_INTERVAL_OPS = {
    Add: lambda a, b: Interval(a.lo + b.lo, a.hi + b.hi),
    Sub: lambda a, b: Interval(a.lo - b.hi, a.hi - b.lo),
    Mul: lambda a, b: _hull(a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi),
    Div: _div_bounds,
    Neg: lambda a: Interval(-a.hi, -a.lo),
}

# The same on Bounds.  `fold` applies it to the token-level tree here and
# to the erased tree in enclosures.blind.
BOUNDS_OPS = {cls: _on_bounds(op) for cls, op in _INTERVAL_OPS.items()}


def over_approx(e: Expr) -> Bounds:
    """Interval bounds treating every measured occurrence independently.

    Identical to the token-erased enclosure by construction: widening the
    set of environments to occurrence-independent ones can only grow the
    image, so the result contains the warranted enclosure.
    """
    return fold(e, _leaf_bounds, BOUNDS_OPS)


def _leaf_bounds(e: Expr) -> Bounds:
    if isinstance(e, Exact):
        return Interval.point(e.value)
    if isinstance(e, Meas):
        return e.interval
    raise TypeError(f"not an expression node: {e!r}")


def blind_enclosure(b: BlindExpr) -> Bounds:
    """Compositional interval image of a token-erased expression.

    Exact leaves are singletons, measured leaves contribute their declared
    interval, and every occurrence is treated independently because no
    token identity survives erasure.
    """
    return fold(b, _blind_leaf_bounds, BOUNDS_OPS)


def _blind_leaf_bounds(b: BlindExpr) -> Bounds:
    if isinstance(b, Exact):
        return Interval.point(b.value)
    if isinstance(b, BlindMeas):
        return b.interval
    raise TypeError(f"not a blind expression node: {b!r}")


def grid_values(box: Interval, n: int) -> list[Fraction]:
    """Both endpoints plus n-2 evenly spaced interior rationals."""
    first, step, size = _grid_axis(box, n)
    return [first + k * step for k in range(size)]


def _grid_axis(box: Interval, n: int) -> tuple[Fraction, Fraction, int]:
    """(first, step, size) of a token's grid: value k is first + k * step."""
    if n < 2:
        raise ValueError("grid needs at least 2 points per token")
    if box.lo == box.hi:
        return box.lo, Fraction(0), 1
    return box.lo, (box.hi - box.lo) / (n - 1), n


def _corner_values(box: Interval) -> list[Fraction]:
    return [box.lo] if box.lo == box.hi else [box.lo, box.hi]


def _env_stream(
    tokens: list[Token],
    boxes: Mapping[Token, Interval],
    grid_points: int,
) -> Iterator[tuple[Fraction, ...]]:
    # Corner environments first: affine extremes live there, and the
    # refutation search in the classifier checks them before interiors.
    yield from itertools.product(*(_corner_values(boxes[t]) for t in tokens))
    # Then the rest of the grid in itertools.product order, driven by an
    # odometer over grid indices so no per-token grid is materialised.
    axes = [_grid_axis(boxes[t], grid_points) for t in tokens]
    index = [0] * len(axes)
    combo = [first for first, _, _ in axes]
    while True:
        if any(0 < k < size - 1 for k, (_, _, size) in zip(index, axes)):
            yield tuple(combo)  # all-corner combinations were emitted above
        for i in reversed(range(len(axes))):
            first, step, size = axes[i]
            index[i] = (index[i] + 1) % size
            combo[i] = first + index[i] * step
            if index[i]:
                break
        else:
            return
