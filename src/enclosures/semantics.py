"""Token environments and structural evaluation.

An environment is one possible world: it fixes a single hidden exact
rational per observation token.  Evaluation is total; in particular
division by zero yields zero, so every expression denotes a rational in
every world.  An environment is consistent with an expression when each
measured leaf's interval contains the value assigned to its token, which
makes repeated occurrences of one token carry one shared value.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

from .expr import Add, Div, Exact, Expr, Meas, Mul, Neg, Sub, Token, is_exact, postorder

_ZERO = Fraction(0)


class NotExactError(Exception):
    """Raised when an exact value is requested for a measured expression."""


@dataclass(frozen=True)
class TokenEnv:
    """Finite map from tokens to rationals; unbound tokens read as default.

    Only tokens occurring in an expression can influence its value, so the
    default for the rest is observationally irrelevant.
    """

    bindings: Mapping[Token, Fraction] = field(default_factory=dict)
    default: Fraction = _ZERO

    def value(self, token: Token) -> Fraction:
        return self.bindings.get(token, self.default)

    def sorted_items(self) -> list[tuple[Token, Fraction]]:
        return sorted(self.bindings.items(), key=lambda kv: kv[0].name)

    def __str__(self) -> str:
        body = ", ".join(f"{t}={v}" for t, v in self.sorted_items())
        return "{" + body + "}"


EMPTY_ENV = TokenEnv()


# A compiled expression maps a token lookup to the expression's value.
Compiled = Callable[[Callable[[Token], Fraction]], Fraction]


def _quotient(a: Fraction, b: Fraction) -> Fraction:
    return a / b if b else _ZERO


def _negate(a: Fraction, _: Fraction) -> Fraction:
    return -a


_STEP = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: _quotient}


def compile_expr(e: Expr) -> Compiled:
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


def evaluate(env: TokenEnv, e: Expr) -> Fraction:
    """Total structural evaluation under one hidden-value world."""
    return compile_expr(e)(env.value)


def token_consistent(env: TokenEnv, e: Expr) -> bool:
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


def exact_value(e: Expr) -> Fraction:
    """Value of a measurement-free expression; independent of any world."""
    if not is_exact(e):
        raise NotExactError("expression contains a measured leaf")
    return evaluate(EMPTY_ENV, e)

