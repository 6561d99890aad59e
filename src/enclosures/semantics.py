"""Token environments and structural evaluation.

An environment is one possible world: it fixes a single hidden exact
rational per observation token.  Evaluation is total; in particular
division by zero yields zero, so every expression denotes a rational in
every world.  An environment is consistent with an expression when each
measured leaf's interval contains the value assigned to its token, which
makes repeated occurrences of one token carry one shared value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

from .expr import Add, Div, Exact, Expr, Meas, Mul, Neg, Sub, Token, is_exact
from .parser import ParseError, parse_rational

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


def compile_expr(e: Expr) -> Compiled:
    """Walk the tree once into nested closures that evaluate it per world.

    The closure takes a token lookup (for instance ``env.value``), so one
    compiled expression can be run under many environments without
    re-dispatching on node types; division is total, as in `evaluate`.
    """
    match e:
        case Exact(value, _):
            return lambda value_of: value
        case Meas(token, _, _):
            return lambda value_of: value_of(token)
        case Add(lhs, rhs):
            left, right = compile_expr(lhs), compile_expr(rhs)
            return lambda value_of: left(value_of) + right(value_of)
        case Sub(lhs, rhs):
            left, right = compile_expr(lhs), compile_expr(rhs)
            return lambda value_of: left(value_of) - right(value_of)
        case Mul(lhs, rhs):
            left, right = compile_expr(lhs), compile_expr(rhs)
            return lambda value_of: left(value_of) * right(value_of)
        case Div(lhs, rhs):
            left, right = compile_expr(lhs), compile_expr(rhs)

            def quotient(value_of: Callable[[Token], Fraction]) -> Fraction:
                denominator = right(value_of)
                if denominator == 0:
                    return _ZERO
                return left(value_of) / denominator

            return quotient
        case Neg(operand):
            inner = compile_expr(operand)
            return lambda value_of: -inner(value_of)
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(env: TokenEnv, e: Expr) -> Fraction:
    """Total structural evaluation under one hidden-value world."""
    return compile_expr(e)(env.value)


def token_consistent(env: TokenEnv, e: Expr) -> bool:
    """True iff every measured leaf's interval contains its token's value.

    The condition is indexed by tokens, not leaf positions: two leaves
    sharing a token are checked against the same assigned value, once per
    declared interval.
    """
    match e:
        case Exact():
            return True
        case Meas(token, interval, _):
            return interval.contains(env.value(token))
        case Add(lhs, rhs) | Sub(lhs, rhs) | Mul(lhs, rhs) | Div(lhs, rhs):
            return token_consistent(env, lhs) and token_consistent(env, rhs)
        case Neg(operand):
            return token_consistent(env, operand)
    raise TypeError(f"not an expression node: {e!r}")


def exact_value(e: Expr) -> Fraction:
    """Value of a measurement-free expression; independent of any world."""
    if not is_exact(e):
        raise NotExactError("expression contains a measured leaf")
    return evaluate(EMPTY_ENV, e)


def parse_env(text: str) -> TokenEnv:
    """Parse an environment file: one "token = rational" binding per line.

    Blank lines and "#" comments are allowed; later bindings for the same
    token win; unlisted tokens default to 0.
    """
    bindings: dict[Token, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, sep, value_text = line.partition("=")
        if not sep:
            raise ParseError(f"line {lineno}: expected 'token = rational'", lineno)
        name = name.strip()
        if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", name):
            raise ParseError(f"line {lineno}: bad token name {name!r}", lineno)
        try:
            value = parse_rational(value_text.strip())
        except ParseError:
            raise ParseError(f"line {lineno}: bad rational {value_text.strip()!r}", lineno) from None
        bindings[Token(name)] = value
    return TokenEnv(bindings)
