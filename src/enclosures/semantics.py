"""Token environments and structural evaluation.

An environment is one possible world: it fixes a single hidden exact
rational per observation token.  Evaluation is total; in particular
division by zero yields zero, so every expression denotes a rational in
every world.  An environment is consistent with an expression when each
measured leaf's interval contains the value assigned to its token, which
makes repeated occurrences of one token carry one shared value.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Mapping

from .expr import Add, Div, Exact, Expr, Interval, Meas, Mul, Neg, Sub, Token, postorder
from .expr import InfeasibleTokenError, _fraction, narrow_box
from .record import record

_ZERO = Fraction(0)


class NotExactError(Exception):
    """Raised when an exact value is requested for a measured expression."""


@record
class TokenEnv:
    """Finite map from tokens to rationals; unbound tokens read as default.

    Values are Fractions: an int or other rational is converted, and a
    float or any other value raises TypeError.  No bindings means a fresh
    empty map.

    Only tokens occurring in an expression can influence its value, so the
    default for the rest is observationally irrelevant.
    """

    bindings: Mapping[Token, Fraction] | None = None
    default: Fraction = _ZERO

    def __post_init__(self) -> None:
        if self.bindings is None:
            object.__setattr__(self, "bindings", {})
        if type(self.default) is not Fraction or any(
            type(v) is not Fraction for v in self.bindings.values()
        ):
            bindings = {t: _fraction(v) for t, v in self.bindings.items()}
            object.__setattr__(self, "bindings", bindings)
            object.__setattr__(self, "default", _fraction(self.default))

    def value(self, token: Token) -> Fraction:
        return self.bindings.get(token, self.default)

    def sorted_items(self) -> list[tuple[Token, Fraction]]:
        return sorted(self.bindings.items(), key=lambda kv: kv[0].name)

    def __str__(self) -> str:
        body = ", ".join(f"{t}={v}" for t, v in self.sorted_items())
        return "{" + body + "}"


EMPTY_ENV = TokenEnv()


# A register's value: a reduced integer (numerator, denominator) pair, with
# the denominator positive.
_Pair = tuple[int, int]


def _add(a: _Pair, b: _Pair) -> _Pair:
    (p, q), (r, s) = a, b
    n, d = p * s + r * q, q * s
    g = gcd(n, d)
    return n // g, d // g


def _sub(a: _Pair, b: _Pair) -> _Pair:
    (p, q), (r, s) = a, b
    n, d = p * s - r * q, q * s
    g = gcd(n, d)
    return n // g, d // g


def _mul(a: _Pair, b: _Pair) -> _Pair:
    (p, q), (r, s) = a, b
    n, d = p * r, q * s
    g = gcd(n, d)
    return n // g, d // g


def _quotient(a: _Pair, b: _Pair) -> _Pair:
    (p, q), (r, s) = a, b
    if not r:
        return 0, 1  # total division: x / 0 = 0
    n, d = (p * s, q * r) if r > 0 else (-p * s, -q * r)
    g = gcd(n, d)
    return n // g, d // g


def _less(a: _Pair, b: _Pair) -> bool:
    """a < b, cross-multiplied: both denominators are positive."""
    return a[0] * b[1] < b[0] * a[1]


def _negate(a: _Pair, _: _Pair) -> _Pair:
    return -a[0], a[1]


def _over_itself(_: _Pair, b: _Pair) -> _Pair:
    """x / x for one subtree x: 1, or 0 where x is 0, as total division gives."""
    return (1, 1) if b[0] else (0, 1)


def _ends(box: Interval) -> tuple[_Pair, _Pair]:
    return box.lo.as_integer_ratio(), box.hi.as_integer_ratio()


_STEP = {Add: _add, Sub: _sub, Mul: _mul, Div: _quotient, Neg: _negate}


class Compiled:
    """A tree flattened once into a straight-line program over registers.

    It is built children first: `leaf` for each distinct leaf node, `step`
    for each operator, and `finish`, which keeps it on the root; `parse`
    calls these as it completes each node, `Compiled(e)` over `postorder(e)`.
    Constants are filled in here, each distinct token gets one register
    that the token lookup loads, and each operator is one step over earlier
    registers.  A quotient of two equal subtrees is an `_over_itself` step,
    so `enclosure.to_affine`, which reads its fold off this program, knows a
    self-quotient by its step.  Registers hold reduced integer pairs, so a
    run makes one Fraction, at the end.  `boxes` is each token's
    `effective_intervals` box, in first-met order, and `infeasible` the
    first token whose box empties, or None; `_checks` holds each box's
    ends as pairs.  The program keeps no node, so a tree holds no reference
    cycle through it, not even a lone leaf, which keeps its own program.
    """

    def __init__(self, e: Expr | None = None):
        self._registers: list[_Pair | None] = []
        self._loads: list[tuple[int, Token]] = []
        self._steps: list[tuple[int, Callable[[_Pair, _Pair], _Pair], int, int]] = []
        self.boxes: dict[Token, Interval] = {}
        self.infeasible: Token | None = None
        self._affine = None  # the affine fold's outcome, kept by enclosure._fold_outcome
        self._token_registers: dict[str, int] = {}  # by token name, which hashes in C
        if e is None:
            return
        pending: list[int] = []  # registers of subtrees whose parent is still to come
        seen: dict[int, int] = {}  # a leaf node's register, by its id, as a parse shares them
        for node in postorder(e):
            cls = type(node)
            if cls is Neg:
                k = pending.pop()
                k = self.step(Neg, node.operand, node.operand, k, k)
            elif cls in _STEP:
                j, i = pending.pop(), pending.pop()
                k = self.step(cls, node.lhs, node.rhs, i, j)
            elif (k := seen.get(id(node))) is None:
                k = seen[id(node)] = self.leaf(node)
            pending.append(k)
        self.finish(e)

    def leaf(self, node: Expr) -> int:
        """The register of a leaf node not met before: its constant's, or its token's."""
        k = len(self._registers)
        if type(node) is Exact:
            self._registers.append(node.value.as_integer_ratio())
        elif type(node) is not Meas:
            raise TypeError(f"not an expression node: {node!r}")
        else:
            try:
                narrow_box(self.boxes, node.token, node.interval)
            except InfeasibleTokenError as ex:  # the box keeps its last nonempty value
                self.infeasible = self.infeasible or ex.token
            k = self._token_registers.setdefault(node.token.name, k)
            if k == len(self._registers):  # the token's first leaf
                self._loads.append((k, node.token))
                self._registers.append(None)
        return k

    def step(self, cls: type, lhs: Expr, rhs: Expr, i: int, j: int) -> int:
        """The register of the cls node over lhs and rhs, whose registers are
        i and j; a Neg's one operand fills both places."""
        k = len(self._registers)
        self._steps.append((k, _over_itself if cls is Div and lhs == rhs else _STEP[cls], i, j))
        self._registers.append(None)
        return k

    def finish(self, root: Expr) -> None:
        """Keep the program on root, the last node built, whose register is the last."""
        self._checks = [(token, *_ends(box)) for token, box in self.boxes.items()]
        self._root = len(self._registers) - 1
        object.__setattr__(root, "_program", self)

    def __call__(self, value_of: Callable[[Token], Fraction]) -> Fraction:
        """The tree's value, where value_of(t) is token t's value; division
        is total, as in `evaluate`."""
        values = self._registers.copy()
        for k, token in self._loads:
            values[k] = value_of(token).as_integer_ratio()
        for k, step, i, j in self._steps:
            values[k] = step(values[i], values[j])
        return Fraction(*values[self._root])


def compile_expr(e: Expr) -> Compiled:
    """e's program, which can then be run under many environments.

    Trees are immutable, so every node, leaf or operator, keeps its
    program in a private attribute, its one memo, and the program is built
    once per tree: by `parser.parse` for a parsed root, and here, on the
    first read, for any other tree.  Evaluation, consistency checks,
    sampling, each token's box and the affine fold, which it keeps too,
    all read this one.  Equality, hashing, repr, pickle and copy ignore
    the memo, so `copy.deepcopy(e)` is a cold tree.
    """
    program = getattr(e, "_program", None)
    return Compiled(e) if program is None else program  # which it keeps on e


def evaluate(env: TokenEnv, e: Expr) -> Fraction:
    """Total structural evaluation under one hidden-value world."""
    return compile_expr(e)(env.value)


def token_consistent(env: TokenEnv, e: Expr) -> bool:
    """True iff every measured leaf's interval contains its token's value.

    The condition is indexed by tokens, not leaf positions: two leaves
    sharing a token are checked against the same assigned value.  A value
    lies in each of its token's intervals exactly when it lies in their
    intersection, the token's box in e's program, so each token is checked
    once, against its box, with integer pairs, and no check walks the tree.
    """
    program = compile_expr(e)
    if program.infeasible is not None:  # no value lies in an empty box
        return False
    value = env.value
    for token, (p, q), (r, s) in program._checks:
        n, d = value(token).as_integer_ratio()
        if n * q < p * d or r * d < n * s:  # below lo or above hi
            return False
    return True


def exact_value(e: Expr) -> Fraction:
    """Value of a measurement-free expression; independent of any world."""
    program = compile_expr(e)
    if program._loads:
        raise NotExactError("expression contains a measured leaf")
    return program(EMPTY_ENV.value)
