"""Core syntax: observation tokens, dimension tags, intervals, and the AST.

A measured leaf carries three things: an observation token naming the
measurement event, a closed rational interval of values the hidden exact
reading may take, and a dimension tag.  Token identity is semantic: two
leaves with the same token denote the same hidden value, while two leaves
with distinct tokens may vary independently even when their intervals and
tags coincide.  Dimension tags are carried along by the syntax but never
consulted during evaluation.
"""

from __future__ import annotations

import itertools
import numbers
import re
from fractions import Fraction
from typing import Callable, Iterator, Mapping, TypeVar, Union

from .record import fields, record


class IntervalOrderError(ValueError):
    """An interval literal has its lower endpoint above its upper one."""


class InfeasibleTokenError(Exception):
    """A token's declared intervals have empty intersection."""

    def __init__(self, token: "Token"):
        super().__init__(f"token {token.name!r} admits no consistent value")
        self.token = token


@record
class Token:
    """Opaque identity of one observation event; only equality matters."""

    name: str

    def __hash__(self) -> int:  # a record's hash builds a tuple per call
        return hash(self.name)

    def __str__(self) -> str:
        return self.name


@record
class Dim:
    """Dimension tag compared only syntactically; no units algebra."""

    tag: str

    def __hash__(self) -> int:
        return hash(self.tag)

    def __str__(self) -> str:
        return self.tag


def _fraction(x: object) -> Fraction:
    """x as a Fraction: an int or other rational converts, and a float or any
    other value raises TypeError, so no inexact number enters a tree."""
    if isinstance(x, numbers.Rational):
        return Fraction(x)
    raise TypeError(f"expected a rational number, got {type(x).__name__} {x!r}")


def _parsed(x: object) -> Fraction:
    """x as a Fraction, as `_fraction` converts it, or a string Fraction parses."""
    return Fraction(x) if isinstance(x, str) else _fraction(x)


@record
class Interval:
    """Closed rational interval [lo, hi]; nonempty by construction.

    The ends are Fractions: ints and other rationals are converted, and any
    other value raises TypeError.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if type(self.lo) is not Fraction or type(self.hi) is not Fraction:
            object.__setattr__(self, "lo", _fraction(self.lo))
            object.__setattr__(self, "hi", _fraction(self.hi))
        (p, q), (r, s) = self.lo.as_integer_ratio(), self.hi.as_integer_ratio()
        if p * s > r * q:  # lo > hi, cross-multiplied: both denominators are positive
            raise IntervalOrderError(f"interval [{self.lo},{self.hi}] has lo > hi")

    @classmethod
    def of(cls, lo, hi) -> "Interval":
        """Build from ints, Fractions or strings Fraction parses ("3/4",
        "1.5"); a float or any other value raises TypeError."""
        return cls(_parsed(lo), _parsed(hi))

    @classmethod
    def point(cls, q) -> "Interval":
        q = _parsed(q)
        return cls(q, q)

    def contains(self, q: Fraction) -> bool:
        (p, r), (s, t) = self.lo.as_integer_ratio(), self.hi.as_integer_ratio()
        n, d = q.as_integer_ratio()
        return p * d <= n * r and n * t <= s * d  # lo <= q <= hi, cross-multiplied

    def intersect(self, other: "Interval") -> Union["Interval", None]:
        """Intersection, or None when the intervals are disjoint.

        They meet exactly when one's lower end lies in the other, and that
        end is then the greater; ends are ordered as `contains` orders them.
        """
        if self.contains(other.lo):
            lo = other.lo
        elif other.contains(self.lo):
            lo = self.lo
        else:
            return None
        return Interval(lo, other.hi if self.contains(other.hi) else self.hi)

    def encloses(self, other: "Interval") -> bool:
        return self.contains(other.lo) and self.contains(other.hi)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi}]"


class Unbounded:
    """Singleton marker for an enclosure with no finite bounds."""

    _instance = None

    def __new__(cls) -> "Unbounded":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNBOUNDED"


UNBOUNDED = Unbounded()

# Either finite closed bounds or no bounds at all.
Bounds = Union[Interval, Unbounded]


# --- expression AST ---------------------------------------------------------
#
# The arithmetic nodes are shared with the token-erased syntax in
# enclosures.blind: only the leaf constructors differ between the two
# languages, and the erasure map is a homomorphism on the node classes.


class _Leaf:
    """Shared base of the leaves: pickle and copy take a leaf's fields only,
    not the program memo stored on it, so a copy is cold."""

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in fields(self)}


@record
class Exact(_Leaf):
    """Exact rational constant with a dimension tag; the value is a Fraction,
    converted as an Interval's ends are."""

    value: Fraction
    dim: Dim

    def __post_init__(self) -> None:
        if type(self.value) is not Fraction:
            object.__setattr__(self, "value", _fraction(self.value))


@record
class Meas(_Leaf):
    """One measurement: token identity, declared interval, dimension tag."""

    token: Token
    interval: Interval
    dim: Dim


class _Op:
    """Shared base of the operator nodes: equality, hashing, repr and pickling
    by shape.

    With fixed arities a tree is determined by its post-order, so trees are
    equal exactly when their post-orders agree, operators compared by class
    and leaves by value.  Equality walks both trees in step and stops at
    the first difference; hashing and pickling use the post-order.  Unlike
    a record's own methods, none of these recurse; repr prints the text a
    record's repr would.  They read only the fields, so a node's one memo,
    the program `semantics.compile_expr` stores on any node (`parser.parse`
    on a root as it builds it), which keeps the tree's boxes and affine
    fold too, is invisible to them, and a copy or unpickled tree has none.
    The memo lives in a slot, as do each operator's fields, so a node is one
    object for the cycle collector to track, not two: it has no `__dict__`.
    """

    __slots__ = ("_program", "__weakref__")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]  # pairs of subtrees in the same place
        while stack:
            a, b = stack.pop()
            if a is b:  # one parse shares equal leaves, so often so
                continue
            cls = type(a)
            if cls is not type(b):
                return False
            if cls is Neg:
                stack.append((a.operand, b.operand))
            elif isinstance(a, _Op):  # push the right pair first, to pop the left first
                stack += (a.rhs, b.rhs), (a.lhs, b.lhs)
            elif a != b:
                return False
        return True

    def __hash__(self) -> int:
        return hash(tuple(_shape(self)))

    def __repr__(self) -> str:
        return _render(self, _repr_parts)

    def __reduce__(self):
        return _rebuild, (_shape(self),)


@record
class Add(_Op):
    __slots__ = ("lhs", "rhs")
    lhs: "Expr"
    rhs: "Expr"


@record
class Sub(_Op):
    __slots__ = ("lhs", "rhs")
    lhs: "Expr"
    rhs: "Expr"


@record
class Mul(_Op):
    __slots__ = ("lhs", "rhs")
    lhs: "Expr"
    rhs: "Expr"


@record
class Div(_Op):
    __slots__ = ("lhs", "rhs")
    lhs: "Expr"
    rhs: "Expr"


@record
class Neg(_Op):
    __slots__ = ("operand",)
    operand: "Expr"


Expr = Union[Exact, Meas, Add, Sub, Mul, Div, Neg]

T = TypeVar("T")


def postorder(e: Expr) -> list[Expr]:
    """Every node of e, children before parents and left before right, in
    a fresh list.

    The one place that knows each node's children; it walks every tree, a
    parsed one too.  An explicit stack keeps deep trees off the
    interpreter's recursion limit; reversing a node-right-left preorder
    gives the left-right-node post-order.
    """
    order = []
    stack = [e]
    while stack:
        node = stack.pop()
        order.append(node)
        if type(node) is Neg:
            stack.append(node.operand)
        elif isinstance(node, _Op):
            stack.append(node.lhs)
            stack.append(node.rhs)
    order.reverse()
    return order


def fold(
    e: Expr, leaf: Callable[[Expr], T], combine: Mapping[type, Callable[..., T]]
) -> T:
    """Bottom-up value of e: leaf(node) at each leaf, and at each operator
    combine[type(node)] applied to its operands' values, left to right."""
    values: list[T] = []
    for node in postorder(e):
        if type(node) is Neg:
            values[-1] = combine[Neg](values[-1])
        elif isinstance(node, _Op):
            rhs = values.pop()
            values[-1] = combine[type(node)](values[-1], rhs)
        else:
            values.append(leaf(node))
    return values[0]


def _shape(e: Expr) -> list:
    return [type(node) if isinstance(node, _Op) else node for node in postorder(e)]


def _rebuild(shape: list) -> Expr:
    """The tree whose `_shape` is shape; unpickling calls it."""
    built: list = []
    for item in shape:
        if item is Neg:
            built[-1] = Neg(built[-1])
        elif isinstance(item, type):
            rhs = built.pop()
            built[-1] = item(built[-1], rhs)
        else:
            built.append(item)
    return built[0]


def _render(e: Expr, parts: Callable[[Expr], list]) -> str:
    """Text of e joined once from its pieces, so long trees print in linear time.

    parts(node) lists the node's text in order: str pieces, and each child
    node in a 1-tuple, whose own pieces go in its place.  So a str in the
    tree is a node too, which parts renders as it renders any leaf.
    """
    out: list[str] = []
    stack: list = [(e,)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        else:
            stack.extend(reversed(parts(item[0])))
    return "".join(out)


def _repr_parts(node: Expr) -> list:
    """The pieces of the record repr of node."""
    if type(node) is Neg:
        return ["Neg(operand=", (node.operand,), ")"]
    if isinstance(node, _Op):
        return [type(node).__name__ + "(lhs=", (node.lhs,), ", rhs=", (node.rhs,), ")"]
    return [repr(node)]


def meas_leaves(e: Expr) -> Iterator[Meas]:
    """Yield every measured leaf in left-to-right syntactic order."""
    return (node for node in postorder(e) if isinstance(node, Meas))


def is_exact(e: Expr) -> bool:
    """True iff no measured leaf occurs; exactness is purely syntactic."""
    return next(meas_leaves(e), None) is None


def tokens_of(e: Expr) -> set[Token]:
    return {leaf.token for leaf in meas_leaves(e)}


def split_token(e: Expr, t: Token) -> Expr:
    """e with each occurrence of t after the first, left to right, measured by
    a fresh token of its own, with the same interval and dim.  A fresh name
    is a grammar name not in `tokens_of(e)`.  The fresh tokens vary on their
    own, so the split only adds environments: `licensed(split_token(e, t), e)`
    is never `Fails`."""
    taken = {token.name for token in tokens_of(e)}
    base = t.name if re.fullmatch(_NAME, t.name) else "t"
    fresh = (Token(name) for k in itertools.count(1) if (name := f"{base}_{k}") not in taken)
    occurrences = 0

    def leaf(node: Expr) -> Expr:
        nonlocal occurrences
        if type(node) is not Meas or node.token != t:
            return node
        occurrences += 1
        return node if occurrences == 1 else Meas(next(fresh), node.interval, node.dim)

    return fold(e, leaf, {cls: cls for cls in (Add, Sub, Mul, Div, Neg)})


def dims_of(e: Expr) -> set[Dim]:
    return {node.dim for node in postorder(e) if isinstance(node, (Exact, Meas))}


def effective_intervals(e: Expr) -> dict[Token, Interval]:
    """Per-token intersection of all intervals declared at its occurrences.

    A token measured twice under different intervals is constrained by both,
    so its feasible values form the intersection.  Raises
    InfeasibleTokenError when some token's intersection is empty, which is
    exactly the case where the whole expression has an empty enclosure.
    Exact leaves and dimension tags play no part.  This always walks e;
    the program `semantics.compile_expr` keeps on e holds the same boxes.
    """
    out: dict[Token, Interval] = {}
    for leaf in meas_leaves(e):
        narrow_box(out, leaf.token, leaf.interval)
    return out


def narrow_box(boxes: dict[Token, Interval], token: Token, interval: Interval) -> None:
    """Intersect a leaf's interval into its token's box, adding the box when
    the token is new; raise InfeasibleTokenError when the box empties."""
    seen = boxes.get(token)
    if seen is None:
        boxes[token] = interval
    elif seen is not interval and seen != interval:  # equal: box unchanged
        merged = seen.intersect(interval)
        if merged is None:
            raise InfeasibleTokenError(token)
        boxes[token] = merged


# --- canonical printing -----------------------------------------------------

_NAME = r"[A-Za-z][A-Za-z0-9_]*"  # the grammar's token names and dim tags

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_LEAF = 4


_INFIX = {
    Add: (" + ", _PREC_ADD),
    Sub: (" - ", _PREC_ADD),
    Mul: (" * ", _PREC_MUL),
    Div: (" / ", _PREC_MUL),
}


def format_expr(e: Expr) -> str:
    """Canonical text; parsing the result reproduces the tree exactly."""
    return format_tree(e, _leaf_text)


def _leaf_text(e: Expr) -> str:
    if isinstance(e, Exact):
        return f"exact({e.value},{_name('dim tag', e.dim)})"
    if isinstance(e, Meas):
        return f"meas({_name('token name', e.token)},{e.interval},{_name('dim tag', e.dim)})"
    raise TypeError(f"not an expression node: {e!r}")


def _name(kind: str, name: object) -> str:
    """A token's or dim's text, checked against the grammar's names, so the
    printed leaf parses back; any other name raises ValueError."""
    text = str(name)
    if re.fullmatch(_NAME, text) is None:
        raise ValueError(f"{kind} {text!r} is not a name the grammar reads ({_NAME})")
    return text


def format_tree(e: Expr, leaf_text: Callable[[Expr], str]) -> str:
    """Print e with the fewest parentheses; leaf_text renders each leaf.

    Binary operators are left-associative, so a right operand of equal
    precedence is parenthesised and a left one is not.
    """

    def parts(node: Expr) -> list:
        cls = type(node)
        if cls is Neg:
            return ["-", *_operand(node.operand, _precedence(node.operand) < _PREC_NEG)]
        if cls in _INFIX:
            symbol, prec = _INFIX[cls]
            return [
                *_operand(node.lhs, _precedence(node.lhs) < prec),
                symbol,
                *_operand(node.rhs, _precedence(node.rhs) <= prec),
            ]
        return [leaf_text(node)]

    return _render(e, parts)


def _precedence(node: Expr) -> int:
    cls = type(node)
    if cls is Neg:
        return _PREC_NEG
    return _INFIX[cls][1] if cls in _INFIX else _PREC_LEAF


def _operand(node: Expr, parenthesised: bool) -> list:
    return ["(", (node,), ")"] if parenthesised else [(node,)]
