"""Warranted enclosures: exact on the affine fragment, bounded elsewhere.

The affine fragment (sums, differences, negation, scaling by exact
subexpressions) reduces to a linear form over tokens, whose image on a
box of rationals is a closed interval that is attained pointwise by
convex combination.  Outside the fragment we never claim exactness: the
outcome pairs sampled under-approximation witnesses with a compositional
over-approximation, and stays honest about the gap.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd
from typing import Iterator, Mapping, Union

from .expr import (
    UNBOUNDED,
    Add,
    Bounds,
    Div,
    Exact,
    Expr,
    InfeasibleTokenError,
    Interval,
    Mul,
    Neg,
    Sub,
    Token,
    _fraction,
    effective_intervals,
    fold,
)
from .record import record
from .semantics import TokenEnv, _Pair, compile_expr, evaluate, token_consistent
from .semantics import _add, _ends, _less, _mul, _negate, _over_itself, _quotient, _sub

_ZERO = Fraction(0)
_ONE = Fraction(1)
_UNIT, _MINUS_UNIT = (1, 1), (-1, 1)  # as pairs; `_adjoints` knows 1 by identity

DEFAULT_GRID_POINTS = 5
DEFAULT_ENV_BUDGET = 100_000
GRID_TOO_SMALL = "grid needs at least 2 points per token"


class NotAffineError(Exception):
    """The expression leaves the affine fragment."""


class BudgetExceededError(Exception):
    """Grid enumeration would exceed the environment cap.

    Carries the partial sample list collected before the cap so callers
    can still report what was seen.
    """

    def __init__(
        self,
        required: int,
        budget: int,
        partial: list[tuple[TokenEnv, Fraction]],
    ):
        super().__init__(f"grid needs {required} environments, budget is {budget}")
        self.required = required
        self.budget = budget
        self.partial = partial


@record
class AffineForm:
    """constant + sum of coeffs[t] * env(t), with env ranging over the boxes.

    Every token appearing in the source expression keeps an entry, even
    with coefficient 0, so witness environments cover all tokens; coeffs
    and boxes list the tokens in the order of their first leaves.  Boxes
    are the effective intervals of the source expression.  Each
    `to_affine` call returns a form of its own, so changing its dicts
    changes no later fold, and no program either.
    """

    constant: Fraction
    coeffs: Mapping[Token, Fraction]
    boxes: Mapping[Token, Interval]

    @functools.cached_property
    def interval(self) -> Interval:
        """The form's exact image on its boxes, computed once."""
        return Interval(*_linear_bounds(self.constant, self.coeffs, self.boxes))


# --- enclosure outcomes ------------------------------------------------------


@record
class EmptySet:
    """No token-consistent environment exists; the enclosure is empty."""

    token: Token


@record
class ExactInterval:
    """The enclosure is exactly this interval: every rational in it is attained."""

    interval: Interval


@record
class Unknown:
    """Certified sandwich for a non-affine expression.

    Every under sample is a consistent environment with its value; the
    enclosure is contained in `over`.  `truncated` marks samples cut off
    by the enumeration budget.
    """

    under: tuple[tuple[TokenEnv, Fraction], ...]
    over: Bounds
    truncated: bool = False


EnclosureOutcome = Union[EmptySet, ExactInterval, Unknown]


# --- the affine fragment -----------------------------------------------------


def to_affine(e: Expr) -> AffineForm:
    """Reduce e to a linear form over its tokens, or raise NotAffineError.

    Fully exact subtrees fold to constants, so any Mul or Div with an
    exact side stays inside the fragment.  Division by an exact zero
    folds the whole quotient to 0 (total division).  A quotient whose
    numerator and denominator are the same subtree folds to 1 when the
    shared value provably avoids 0 over the boxes, and to 0 when it is
    identically 0; this keeps provably-constant self-divisions decidable.
    Raises InfeasibleTokenError when some token has no possible value.

    Each call copies e's kept fold outcome (`_fold_outcome`) into a fresh
    form, its `interval` already computed, or a fresh error with the same
    message or token, so changing a form changes no later call or verdict.
    """
    out = _fold_outcome(e)
    if type(out) is str:
        raise NotAffineError(out)
    if type(out) is EmptySet:
        raise InfeasibleTokenError(out.token)
    form = AffineForm(out.constant, dict(out.coeffs), dict(out.boxes))
    vars(form)["interval"] = out.interval  # where cached_property keeps it
    return form


def _fold_outcome(e: Expr) -> AffineForm | EmptySet | str:
    """What e's affine fold decides: its form, its EmptySet when some token
    has no possible value, or the message saying why e leaves the fragment.

    Trees are immutable, so every node, leaf or operator, keeps this outcome
    in a private attribute beside its program, and only the first read
    folds (`_fold_affine`).  Every read, by the ladder (`lazy_enclosure`)
    or the audit, gets that same object, neither copied nor raised, so no
    reader may change it; `to_affine` is the one that copies.  Equality,
    hashing, repr, pickle and copy ignore the memo, so `copy.deepcopy(e)`
    is a cold tree whose fold starts afresh.
    """
    out = getattr(e, "_affine", None)
    if out is None:
        out = _fold_affine(e)
        object.__setattr__(e, "_affine", out)
    return out


def _fold_affine(e: Expr) -> AffineForm | EmptySet | str:
    """e's fold outcome, as `_fold_outcome` keeps it.

    Read off e's program (`compile_expr`), on the final boxes.  One forward
    pass gives each register its exact value (a pair), its constant part (a
    pair, when it is measured) or the message saying why it is off the
    fragment, and records the factor each step passes back to each measured
    operand.  The coeffs of an affine root are then its adjoints at the
    token registers (`_adjoints`).  Off the fragment only dividing by an
    exact zero leads back to the fragment, and that passes back nothing.
    """
    program = compile_expr(e)
    try:
        boxes = effective_intervals(e)  # read off the program's leaves
    except InfeasibleTokenError as ex:
        return EmptySet(ex.token)
    token_of = dict(program._loads)
    values: list = program._registers.copy()
    measured = [False] * len(values)
    for k in token_of:
        values[k], measured[k] = (0, 1), True
    back: list[tuple[int, int, _Pair]] = []  # (register, operand, factor)
    end = [0] * len(values)  # where each step's records end in `back`
    for k, step, i, j in program._steps:
        a, b, mi, mj = values[i], values[j], measured[i], measured[j]
        fi = fj = None
        if step is _add or step is _sub:  # a message wins, left first
            c = a if type(a) is str or not b[0] else b if type(b) is str else step(a, b)
            fi, fj = mi and _UNIT, mj and (_UNIT if step is _add else _MINUS_UNIT)
        elif step is _negate:
            c, fi = a if type(a) is str else (-a[0], a[1]), mi and _MINUS_UNIT
        elif step is _mul and not (mi and mj):  # a measurement-free factor scales the other
            c = a if type(a) is str else b if type(b) is str else _mul(a, b)
            fi, fj = mi and b, mj and a
        elif not mj:  # total division: x / 0 = 0 for every x, affine or not
            c = (0, 1) if not b[0] else a if type(a) is str else _quotient(a, b)
            fi = mi and b[0] and _quotient(_UNIT, b)
        elif step is _over_itself and type(a) is not str:
            # Same subtree above and below: 1 where it is nonzero, 0 where zero.
            # The right copy's records follow the left copy's; a leaf has none.
            adjoint = _adjoints([] if j in token_of else back[end[i] :], j)
            coeffs = {token_of[r]: Fraction(*x) for r, x in adjoint.items() if r in token_of}
            lo, hi = _linear_bounds(Fraction(*a), coeffs, boxes)
            if lo.numerator > 0 or hi.numerator < 0 or lo.numerator == hi.numerator == 0:
                c = (1, 1) if hi else (0, 1)
            else:
                c = "self-quotient can take both 0 and 1 over the boxes"
        elif step is _over_itself:
            c = a
        else:  # measured on both sides, so off the fragment
            c = "product of two measured subexpressions" if step is _mul else "measured denominator"
        if fi:
            back.append((k, i, fi))
        if fj:
            back.append((k, j, fj))
        values[k], measured[k], end[k] = c, mi or mj, len(back)
    constant = values[program._root]
    if type(constant) is str:
        return constant
    adjoint = _adjoints(back, program._root)
    coeffs = {}
    for k, t in program._loads:
        p, q = adjoint.get(k, (0, 1))
        coeffs[t] = _ONE if p == q else Fraction(p, q)
    return AffineForm(Fraction(*constant), coeffs, boxes)


def _adjoints(back: list[tuple[int, int, _Pair]], root: int) -> dict[int, _Pair]:
    """d root / d r for the registers r that root depends on, from one
    reverse sweep over the forward pass's records of root's steps."""
    adjoint = {root: _UNIT}
    for k, r, f in reversed(back):
        a = adjoint.get(k)
        if a is not None and a[0]:
            term = a if f is _UNIT else f if a is _UNIT else _mul(a, f)
            adjoint[r] = _add(adjoint[r], term) if r in adjoint else term
    return adjoint


def _linear_bounds(
    constant: Fraction,
    coeffs: Mapping[Token, Fraction],
    boxes: Mapping[Token, Interval],
) -> tuple[Fraction, Fraction]:
    """The form's least and greatest value on the boxes.  Each is summed as an
    integer (numerator, denominator) over the least common denominator and
    made a Fraction once, so no term pays for normalising a Fraction."""
    ends = [constant.as_integer_ratio()] * 2
    for t, c in coeffs.items():
        n, d = c.as_integer_ratio()
        if n:
            box = boxes[t]
            for i, x in enumerate((box.lo, box.hi) if n > 0 else (box.hi, box.lo)):
                (num, den), (p, q) = ends[i], x.as_integer_ratio()
                q *= d  # the term is n * p / q
                g = gcd(den, q)
                ends[i] = num * (q // g) + n * p * (den // g), den // g * q
    return Fraction(*ends[0]), Fraction(*ends[1])


def affine_enclosure(f: AffineForm) -> EnclosureOutcome:
    """Exact interval image of a linear form on its boxes.

    Every rational in the result is attained: pick the two extremal
    environments and take the rational convex combination.
    """
    return ExactInterval(f.interval)


def affine_witness(e: Expr, q: Fraction) -> TokenEnv | None:
    """Consistent environment making the affine expression e evaluate to q.

    Interpolates between the two extremal environments; returns None when
    q is outside the exact interval.  The returned environment is checked
    against the original expression before being handed out.  q converts
    as an `Exact` value does, so a float raises TypeError.
    """
    return _form_witness(to_affine(e), e, _fraction(q))


def _form_witness(f: AffineForm, e: Expr, q: Fraction) -> TokenEnv | None:
    """`affine_witness` for e given its affine form f = to_affine(e).

    Each token moves from the end of its box that minimises f towards the
    end that maximises it, by the same fraction lam of the way.  At an end
    of f's interval, lam is 0 or 1: each token is the corner of its box
    that its coefficient's sign picks, taken with no arithmetic.
    """
    if not f.interval.contains(q):
        return None
    lo, hi = f.interval.lo, f.interval.hi
    lam = _ZERO if q == lo else _ONE if q == hi else (q - lo) / (hi - lo)
    values = {}
    for t, box in f.boxes.items():
        n = f.coeffs.get(t, _ZERO).numerator
        start, end = (box.hi, box.lo) if n < 0 else (box.lo, box.hi)
        if n and lam is not _ZERO:
            start = end if lam is _ONE else start + lam * (end - start)
        values[t] = start
    env = TokenEnv(values)
    return env if _attains(env, e, q) else None


def _attains(env: TokenEnv, e: Expr, value: Fraction | None) -> bool:
    """env is consistent with e and evaluates it to value: every witness test."""
    return token_consistent(env, e) and evaluate(env, e) == value


# --- sound over-approximation ------------------------------------------------
#
# Bounds are folded as ends: a (lo, hi) pair of reduced integer (numerator,
# denominator) pairs.  `_interval_image` makes the Fractions at the end.

_Ends = tuple[_Pair, _Pair]


class _Unbounded(Exception):
    """A denominator's bounds hold 0 but are not both 0: no finite bounds."""


def _hull(*values: _Pair) -> _Ends:
    lo = hi = values[0]
    for x in values[1:]:
        if _less(x, lo):
            lo = x
        elif _less(hi, x):
            hi = x
    return lo, hi


def _div_bounds(a: _Ends, b: _Ends) -> _Ends:
    if not b[0][0] and not b[1][0]:
        # Total division: everything over exactly zero collapses to zero.
        return (0, 1), (0, 1)
    if b[0][0] <= 0 <= b[1][0]:
        # Denominator values arbitrarily close to zero: no finite bounds.
        raise _Unbounded
    (alo, ahi), (blo, bhi) = a, b
    return _hull(
        _quotient(alo, blo), _quotient(alo, bhi), _quotient(ahi, blo), _quotient(ahi, bhi)
    )


# Interval arithmetic: each operator's image on independent operand boxes.
_INTERVAL_OPS = {
    Add: lambda a, b: (_add(a[0], b[0]), _add(a[1], b[1])),
    Sub: lambda a, b: (_sub(a[0], b[1]), _sub(a[1], b[0])),
    Mul: lambda a, b: _hull(
        _mul(a[0], b[0]), _mul(a[0], b[1]), _mul(a[1], b[0]), _mul(a[1], b[1])
    ),
    Div: _div_bounds,
    Neg: lambda a: ((-a[1][0], a[1][1]), (-a[0][0], a[0][1])),
}


def _interval_image(tree: object) -> Bounds:
    """`_INTERVAL_OPS` folded over a token-level or token-erased tree, from
    its leaves' ends (`_leaf_ends`): UNBOUNDED once some denominator may be
    0, so an unbounded operand anywhere gives UNBOUNDED, even over exact 0."""
    try:
        lo, hi = fold(tree, _leaf_ends, _INTERVAL_OPS)
    except _Unbounded:
        return UNBOUNDED
    return Interval(Fraction(*lo), Fraction(*hi))


def over_approx(e: Expr) -> Bounds:
    """Interval bounds treating every measured occurrence independently.

    Identical to the token-erased enclosure by construction, since
    `blind.blind_enclosure` is the same `_interval_image` of the erased
    tree: widening the set of environments to occurrence-independent ones
    can only grow the image, so the result contains the warranted enclosure.
    """
    return _interval_image(e)


def _leaf_ends(leaf: object) -> _Ends:
    """A leaf's ends, token-level or token-erased: its `interval`, or its
    `value` as a point.  An `Exact` value is a Fraction already; any other
    value converts as `Interval.point` converts it."""
    if isinstance(leaf, Exact):
        value = leaf.value.as_integer_ratio()
        return value, value
    if isinstance(getattr(leaf, "interval", None), Interval):
        return _ends(leaf.interval)
    if hasattr(leaf, "value"):
        return _ends(Interval.point(leaf.value))
    raise TypeError(f"not an expression node: {leaf!r}")


# --- sampled under-approximation ---------------------------------------------

_Axis = tuple[Interval, _Pair, int]  # a token's grid: see `_grid_axis`


def grid_values(box: Interval, n: int) -> list[Fraction]:
    """Both endpoints plus n-2 evenly spaced interior rationals, each made
    as one Fraction from integer pairs."""
    _check_grid(n)
    axis = _grid_axis(box, n)
    return [_grid_value(axis, k) for k in range(axis[2])]


def _grid_axis(box: Interval, n: int) -> _Axis:
    """(box, step, size) of a token's grid of n >= 2 points, the step a
    reduced integer (numerator, denominator) pair: value k is box.lo + k * step."""
    if box.lo == box.hi:
        return box, (0, 1), 1
    lo, hi = _ends(box)
    return box, _quotient(_sub(hi, lo), (n - 1, 1)), n


def _check_grid(n: int) -> None:
    """Refuse fewer than 2 grid points per token, whatever the grid is for:
    every entry that takes `grid_points` checks it before anything else."""
    if n < 2:
        raise ValueError(GRID_TOO_SMALL)


def _grid_value(axis: _Axis, k: int) -> Fraction:
    """Value k of an axis: an end of its box, or one Fraction made from pairs."""
    box, (r, s), size = axis
    if k == 0 or k == size - 1:
        return box.hi if k else box.lo
    p, q = box.lo.as_integer_ratio()
    return Fraction(p * s + k * r * q, q * s)


def _env_stream(axes: list[_Axis]) -> Iterator[tuple[Fraction, ...]]:
    """The grid's value tuples, one value per axis, each tuple once.

    Corner environments come first: affine extremes live there, and the
    refutation search in the classifier checks them before interiors.  The
    rest follow in itertools.product order, driven by an odometer over grid
    indices so no per-token grid is materialised; when no axis has an
    interior value, the corners were the whole grid and the walk is skipped.
    """
    yield from itertools.product(*([b.lo] if size == 1 else [b.lo, b.hi] for b, _, size in axes))
    if all(size <= 2 for _, _, size in axes):
        return
    index = [0] * len(axes)
    combo = [box.lo for box, _, _ in axes]
    while True:
        if any(0 < k < size - 1 for k, (_, _, size) in zip(index, axes)):
            yield tuple(combo)  # all-corner combinations were emitted above
        for i in reversed(range(len(axes))):
            index[i] = (index[i] + 1) % axes[i][2]
            combo[i] = _grid_value(axes[i], index[i])
            if index[i]:
                break
        else:
            return


class SampleStream:
    """Memoised, lazy (environment, value) samples of one expression.

    Environments come from `_env_stream` in corner-first order and are
    evaluated one at a time, only when a reader asks for the next sample.
    Every sample drawn is kept, so each new iteration replays them before
    drawing more, and the enumeration never restarts.  Drawing stops at the
    end of the grid, or when a sample beyond `budget` exists, which marks
    the stream truncated.  `over` is the sound bound every value lies in.
    Raises InfeasibleTokenError when some token has no possible value.
    """

    def __init__(self, e: Expr, grid_points: int, budget: int):
        _check_grid(grid_points)
        program = compile_expr(e)
        boxes = effective_intervals(e)  # read off the program's leaves
        tokens = sorted(boxes, key=lambda t: t.name)
        axes = [_grid_axis(boxes[t], grid_points) for t in tokens]
        required = 1
        for t, (box, step, size) in zip(tokens, axes):
            # Each box is the intersection of every interval declared for t,
            # and grid values are monotone in their index: once both ends of
            # t's grid sit in its box, every environment below is consistent.
            lo, hi = _ends(box)
            last = _add(lo, _mul((size - 1, 1), step))
            if _less(last, lo) or _less(hi, last):
                raise AssertionError(f"grid for token {t} leaves its box {box}")
            required *= size
        self.expr = e
        self.budget = budget
        self.required = required
        self.truncated = False
        self.samples: list[tuple[TokenEnv, Fraction]] = []
        self._tokens = tokens
        self._run = program
        self._combos = _env_stream(axes)

    @functools.cached_property
    def over(self) -> Bounds:
        return over_approx(self.expr)

    def __iter__(self) -> Iterator[tuple[TokenEnv, Fraction]]:
        i = 0
        while i < len(self.samples) or self._draw():
            yield self.samples[i]
            i += 1

    def _draw(self) -> bool:
        """Append the next sample; False once the grid or the budget is spent."""
        combo = next(self._combos, None)
        if combo is None:
            return False
        if len(self.samples) >= self.budget:
            self.truncated = True
            self._combos = iter(())
            return False
        bindings = dict(zip(self._tokens, combo))
        self.samples.append((TokenEnv(bindings), self._run(bindings.__getitem__)))
        return True

    def drain(self) -> list[tuple[TokenEnv, Fraction]]:
        """Every sample, drawing the ones left."""
        while self._draw():
            pass
        return self.samples

    def outcome(self) -> Unknown:
        """The sandwich of all the samples and `over`."""
        return Unknown(tuple(self.drain()), self.over, self.truncated)


def under_approx_samples(
    e: Expr,
    grid_points: int = DEFAULT_GRID_POINTS,
    budget: int = DEFAULT_ENV_BUDGET,
) -> list[tuple[TokenEnv, Fraction]]:
    """Consistent (environment, value) pairs from a per-token grid.

    Returns [] when the expression admits no consistent environment.
    Raises BudgetExceededError (carrying the samples gathered so far)
    when the full grid would exceed the budget.
    """
    try:
        stream = SampleStream(e, grid_points, budget)
    except InfeasibleTokenError:
        return []
    samples = stream.drain()
    if stream.truncated:
        raise BudgetExceededError(stream.required, budget, samples)
    return samples


# --- the enclosure entry point -----------------------------------------------

# An enclosure whose samples are drawn only as readers ask for them.  An
# AffineForm stands for the ExactInterval of its image, a SampleStream for
# the Unknown of all its samples.
LazyOutcome = Union[EmptySet, AffineForm, SampleStream]


def lazy_enclosure(
    e: Expr,
    grid_points: int = DEFAULT_GRID_POINTS,
    budget: int = DEFAULT_ENV_BUDGET,
) -> LazyOutcome:
    """`enclosure`, lazily: e's kept fold outcome itself when it is a form or
    an EmptySet, else a stream of e's samples, none drawn yet."""
    _check_grid(grid_points)
    out = _fold_outcome(e)
    return SampleStream(e, grid_points, budget) if type(out) is str else out


def settle(out: LazyOutcome) -> EnclosureOutcome:
    """The enclosure outcome `out` stands for, drawing any samples left."""
    if isinstance(out, AffineForm):
        return affine_enclosure(out)
    return out.outcome() if isinstance(out, SampleStream) else out


def enclosure(
    e: Expr,
    grid_points: int = DEFAULT_GRID_POINTS,
    budget: int = DEFAULT_ENV_BUDGET,
) -> EnclosureOutcome:
    """Warranted enclosure of e: exact when affine, a sandwich otherwise.

    Exactness is only ever claimed on the affine path; for anything else
    the under samples and over bounds may coincide in hull without the
    interior rationals being certified, so the outcome stays Unknown.
    """
    return settle(lazy_enclosure(e, grid_points, budget))


# --- membership with certificates --------------------------------------------


@record
class ExclusionCertificate:
    """Machine-checkable reason a rational is outside an enclosure.

    kind "empty": the enclosure has no elements at all.
    kind "exact-interval": the enclosure is exactly `bounds`.
    kind "over-approx": the enclosure is contained in `bounds`.
    """

    kind: str
    bounds: Interval | None = None

    def excludes(self, q: Fraction) -> bool:
        if self.kind == "empty":
            return True
        return self.bounds is not None and not self.bounds.contains(q)


def certificate_of(out: LazyOutcome) -> ExclusionCertificate | None:
    """The certificate bounding every value of `out`, or None when it has
    no finite bound.  No sample is drawn."""
    if isinstance(out, EmptySet):
        return ExclusionCertificate("empty")  # nothing is warranted
    if isinstance(out, AffineForm):
        return ExclusionCertificate("exact-interval", out.interval)
    if isinstance(out, SampleStream) and isinstance(out.over, Interval):
        # over_approx is sound, so every sample value lies inside `over`.
        return ExclusionCertificate("over-approx", out.over)
    return None


@record
class Member:
    """q is warranted: env is consistent and evaluates to it."""

    env: TokenEnv
    value: Fraction


@record
class NonMember:
    """q is certified outside the enclosure."""

    certificate: ExclusionCertificate


@record
class Inconclusive:
    """Neither a witness nor an exclusion certificate was found."""

    outcome: EnclosureOutcome


MembershipResult = Union[Member, NonMember, Inconclusive]


def membership(
    e: Expr,
    q: Fraction,
    grid_points: int = DEFAULT_GRID_POINTS,
    budget: int = DEFAULT_ENV_BUDGET,
) -> MembershipResult:
    """Decide whether q is a warranted value of e, where a certificate exists;
    q converts as an `Exact` value does, so a float raises TypeError."""
    return membership_in(e, _fraction(q), lazy_enclosure(e, grid_points, budget))


def membership_in(e: Expr, q: Fraction, out: LazyOutcome) -> MembershipResult:
    """`membership` given e's lazy enclosure `out`; samples stop at a witness."""
    cert = certificate_of(out)
    if cert is not None and cert.excludes(q):
        return NonMember(cert)  # no sample drawn; an EmptySet always stops here
    if isinstance(out, AffineForm):
        env = _form_witness(out, e, q)
        if env is not None:
            return Member(env, q)
    else:
        for env, value in out:
            if value == q:
                return Member(env, value)
    return Inconclusive(settle(out))
