"""Seeded random generators shared by the test modules.

Everything is driven by an explicit random.Random so failures reproduce
from the seed alone.  The affine generator stays inside the decidable
fragment (measured leaves combined additively, scaled or divided only by
measurement-free subtrees); the any-fragment generator also emits
measured-by-measured products and quotients.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import prod

from enclosures import (
    Add,
    BudgetExceededError,
    Dim,
    Div,
    Exact,
    Expr,
    FamilySpec,
    InfeasibleTokenError,
    Interval,
    Meas,
    Mul,
    Neg,
    NotAffineError,
    Sub,
    Token,
    TokenEnv,
    effective_intervals,
    evaluate,
    exact_value,
    is_exact,
    tokens_of,
)

D = Dim("d")


def rand_rational(
    rng: random.Random, lo: int = -10, hi: int = 10, max_den: int = 8
) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_interval(rng: random.Random, lo: int = -10, hi: int = 10) -> Interval:
    a = rand_rational(rng, lo, hi)
    b = rand_rational(rng, lo, hi)
    return Interval(min(a, b), max(a, b))


def rand_nondegenerate_interval(rng: random.Random, lo: int = -10, hi: int = 10) -> Interval:
    while True:
        iv = rand_interval(rng, lo, hi)
        if iv.lo < iv.hi:
            return iv


def rand_positive_interval(rng: random.Random, hi: int = 10) -> Interval:
    # 0 < lo < hi, as the division family requires.
    while True:
        iv = rand_interval(rng, 1, hi)
        if 0 < iv.lo < iv.hi:
            return iv


def token_boxes(rng: random.Random, max_tokens: int = 4) -> dict[Token, Interval]:
    """One fixed interval per token so repeats never go infeasible."""
    count = rng.randint(1, max_tokens)
    return {Token(f"t{i + 1}"): rand_interval(rng) for i in range(count)}


def count_nodes(e: Expr) -> int:
    match e:
        case Exact() | Meas():
            return 1
        case Neg(operand):
            return 1 + count_nodes(operand)
        case Add(l, r) | Sub(l, r) | Mul(l, r) | Div(l, r):
            return 1 + count_nodes(l) + count_nodes(r)
    raise TypeError(f"not an expression node: {e!r}")


def gen_exact(rng: random.Random, budget: int) -> Expr:
    """Measurement-free expression with at most `budget` nodes."""
    if budget >= 3 and rng.random() < 0.6:
        op = rng.choice(("add", "sub", "mul", "div", "neg"))
        if op == "neg":
            return Neg(gen_exact(rng, budget - 1))
        left_budget = rng.randint(1, budget - 2)
        left = gen_exact(rng, left_budget)
        right = gen_exact(rng, budget - 1 - left_budget)
        ctor = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[op]
        return ctor(left, right)
    return Exact(rand_rational(rng), D)


def _leaf(rng: random.Random, boxes: dict[Token, Interval]) -> Expr:
    if boxes and rng.random() < 0.7:
        token = rng.choice(sorted(boxes, key=lambda t: t.name))
        return Meas(token, boxes[token], D)
    return Exact(rand_rational(rng), D)


def gen_affine(rng: random.Random, boxes: dict[Token, Interval], budget: int) -> Expr:
    """Affine-fragment expression with at most `budget` nodes."""
    if budget >= 3 and rng.random() < 0.75:
        op = rng.choice(("add", "sub", "neg", "mul", "div"))
        if op == "neg":
            return Neg(gen_affine(rng, boxes, budget - 1))
        if op in ("add", "sub"):
            left_budget = rng.randint(1, budget - 2)
            left = gen_affine(rng, boxes, left_budget)
            right = gen_affine(rng, boxes, budget - 1 - left_budget)
            return Add(left, right) if op == "add" else Sub(left, right)
        if op == "mul":
            scalar_budget = rng.randint(1, min(3, budget - 2))
            scalar = gen_exact(rng, scalar_budget)
            body = gen_affine(rng, boxes, budget - 1 - count_nodes(scalar))
            return Mul(scalar, body) if rng.random() < 0.5 else Mul(body, scalar)
        # division by an exact constant, occasionally by exact zero
        value = Fraction(0) if rng.random() < 0.1 else rand_rational(rng)
        return Div(gen_affine(rng, boxes, budget - 2), Exact(value, D))
    return _leaf(rng, boxes)


def gen_any(rng: random.Random, boxes: dict[Token, Interval], budget: int) -> Expr:
    """Full-grammar expression; products and quotients may be measured."""
    if budget >= 3 and rng.random() < 0.75:
        op = rng.choice(("add", "sub", "mul", "div", "neg"))
        if op == "neg":
            return Neg(gen_any(rng, boxes, budget - 1))
        left_budget = rng.randint(1, budget - 2)
        left = gen_any(rng, boxes, left_budget)
        right = gen_any(rng, boxes, budget - 1 - left_budget)
        ctor = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[op]
        return ctor(left, right)
    return _leaf(rng, boxes)


def equal_value_variant(rng: random.Random, e: Expr) -> Expr:
    """A measurement-free expression with the same exact value as e."""
    value = exact_value(e)
    zero = Exact(Fraction(0), D)
    one = Exact(Fraction(1), D)
    return rng.choice(
        (
            Add(e, zero),
            Sub(e, zero),
            Mul(one, e),
            Div(e, one),
            Neg(Neg(e)),
            Exact(value, D),
        )
    )


def rand_family_spec(rng: random.Random, family: str, mode: str) -> FamilySpec:
    if family == "background":
        return FamilySpec(
            family,
            mode,
            signal=rand_interval(rng),
            background=rand_nondegenerate_interval(rng),
        )
    if family == "division":
        return FamilySpec(family, mode, interval=rand_positive_interval(rng))
    return FamilySpec(family, mode, interval=rand_nondegenerate_interval(rng))


def corner_min_max(e: Expr) -> tuple[Fraction, Fraction]:
    """Brute-force oracle: evaluate on every corner of the effective boxes."""
    boxes = effective_intervals(e)
    tokens = sorted(boxes, key=lambda t: t.name)
    corners = [[boxes[t].lo, boxes[t].hi] for t in tokens]
    values = [
        evaluate(TokenEnv(dict(zip(tokens, combo))), e)
        for combo in itertools.product(*corners)
    ]
    return min(values), max(values)


# --- reference semantics, written independently of the library ---------------


def naive_evaluate(env: TokenEnv, e: Expr) -> Fraction:
    """Direct recursive evaluation with total division (x / 0 = 0)."""
    match e:
        case Exact(value, _):
            return value
        case Meas(token, _, _):
            return env.value(token)
        case Add(l, r):
            return naive_evaluate(env, l) + naive_evaluate(env, r)
        case Sub(l, r):
            return naive_evaluate(env, l) - naive_evaluate(env, r)
        case Mul(l, r):
            return naive_evaluate(env, l) * naive_evaluate(env, r)
        case Div(l, r):
            den = naive_evaluate(env, r)
            return Fraction(0) if den == 0 else naive_evaluate(env, l) / den
        case Neg(operand):
            return -naive_evaluate(env, operand)
    raise TypeError(f"not an expression node: {e!r}")


def naive_affine(
    e: Expr, boxes: dict[Token, Interval]
) -> tuple[Fraction, dict[Token, Fraction]]:
    """Reference fold of e to (constant, coeffs): a token-free side scales,
    x / 0 = 0, and a self-quotient is 1 or 0 where the corners of `boxes`
    say so.  Every token of e gets a coefficient; NotAffineError otherwise."""
    match e:
        case Exact(value, _):
            return value, {}
        case Meas(token, _, _):
            return Fraction(0), {token: Fraction(1)}
        case Neg(operand):
            c, k = naive_affine(operand, boxes)
            return -c, {t: -v for t, v in k.items()}
        case Add(l, r) | Sub(l, r):
            sign = 1 if isinstance(e, Add) else -1
            (cl, kl), (cr, kr) = naive_affine(l, boxes), naive_affine(r, boxes)
            k = dict(kl)
            for t, v in kr.items():
                k[t] = k.get(t, Fraction(0)) + sign * v
            return cl + sign * cr, k
        case Mul(l, r) if is_exact(l) or is_exact(r):
            scale, body = (exact_value(l), r) if is_exact(l) else (exact_value(r), l)
            c, k = naive_affine(body, boxes)
            return scale * c, {t: scale * v for t, v in k.items()}
        case Div(l, r) if is_exact(r):
            d = exact_value(r)
            if d == 0:
                return Fraction(0), dict.fromkeys(tokens_of(l), Fraction(0))
            c, k = naive_affine(l, boxes)
            return c / d, {t: v / d for t, v in k.items()}
        case Div(l, r) if l == r:
            c, k = naive_affine(l, boxes)
            tokens = list(k)
            values = [
                c + sum(k[t] * x for t, x in zip(tokens, corner))
                for corner in itertools.product(
                    *([boxes[t].lo, boxes[t].hi] for t in tokens)
                )
            ]
            if min(values) > 0 or max(values) < 0:
                return Fraction(1), dict.fromkeys(k, Fraction(0))
            if min(values) == max(values) == 0:
                return Fraction(0), dict.fromkeys(k, Fraction(0))
            raise NotAffineError("self-quotient takes 0 and a nonzero value")
        case Mul() | Div():
            raise NotAffineError("measured product or denominator")
    raise TypeError(f"not an expression node: {e!r}")


def naive_bounds(
    constant: Fraction, coeffs: dict[Token, Fraction], boxes: dict[Token, Interval]
) -> Interval:
    """Image of constant + sum of coeffs[t] * x_t over the boxes, term by term."""
    ends = [(c * boxes[t].lo, c * boxes[t].hi) for t, c in coeffs.items()]
    return Interval(
        constant + sum(min(pair) for pair in ends), constant + sum(max(pair) for pair in ends)
    )


def naive_consistent(env: TokenEnv, e: Expr) -> bool:
    """Every measured leaf's declared interval contains its token's value."""
    match e:
        case Exact():
            return True
        case Meas(token, interval, _):
            return interval.contains(env.value(token))
        case Neg(operand):
            return naive_consistent(env, operand)
        case Add(l, r) | Sub(l, r) | Mul(l, r) | Div(l, r):
            return naive_consistent(env, l) and naive_consistent(env, r)
    raise TypeError(f"not an expression node: {e!r}")


def naive_grid(box: Interval, n: int) -> list[Fraction]:
    """lo + k*(hi-lo)/(n-1) for k < n in plain Fraction arithmetic, or the one
    value of a point box: the grid, computed from the box's ends alone."""
    if n < 2:
        raise ValueError("grid needs at least 2 points per token")
    if box.lo == box.hi:
        return [box.lo]
    return [box.lo + k * (box.hi - box.lo) / (n - 1) for k in range(n)]


def naive_samples(e: Expr, grid_points: int, budget: int) -> list[tuple[TokenEnv, Fraction]]:
    """Reference grid sampler: full grids, corners first, checked per environment.

    Mirrors the documented contract of under_approx_samples, including
    BudgetExceededError with the required grid size and the partial list.
    """
    try:
        boxes = effective_intervals(e)
    except InfeasibleTokenError:
        return []
    tokens = sorted(boxes, key=lambda t: t.name)
    grids = [naive_grid(boxes[t], grid_points) for t in tokens]
    corners = [sorted({g[0], g[-1]}) for g in grids]
    stream = list(itertools.product(*corners)) + [
        combo
        for combo in itertools.product(*grids)
        if not all(v in c for v, c in zip(combo, corners))
    ]
    samples: list[tuple[TokenEnv, Fraction]] = []
    for combo in stream:
        if len(samples) >= budget:
            raise BudgetExceededError(prod(len(g) for g in grids), budget, samples)
        env = TokenEnv(dict(zip(tokens, combo)))
        if naive_consistent(env, e):
            samples.append((env, naive_evaluate(env, e)))
    return samples


def redeclare(rng: random.Random, e: Expr, spread: int = 3) -> Expr:
    """Re-declare every measured leaf with its own interval around the old one.

    Repeated tokens then carry different declared intervals whose
    intersection still contains the original box.
    """
    match e:
        case Exact():
            return e
        case Meas(token, interval, dim):
            lo = interval.lo - rng.randint(0, spread) * rng.choice((0, Fraction(1, 2), 1))
            hi = interval.hi + rng.randint(0, spread) * rng.choice((0, Fraction(1, 3), 1))
            return Meas(token, Interval(lo, hi), dim)
        case Neg(operand):
            return Neg(redeclare(rng, operand, spread))
        case Add(l, r) | Sub(l, r) | Mul(l, r) | Div(l, r):
            return type(e)(redeclare(rng, l, spread), redeclare(rng, r, spread))
    raise TypeError(f"not an expression node: {e!r}")


_TERM_FORMS = ("{m}", "-{m}", "{c} * {m}", "{m} * {c}", "{m} / {c}")
_SCALES = (Fraction(2), Fraction(-1, 3), Fraction(5, 2), Fraction(-3))
# How a right-nested chain may join each term to the rest; c is a scale.
CHAIN_WRAPS = {
    "sum": "({rest})",
    "scaled": "{c} * ({rest})",
    "divided": "({rest}) / {c}",
    "negated": "-({rest})",
}


def long_affine_text(
    rng: random.Random, terms: int, ntok: int, right: bool = False, wrap: str = "({rest})"
) -> str:
    """A long affine sum in the style of perfbench's `wide` workload.

    Each of ntok tokens keeps one declared box and recurs about terms/ntok
    times, in the forms m, -m, c*m, m*c and m/c, joined by + and -.  The
    sum is left-deep, or with `right` a right-nested chain in which each
    term is joined to the rest as `wrap` puts it: parenthesised by default,
    or scaled, divided or negated as in CHAIN_WRAPS, with a scale c drawn
    for each level.
    """
    boxes = {f"v{i}": rand_interval(rng) for i in range(ntok)}
    names = [f"v{i % ntok}" for i in range(terms)]
    forms = [_TERM_FORMS[i % len(_TERM_FORMS)] for i in range(terms)]
    rng.shuffle(names)
    rng.shuffle(forms)
    text = ""
    for name, form in zip(names, forms):
        box = boxes[name]
        m = f"meas({name},[{box.lo},{box.hi}],d)"
        term = form.format(m=m, c=f"exact({rng.choice(_SCALES)},d)")
        sign = rng.choice("+-")
        if not text:
            text = term
        elif right:
            c = f"exact({rng.choice(_SCALES)},d)" if "{c}" in wrap else ""
            text = f"{term} {sign} " + wrap.format(rest=text, c=c)
        else:
            text = f"{text} {sign} {term}"
    return text
