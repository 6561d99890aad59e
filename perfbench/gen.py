"""Seeded workload inputs and their reference answers.

Everything here is independent of the package under test: expressions are
built as small tuple trees and rendered to text, and every reference class
comes from this module's own arithmetic (corner min/max of affine
coefficients, exact values of measurement-free trees, closed forms for
products and quotients, and a hand-written family table).  The program
only ever receives the rendered text.

Tree nodes are tuples:
    ("e", q)                 exact rational q
    ("m", name, lo, hi)      measured leaf with token `name`, interval [lo,hi]
    (op, lhs, rhs)           op in "+", "-", "*", "/"
    ("neg", x)               unary minus
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction as F
from math import prod

INTERCHANGEABLE = "interchangeable"
FORWARD = "one-way-only-forward"
BACKWARD = "one-way-only-backward"
INCOMPARABLE = "incomparable"
UNDETERMINED = "undetermined"

# Expected class of each rewrite family in each mode.  The self-check in
# `check_family_table` re-derives every entry from closed-form images.
FAMILY_TABLE = {
    ("cancellation", "same"): INTERCHANGEABLE,
    ("cancellation", "distinct"): FORWARD,
    ("background", "same"): INTERCHANGEABLE,
    ("background", "distinct"): FORWARD,
    ("division", "same"): INTERCHANGEABLE,
    ("division", "distinct"): FORWARD,
}
FAMILIES = ("cancellation", "background", "division")
MODES = ("same", "distinct")

_NAMES = ("a", "b", "c", "g", "h", "k", "p", "r", "s", "u", "v", "w", "x", "y", "z")


@dataclass(frozen=True)
class Op:
    """One in-process operation: parse both texts, classify, audit.

    `probe` marks inputs that fail at the time the benchmark was written;
    they are attempted every pass but never timed.
    """

    label: str
    src: str
    tgt: str
    expect: str
    nodes: int
    grid: int = 5
    budget: int = 100_000
    probe: bool = False


@dataclass(frozen=True)
class CliCall:
    """One `python -m enclosures` call on files written before timing.

    `classes` maps a dotted path in the JSON output to the reference class
    found there; `fields` maps dotted paths to other exact expected values.
    """

    label: str
    args: tuple[str, ...]
    files: dict[str, str] = field(default_factory=dict)
    classes: dict[str, str] = field(default_factory=dict)
    fields: dict[str, object] = field(default_factory=dict)
    nodes: int = 0


def _op(label: str, src: str, tgt: str, expect: str, **kw) -> Op:
    return Op(label, src, tgt, expect, count_nodes(src) + count_nodes(tgt), **kw)


# --- text ---------------------------------------------------------------------


def q(x: F) -> str:
    return str(F(x))


def meas_text(name: str, lo: F, hi: F) -> str:
    return f"meas({name},[{q(lo)},{q(hi)}],d)"


def exact_text(v: F) -> str:
    return f"exact({q(v)},d)"


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "e": 4, "m": 4}


def render(n) -> str:
    """Text with the fewest parentheses the grammar needs (left-assoc ops)."""
    kind = n[0]
    if kind == "e":
        return exact_text(n[1])
    if kind == "m":
        return meas_text(n[1], n[2], n[3])
    if kind == "neg":
        return "-" + _child(n[1], 3)
    p = _PREC[kind]
    return f"{_child(n[1], p)} {kind} {_child(n[2], p + 1)}"


def _child(n, min_prec: int) -> str:
    text = render(n)
    return f"({text})" if _PREC[n[0]] < min_prec else text


_LEAF = re.compile(r"(?:meas|exact)\([^)]*\)")


def count_nodes(text: str) -> int:
    """Syntax-tree nodes of `text`: leaves plus operators, where every '-'
    outside a leaf is a node whether binary or unary.  Leaf bodies are
    dropped first, since their numbers may carry '-' and '/'."""
    bare = _LEAF.sub("L", text)
    return sum(bare.count(ch) for ch in "L+-*/")


def has_meas(n) -> bool:
    if n[0] == "m":
        return True
    if n[0] == "e":
        return False
    return any(has_meas(c) for c in n[1:])


def tokens(n) -> set[str]:
    if n[0] == "m":
        return {n[1]}
    if n[0] == "e":
        return set()
    return set().union(*(tokens(c) for c in n[1:]))


# --- reference semantics ------------------------------------------------------


def value(n) -> F:
    """Value of a measurement-free tree; division by zero gives zero."""
    kind = n[0]
    if kind == "e":
        return n[1]
    if kind == "neg":
        return -value(n[1])
    a, b = value(n[1]), value(n[2])
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    return F(0) if b == 0 else a / b


def affine(n) -> tuple[F, dict[str, F]]:
    """(constant, coefficient per token) of a tree in the affine fragment."""
    kind = n[0]
    if kind == "e":
        return n[1], {}
    if kind == "m":
        return F(0), {n[1]: F(1)}
    if kind == "neg":
        c, k = affine(n[1])
        return -c, {t: -v for t, v in k.items()}
    lhs, rhs = n[1], n[2]
    if kind in ("+", "-"):
        sign = 1 if kind == "+" else -1
        cl, kl = affine(lhs)
        cr, kr = affine(rhs)
        out = dict(kl)
        for t, v in kr.items():
            out[t] = out.get(t, F(0)) + sign * v
        return cl + sign * cr, out
    if kind == "*":
        if not has_meas(lhs):
            scale, (c, k) = value(lhs), affine(rhs)
        elif not has_meas(rhs):
            scale, (c, k) = value(rhs), affine(lhs)
        else:
            raise ValueError("product of two measured subtrees")
        return scale * c, {t: scale * v for t, v in k.items()}
    if has_meas(rhs):
        raise ValueError("measured denominator")
    d = value(rhs)
    if d == 0:
        return F(0), {t: F(0) for t in tokens(lhs)}
    c, k = affine(lhs)
    return c / d, {t: v / d for t, v in k.items()}


def affine_image(const: F, coeffs: dict[str, F], boxes: dict[str, tuple[F, F]]) -> tuple[F, F]:
    """Exact image of const + sum(coeffs[t] * t) over the boxes (corner min/max)."""
    lo = hi = const
    for t, a in coeffs.items():
        blo, bhi = boxes[t]
        lo += min(a * blo, a * bhi)
        hi += max(a * blo, a * bhi)
    return lo, hi


def boxes_of(n) -> dict[str, tuple[F, F]]:
    if n[0] == "m":
        return {n[1]: (n[2], n[3])}
    if n[0] == "e":
        return {}
    out: dict[str, tuple[F, F]] = {}
    for c in n[1:]:
        out.update(boxes_of(c))
    return out


def image(n) -> tuple[F, F]:
    const, coeffs = affine(n)
    return affine_image(const, coeffs, boxes_of(n))


def class_of(src_img: tuple[F, F], tgt_img: tuple[F, F]) -> str:
    """Rewrite class from the two (connected) images: forward holds when the
    target's image lies inside the source's, backward when the reverse does."""
    fwd = src_img[0] <= tgt_img[0] and tgt_img[1] <= src_img[1]
    bwd = tgt_img[0] <= src_img[0] and src_img[1] <= tgt_img[1]
    if fwd and bwd:
        return INTERCHANGEABLE
    if fwd:
        return FORWARD
    if bwd:
        return BACKWARD
    return INCOMPARABLE


# --- rewrite families ---------------------------------------------------------


def family_pair(family: str, mode: str, iv, names) -> tuple[str, str]:
    """(source text, target text) of one family instance.

    `iv` is one interval for cancellation/division and a (signal, background)
    pair of intervals for background; `names` supplies three token names.
    """
    n1, n2, n3 = names
    split = mode == "distinct"
    if family == "background":
        (slo, shi), (blo, bhi) = iv
        s = meas_text(n1, slo, shi)
        b1 = meas_text(n2, blo, bhi)
        b2 = meas_text(n3 if split else n2, blo, bhi)
        return f"{s} + {b1} - {b2}", s
    lo, hi = iv
    m1 = meas_text(n1, lo, hi)
    m2 = meas_text(n2 if split else n1, lo, hi)
    if family == "cancellation":
        return f"{m1} - {m2}", exact_text(F(0))
    return f"{m1} / {m2}", exact_text(F(1))


def family_images(family: str, mode: str, iv) -> tuple[tuple[F, F], tuple[F, F]]:
    """Closed-form (source image, target image) of a family instance."""
    split = mode == "distinct"
    if family == "background":
        (slo, shi), (blo, bhi) = iv
        if split:
            return (slo + blo - bhi, shi + bhi - blo), (slo, shi)
        return (slo, shi), (slo, shi)
    lo, hi = iv
    if family == "cancellation":
        return ((lo - hi, hi - lo) if split else (F(0), F(0))), (F(0), F(0))
    # t1/t2 with 0 < lo is monotone in each argument on the box.
    return ((lo / hi, hi / lo) if split else (F(1), F(1))), (F(1), F(1))


def family_interval(r: random.Random, family: str):
    if family == "background":
        return _interval(r, -6, 6), _interval(r, -6, 6)
    if family == "division":
        return _interval(r, 1, 9)
    return _interval(r, -6, 6)


def check_family_table(seed: int = 0, rounds: int = 4) -> None:
    """Raise AssertionError unless the table matches every family x mode."""
    r = random.Random(f"table:{seed}")
    for family in FAMILIES:
        for mode in MODES:
            for _ in range(rounds):
                src, tgt = family_images(family, mode, family_interval(r, family))
                derived = class_of(src, tgt)
                if derived != FAMILY_TABLE[family, mode]:
                    raise AssertionError(
                        f"table says {FAMILY_TABLE[family, mode]} for {family}/{mode},"
                        f" images give {derived}"
                    )


# --- random pieces --------------------------------------------------------------


def _rat(r: random.Random, lo: int, hi: int) -> F:
    den = r.choice((1, 1, 2, 3))
    return F(r.randint(lo * den, hi * den), den)


def _interval(r: random.Random, lo: int, hi: int) -> tuple[F, F]:
    while True:
        a, b = _rat(r, lo, hi), _rat(r, lo, hi)
        if a != b:
            return min(a, b), max(a, b)


def _names(r: random.Random, n: int) -> list[str]:
    stem = r.choice(_NAMES)
    picked = r.sample(range(100), n)
    return [f"{stem}{i}" for i in picked]


def _rand_affine(r: random.Random, pool, budget: int):
    """Random affine tree with at most `budget` nodes over the token pool."""
    if budget < 3 or r.random() < 0.25:
        if r.random() < 0.8:
            name, (lo, hi) = r.choice(pool)
            return ("m", name, lo, hi)
        return ("e", _rat(r, -4, 4))
    kind = r.choice(("+", "+", "-", "-", "neg", "*", "/"))
    if kind == "neg":
        return ("neg", _rand_affine(r, pool, budget - 1))
    if kind in ("*", "/"):
        k = ("e", _rat(r, -3, 3) or F(1)) if kind == "*" else ("e", r.choice((F(2), F(3), F(1, 2), F(-2))))
        inner = _rand_affine(r, pool, budget - 2)
        if kind == "*" and r.random() < 0.5:
            return ("*", k, inner)
        return (kind, inner, k)
    left = r.randint(1, budget - 2)
    return (kind, _rand_affine(r, pool, left), _rand_affine(r, pool, budget - 1 - left))


def _rand_exact(r: random.Random, budget: int):
    if budget < 3 or r.random() < 0.3:
        return ("e", _rat(r, -5, 5))
    kind = r.choice(("+", "-", "*", "/", "neg"))
    if kind == "neg":
        return ("neg", _rand_exact(r, budget - 1))
    left = r.randint(1, budget - 2)
    return (kind, _rand_exact(r, left), _rand_exact(r, budget - 1 - left))


def _commute(n):
    """Swap the operands of every + node (same function, different tree)."""
    if n[0] in ("e", "m"):
        return n
    if n[0] == "neg":
        return ("neg", _commute(n[1]))
    lhs, rhs = _commute(n[1]), _commute(n[2])
    return ("+", rhs, lhs) if n[0] == "+" else (n[0], lhs, rhs)


# --- workloads ------------------------------------------------------------------


def suite(seed: int, pairs: int = 600) -> list[Op]:
    """Small pairs (<= 15 nodes, <= 4 tokens): one third family x mode,
    one third affine, one third measurement-free, interleaved.

    Sizes, token counts and rewrite kinds cycle with the index rather than
    being drawn, so every seed has the same mix and only the leaves and
    intervals differ: drawn, the mix alone moved the p50 by about 5% from
    seed to seed."""
    r = random.Random(f"suite:{seed}")
    ops: list[Op] = []
    for i in range(pairs):
        kind = i % 3
        if kind == 0:
            family, mode = FAMILIES[(i // 3) % 3], MODES[(i // 9) % 2]
            src, tgt = family_pair(family, mode, family_interval(r, family), _names(r, 3))
            ops.append(_op(f"family-{family}-{mode}", src, tgt, FAMILY_TABLE[family, mode]))
        elif kind == 1:
            j = i // 3
            names = _names(r, 1 + (j // 5) % 4)
            pool = [(n, _interval(r, -6, 6)) for n in names]
            src = _rand_affine(r, pool, 3 + (j // 20) % 10)
            how = ("commute", "shift", "scale", "other", "part")[j % 5]
            if how == "commute":
                tgt = _commute(src)
            elif how == "shift":
                tgt = ("+", src, ("e", _rat(r, -2, 2)))
            elif how == "scale":
                tgt = ("*", ("e", r.choice((F(1, 2), F(2), F(-1)))), src)
            elif how == "other":
                tgt = _rand_affine(r, pool, r.randint(1, 12))
            else:
                tgt = src[1] if src[0] not in ("e", "m") else src
            ops.append(_op(f"affine-{how}", render(src), render(tgt), class_of(image(src), image(tgt))))
        else:
            j = i // 3
            src = _rand_exact(r, 1 + (j // 4) % 13)
            how = ("literal", "commute", "other", "nudge")[j % 4]
            if how == "literal":
                tgt = ("e", value(src))
            elif how == "commute":
                tgt = _commute(src)
            elif how == "other":
                tgt = _rand_exact(r, r.randint(1, 13))
            else:
                tgt = ("+", ("e", value(src)), ("e", F(1, 7)))
            v, w = value(src), value(tgt)
            ops.append(_op(f"exact-{how}", render(src), render(tgt),
                           INTERCHANGEABLE if v == w else INCOMPARABLE))
    return ops


# Products: (leaves k, repeated-token variant, grid points, budget, copies).
# The budget rows sit below the grid size, so enumeration truncates.
PRODUCT_MIX = (
    (3, False, 5, 100_000, 2),
    (3, True, 5, 100_000, 1),
    (4, False, 4, 100_000, 2),
    (4, True, 4, 100_000, 1),
    (5, False, 3, 100_000, 2),
    (5, True, 3, 100_000, 1),
    (6, False, 3, 100_000, 1),
    (6, True, 3, 100_000, 1),
    (6, False, 5, 200, 2),
    (5, False, 400, 48, 2),
)
_PRODUCT_B = (F(3, 2), F(2), F(5, 2), F(3), F(7, 2), F(4))


def products(seed: int) -> list[Op]:
    """t0*...*t(k-1) over [1,b] (b > 1) against exact(1): closed form
    [1, prod b^multiplicity] against {1}, so one-way-only-forward."""
    r = random.Random(f"products:{seed}")
    ops: list[Op] = []
    for k, repeated, grid, budget, copies in PRODUCT_MIX:
        for _ in range(copies):
            names = _names(r, k)
            if repeated:
                names[-1] = names[0]
            # Every seed uses the same upper ends, in a seeded order, so the
            # arithmetic cost of an instance does not depend on the seed.
            tops = list(_PRODUCT_B[:k])
            r.shuffle(tops)
            boxes = {n: (F(1), b) for n, b in zip(names, tops)}
            src = " * ".join(meas_text(n, *boxes[n]) for n in names)
            top = prod(boxes[n][1] for n in names)
            expect = class_of((F(1), top), (F(1), F(1)))
            label = f"k{k}{'-rep' if repeated else ''}-g{grid}" + ("-trunc" if budget < 100_000 else "")
            ops.append(_op(label, src, exact_text(F(1)), expect, grid=grid, budget=budget))
    r.shuffle(ops)
    return ops


_TERM_FORMS = ("plain", "minus", "lscale", "rscale", "div")
_TERM_COEFS = (F(2), F(3), F(1, 2), F(-3))
_TERM_BOXES = tuple(
    (F(lo), F(hi)) for lo, hi in
    (("-1", "2"), ("0", "3"), ("1/2", "4"), ("-2", "5/3"), ("2", "7"), ("-3", "-1"), ("1/3", "2"), ("-5/2", "0"))
)


def _terms(r: random.Random, n: int, ntok: int):
    """n signed terms over ntok tokens, each token used about n/ntok times.

    Returns the term texts, per term (token, coefficient, sign) for the
    reference arithmetic (the first sign is always "+"), and the boxes.
    Intervals, term forms, coefficients and signs are fixed multisets that
    the seed only reorders, so the arithmetic cost of a sum of a given
    length does not depend on the seed.
    """
    names = _names(r, ntok) if ntok <= 100 else [f"v{i}" for i in range(ntok)]
    spans = [_TERM_BOXES[i % len(_TERM_BOXES)] for i in range(ntok)]
    r.shuffle(spans)
    boxes = dict(zip(names, spans))
    order = [names[i % ntok] for i in range(n)]
    shapes = [(_TERM_FORMS[i % 5], _TERM_COEFS[(i // 5) % 4]) for i in range(n)]
    signs = ["+" if i % 5 < 3 else "-" for i in range(n - 1)]
    for seq in (order, shapes, signs):
        r.shuffle(seq)
    texts, parts = [], []
    for t, (form, c), sign in zip(order, shapes, ["+"] + signs):
        m = meas_text(t, *boxes[t])
        text, coef = {
            "plain": (m, F(1)),
            "minus": (f"-{m}", F(-1)),
            "lscale": (f"{exact_text(c)} * {m}", c),
            "rscale": (f"{m} * {exact_text(c)}", c),
            "div": (f"{m} / {exact_text(c)}", 1 / c),
        }[form]
        texts.append(text)
        parts.append((t, coef, sign))
    return texts, parts, boxes


def _sum_text(texts, parts) -> str:
    out = [texts[0]]
    for text, (_, _, sign) in zip(texts[1:], parts[1:]):
        out.append(f" {sign} {text}")
    return "".join(out)


def _sum_image(parts, boxes) -> tuple[F, F]:
    coeffs: dict[str, F] = {}
    for t, coef, sign in parts:
        coeffs[t] = coeffs.get(t, F(0)) + (coef if sign == "+" else -coef)
    return affine_image(F(0), coeffs, boxes)


def _wide_sum(r: random.Random, n: int, how: str) -> Op:
    texts, parts, boxes = _terms(r, n, max(1, n // 4))
    src = _sum_text(texts, parts)
    src_img = _sum_image(parts, boxes)
    if how == "reorder":
        idx = list(range(n))
        r.shuffle(idx)
        # Every reordered term keeps its own sign, so the first term of the
        # copy is written as "0 +/- term" when its sign is "-".
        first = idx[0]
        lead = texts[first] if parts[first][2] == "+" else f"{exact_text(F(0))} - {texts[first]}"
        tgt = lead + "".join(f" {parts[i][2]} {texts[i]}" for i in idx[1:])
        tgt_img = src_img
    elif how == "shift":
        c = r.choice((F(1), F(-2), F(1, 3)))
        tgt = f"{src} + {exact_text(c)}"
        tgt_img = (src_img[0] + c, src_img[1] + c)
    else:  # halve
        if r.random() < 0.5:
            tgt = f"({src}) * {exact_text(F(1, 2))}"
        else:
            tgt = f"({src}) / {exact_text(F(2))}"
        tgt_img = (src_img[0] / 2, src_img[1] / 2)
    return _op(f"sum{n}-{how}", src, tgt, class_of(src_img, tgt_img))


def _nested(r: random.Random, depth: int, ntok: int, right: bool) -> Op:
    """A depth-`depth` parenthesised chain paired with a shifted copy: the
    left chain's copy is written flat, the right chain's keeps its nesting."""
    texts, parts, boxes = _terms(r, depth + 1, ntok)
    if right:
        # t_d op (... (t_1 op (t_0)) ...): each '-' flips the sign of the
        # whole parenthesised remainder.
        text = texts[0]
        coeffs: dict[str, F] = {parts[0][0]: parts[0][1]}
        for (t, coef, sign), term in zip(parts[1:], texts[1:]):
            text = f"{term} {sign} ({text})"
            flip = F(1) if sign == "+" else F(-1)
            coeffs = {k: v * flip for k, v in coeffs.items()}
            coeffs[t] = coeffs.get(t, F(0)) + coef
        src_img = affine_image(F(0), coeffs, boxes)
    else:
        text = texts[0]
        for (_, _, sign), term in zip(parts[1:], texts[1:]):
            text = f"({text}) {sign} {term}"
        src_img = _sum_image(parts, boxes)
    c = r.choice((F(1), F(-1, 2)))
    tgt = f"{_sum_text(texts, parts) if not right else text} + {exact_text(c)}"
    return _op(f"nest{depth}-{'right' if right else 'left'}", text, tgt,
               class_of(src_img, (src_img[0] + c, src_img[1] + c)))


def wide(seed: int) -> list[Op]:
    """Long affine sums with repeated tokens and deep parentheses, plus the
    probes that exceed the interpreter's recursion limit today."""
    r = random.Random(f"wide:{seed}")
    # Eleven timed operations per pass, four cheap (100 terms), four middle
    # (300 terms), three slow (deep nesting), so that the median and the
    # 90th percentile each fall inside a group of similar operations rather
    # than on the edge between two groups.
    hows = ("reorder", "shift", "halve", "reorder")
    ops = [_wide_sum(r, n, how) for n in (100, 300) for how in hows]
    ops.append(_nested(r, 300, 60, right=False))
    ops += [_nested(r, 300, 12, right=True) for _ in range(2)]
    r.shuffle(ops)
    return ops + probes(r)


def probes(r: random.Random) -> list[Op]:
    """Inputs that die with RecursionError at the time of writing.

    They are attempted once per pass and never timed.  Their failures
    lower ok_share and decided_share (and are listed in the result file),
    so a later fix shows as fewer failures, not as a slower median.
    """
    out = []
    texts, parts, boxes = _terms(r, 1000, 250)
    src = _sum_text(texts, parts)
    out.append(_op("probe-sum1000", src, f"{src} + {exact_text(F(0))}", INTERCHANGEABLE, probe=True))
    small_texts, small_parts, _ = _terms(r, 3, 3)
    small = _sum_text(small_texts, small_parts)
    out.append(_op("probe-parens3000", "(" * 3000 + small + ")" * 3000, small, INTERCHANGEABLE,
                   probe=True))
    name = _names(r, 1)[0]
    leaf = meas_text(name, *_interval(r, -5, 5))
    out.append(_op("probe-neg3000", "-" * 3000 + leaf, leaf, INTERCHANGEABLE, probe=True))
    texts, parts, _ = _terms(r, 400, 100)
    src = _sum_text(texts, parts)
    out.append(_op("probe-classify400", src, src, INTERCHANGEABLE, probe=True))
    return out


def cli(seed: int) -> list[CliCall]:
    """Small seeded calls of classify, enclosure, demo and blind."""
    r = random.Random(f"cli:{seed}")
    calls: list[CliCall] = []
    for i, op in enumerate(suite(seed, pairs=3)):
        calls.append(CliCall(
            f"classify-{op.label}", ("classify", f"c{i}s.expr", f"c{i}t.expr"),
            {f"c{i}s.expr": op.src, f"c{i}t.expr": op.tgt},
            {"classification.class": op.expect}, {"audit": True}, op.nodes,
        ))
    for i in range(2):
        names = _names(r, r.randint(2, 4))
        pool = [(n, _interval(r, -6, 6)) for n in names]
        tree = _rand_affine(r, pool, r.randint(5, 13))
        lo, hi = image(tree)
        calls.append(CliCall(
            "enclosure", ("enclosure", f"e{i}.expr"), {f"e{i}.expr": render(tree)}, {},
            {"result.outcome": "exact-interval", "result.interval": [q(lo), q(hi)]},
            count_nodes(render(tree)),
        ))
    for _ in range(2):
        family, mode = r.choice(FAMILIES), r.choice(MODES)
        iv = family_interval(r, family)
        if family == "background":
            flags = ("--signal-interval", f"[{q(iv[0][0])},{q(iv[0][1])}]",
                     "--background-interval", f"[{q(iv[1][0])},{q(iv[1][1])}]")
        else:
            flags = ("--interval", f"[{q(iv[0])},{q(iv[1])}]")
        calls.append(CliCall(
            f"demo-{family}-{mode}", ("demo", "--family", family, "--mode", mode) + flags, {},
            {"computed_class": FAMILY_TABLE[family, mode],
             "blind.class1.class": FAMILY_TABLE[family, "same"],
             "blind.class2.class": FAMILY_TABLE[family, "distinct"]},
            {"audit": True},
        ))
    for i in range(2):
        family = r.choice(FAMILIES)
        iv = family_interval(r, family)
        names = _names(r, 3)
        same, tgt = family_pair(family, "same", iv, names)
        distinct, _ = family_pair(family, "distinct", iv, names)
        files = {f"b{i}1.expr": same, f"b{i}2.expr": distinct, f"b{i}t.expr": tgt}
        calls.append(CliCall(
            f"blind-{family}", ("blind", *files), files,
            {"class1.class": FAMILY_TABLE[family, "same"],
             "class2.class": FAMILY_TABLE[family, "distinct"]},
            {"erased_equal": True, "audit": True},
            sum(count_nodes(t) for t in files.values()),
        ))
    r.shuffle(calls)
    return calls
