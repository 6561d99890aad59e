"""Parameterized builders for the three rewrite families.

Each family pairs a measurement-bearing source with a tighter target:
cancellation (m - m against exact 0), background subtraction
((s + b) - b against the signal leaf), and self-division (m / m against
exact 1).  The same mode reuses one token per measured quantity; the
distinct mode splits occurrences across fresh tokens.  Sharing makes the
pair interchangeable; splitting leaves only the forward rewrite.
"""

from __future__ import annotations

from fractions import Fraction

from .expr import Add, Dim, Div, Exact, Expr, Interval, Meas, Sub, Token, _name
from .record import record
from .rewrite import RewriteClass

FAMILIES = ("cancellation", "background", "division")
MODES = ("same", "distinct")


class FamilySpecError(ValueError):
    """A family parameterization violates its side conditions."""


@record
class FamilySpec:
    """Validated parameters for one family instance.

    cancellation and division use `interval`; background uses `signal`
    and `background`.  Nondegeneracy (lo < hi) is required wherever the
    distinct mode's separation depends on it, and division additionally
    needs a strictly positive interval so the denominator avoids 0.
    """

    family: str
    mode: str
    interval: Interval | None = None
    signal: Interval | None = None
    background: Interval | None = None
    dim: Dim = Dim("d")

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise FamilySpecError(f"unknown family: {self.family!r}")
        if self.mode not in MODES:
            raise FamilySpecError(f"unknown mode: {self.mode!r}")
        try:  # the pair's text must parse back
            _name("dim tag", self.dim)
        except ValueError as ex:
            raise FamilySpecError(str(ex)) from None
        if self.family in ("cancellation", "division"):
            if self.interval is None:
                raise FamilySpecError(f"{self.family} needs an interval")
            if not self.interval.lo < self.interval.hi:
                raise FamilySpecError(f"{self.family} needs lo < hi")
            if self.family == "division" and not self.interval.lo > 0:
                raise FamilySpecError("division needs 0 < lo")
        else:
            if self.signal is None or self.background is None:
                raise FamilySpecError(
                    "background needs a signal interval and a background interval"
                )
            if not self.background.lo < self.background.hi:
                raise FamilySpecError("background interval needs lo < hi")


def _occurrences(name: str, interval: Interval, dim: Dim, mode: str) -> tuple[Meas, Meas]:
    """Two occurrences of one measured quantity: one shared leaf in the same
    mode, leaves with the fresh tokens <name>1 and <name>2 in the distinct mode."""
    if mode == "same":
        m = Meas(Token(name), interval, dim)
        return m, m
    return Meas(Token(f"{name}1"), interval, dim), Meas(Token(f"{name}2"), interval, dim)


def source_expr(spec: FamilySpec, mode: str) -> Expr:
    """The measurement-bearing side of the pair, in the given mode."""
    if mode not in MODES:
        raise FamilySpecError(f"unknown mode: {mode!r}")
    match spec.family:
        case "cancellation":
            return Sub(*_occurrences("t", spec.interval, spec.dim, mode))
        case "division":
            return Div(*_occurrences("t", spec.interval, spec.dim, mode))
    b1, b2 = _occurrences("tb", spec.background, spec.dim, mode)
    return Sub(Add(Meas(Token("ts"), spec.signal, spec.dim), b1), b2)


def target_expr(spec: FamilySpec) -> Expr:
    """The tighter claim, with the source's dimension tag carried along."""
    match spec.family:
        case "cancellation":
            return Exact(Fraction(0), spec.dim)
        case "background":
            return Meas(Token("ts"), spec.signal, spec.dim)
        case "division":
            return Exact(Fraction(1), spec.dim)
    raise FamilySpecError(f"unknown family: {spec.family!r}")


def build_pair(spec: FamilySpec) -> tuple[Expr, Expr]:
    """(source, target) for the spec's own mode."""
    return source_expr(spec, spec.mode), target_expr(spec)


def build_variants(spec: FamilySpec) -> tuple[Expr, Expr, Expr]:
    """(same-mode source, distinct-mode source, target), mode ignored.

    The two sources erase to the same token-free tree, which is what the
    blind comparison demonstrates.
    """
    return source_expr(spec, "same"), source_expr(spec, "distinct"), target_expr(spec)


def expected_class(mode: str) -> RewriteClass:
    if mode == "same":
        return RewriteClass.INTERCHANGEABLE
    if mode == "distinct":
        return RewriteClass.ONE_WAY_ONLY_FORWARD
    raise FamilySpecError(f"unknown mode: {mode!r}")
