"""Three-valued rewrite classification with machine-checkable evidence.

A rewrite from src to tgt is licensed when every value warranted for tgt
is already warranted for src (the target makes the tighter claim).  The
decision ladder below settles containment wherever a certificate exists
in either direction and answers Undecided otherwise; it never guesses.
Verdicts carry witness environments or exclusion certificates that can
be re-validated from scratch, which the audit helpers at the bottom do.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Union

from .enclosure import (
    DEFAULT_ENV_BUDGET,
    DEFAULT_GRID_POINTS,
    AffineForm,
    EmptySet,
    EnclosureOutcome,
    ExclusionCertificate,
    Inconclusive,
    LazyOutcome,
    Member,
    Unknown,
    _attains,
    _check_grid,
    _fold_outcome,
    _form_witness,
    certificate_of,
    lazy_enclosure,
    membership_in,
    over_approx,
    settle,
)
from .expr import Expr, Interval
from .record import record
from .semantics import TokenEnv, _less


# --- evidence carried by Holds -----------------------------------------------


@record
class SameExpression:
    """src and tgt are the same tree; containment is reflexive."""


@record
class IntervalContainment:
    """tgt's certified bound sits inside src's exact interval.

    target_kind says what the bound certifies: "exact-interval" means
    tgt's enclosure equals `target`, "over-approx" means it is merely
    contained in `target` (still enough for the containment claim).
    A witness environment is attached when the target is a single point.
    """

    source: Interval
    target: Interval
    target_kind: str
    witness: TokenEnv | None = None
    witness_value: Fraction | None = None


# EmptySet: tgt's own empty outcome.  Member: src attains tgt's one value.
HoldsEvidence = Union[SameExpression, EmptySet, IntervalContainment, Member]


# --- three-valued verdicts ---------------------------------------------------


@record
class Holds:
    evidence: HoldsEvidence


@record
class Fails:
    """env is consistent with tgt, evaluates it to value, and the
    certificate shows value is outside src's enclosure."""

    env: TokenEnv
    value: Fraction
    certificate: ExclusionCertificate


@record
class Undecided:
    """Neither direction of the containment could be certified."""

    source_outcome: EnclosureOutcome
    target_outcome: EnclosureOutcome


Verdict = Union[Holds, Fails, Undecided]


class RewriteClass(Enum):
    INTERCHANGEABLE = "interchangeable"
    ONE_WAY_ONLY_FORWARD = "one-way-only-forward"
    ONE_WAY_ONLY_BACKWARD = "one-way-only-backward"
    INCOMPARABLE = "incomparable"
    UNDETERMINED = "undetermined"


@record
class Classification:
    kind: RewriteClass
    forward: Verdict
    backward: Verdict


# --- the containment decision ladder -----------------------------------------


def licensed(
    src: Expr,
    tgt: Expr,
    grid_points: int = DEFAULT_GRID_POINTS,
    budget: int = DEFAULT_ENV_BUDGET,
) -> Verdict:
    """Decide whether every value warranted for tgt is warranted for src."""
    _check_grid(grid_points, budget)
    if src == tgt:
        return Holds(SameExpression())
    enc_tgt = lazy_enclosure(tgt, grid_points, budget)
    return _decide(src, tgt, lazy_enclosure(src, grid_points, budget), enc_tgt)


def _decide(
    src: Expr, tgt: Expr, enc_src: LazyOutcome, enc_tgt: LazyOutcome
) -> Verdict:
    """The ladder behind `licensed`, for src != tgt: confirm, then refute.

    Each side's bound is read through its certificate alone.  Samples are
    read from the lazy enclosures in order and drawn only until a rung is
    decided; an Undecided verdict settles both outcomes in full.  A Holds
    carries tgt's own `EmptySet` or the `Member` that `membership_in` gave.
    """
    if isinstance(enc_tgt, EmptySet):
        return Holds(enc_tgt)  # an empty tgt is contained in anything
    cert, tgt_cert = certificate_of(enc_src), certificate_of(enc_tgt)
    exact = cert is not None and cert.kind == "exact-interval"

    # Confirm: tgt's certified bound lies inside src's exact interval.  For a
    # point target q that is q's membership in src, decided with a witness.
    if tgt_cert is not None and tgt_cert.kind == "exact-interval" and tgt_cert.bounds.is_point:
        match found := membership_in(src, tgt_cert.bounds.lo, enc_src):
            case Member(env, q) if exact:
                evidence = IntervalContainment(cert.bounds, tgt_cert.bounds, tgt_cert.kind, env, q)
                return Holds(evidence)
            case Member():
                return Holds(found)
            case Inconclusive(outcome):
                return Undecided(outcome, settle(enc_tgt))
    elif exact and tgt_cert is not None and cert.bounds.encloses(tgt_cert.bounds):
        return Holds(IntervalContainment(cert.bounds, tgt_cert.bounds, tgt_cert.kind))

    # Refute: a tgt value that src's certificate excludes.  An affine target
    # offers one end of its interval: the high end when it lies above cert's
    # bound or cert is empty, the low end otherwise.
    if cert is not None and isinstance(enc_tgt, AffineForm):
        iv = tgt_cert.bounds
        above = cert.bounds is None or _less(
            cert.bounds.hi.as_integer_ratio(), iv.hi.as_integer_ratio()
        )
        q = iv.hi if above else iv.lo
        env = _form_witness(enc_tgt, tgt, q) if cert.excludes(q) else None
        if env is not None:
            return Fails(env, q, cert)
    elif cert is not None:
        for env, value in enc_tgt:
            if cert.excludes(value):
                return Fails(env, value, cert)

    return Undecided(settle(enc_src), settle(enc_tgt))


# --- classification ----------------------------------------------------------


def classify(
    src: Expr,
    tgt: Expr,
    grid_points: int = DEFAULT_GRID_POINTS,
    budget: int = DEFAULT_ENV_BUDGET,
) -> Classification:
    """Combine both containment directions into a rewrite class.

    Each side is enclosed at most once and its samples serve both
    directions, drawn only as far as a decision needs them; the verdicts
    equal those of `licensed` in each direction.
    """
    _check_grid(grid_points, budget)
    if src == tgt:
        forward = backward = Holds(SameExpression())
    else:
        enc_src = lazy_enclosure(src, grid_points, budget)
        enc_tgt = lazy_enclosure(tgt, grid_points, budget)
        forward = _decide(src, tgt, enc_src, enc_tgt)
        backward = _decide(tgt, src, enc_tgt, enc_src)
    match forward, backward:
        case Holds(), Holds():
            kind = RewriteClass.INTERCHANGEABLE
        case Holds(), Fails():
            kind = RewriteClass.ONE_WAY_ONLY_FORWARD
        case Fails(), Holds():
            kind = RewriteClass.ONE_WAY_ONLY_BACKWARD
        case Fails(), Fails():
            kind = RewriteClass.INCOMPARABLE
        case _:
            kind = RewriteClass.UNDETERMINED
    return Classification(kind, forward, backward)


# --- evidence re-validation --------------------------------------------------


def audit_verdict(verdict: Verdict, src: Expr, tgt: Expr) -> bool:
    """Re-derive every claim a verdict makes, from the expressions alone."""
    match verdict:
        case Holds(SameExpression()):
            return src == tgt
        case Holds(EmptySet() as empty):
            return _fold_outcome(tgt) == empty
        case Holds(IntervalContainment(source, target, target_kind, witness, value)):
            return (
                _bounds_claim(src, "exact-interval", source)
                and _bounds_claim(tgt, target_kind, target)
                and source.encloses(target)
                and (
                    value is None
                    if witness is None
                    else _attains(witness, src, value) and target.contains(value)
                )
            )
        case Holds(Member(env, value)):
            return (
                _bounds_claim(tgt, "exact-interval", Interval.point(value))
                and _attains(env, src, value)
            )
        case Fails(env, value, certificate):
            return (
                _attains(env, tgt, value)
                and certificate.excludes(value)
                and _bounds_claim(src, certificate.kind, certificate.bounds)
            )
        case Undecided(source_outcome, target_outcome):
            return _outcome_claim(src, source_outcome) and _outcome_claim(tgt, target_outcome)
    return False


def _outcome_claim(e: Expr, out: EnclosureOutcome) -> bool:
    """Re-derive an outcome of e: an Unknown's `over` and each of its
    samples (the grid it came from is not part of the claim); any other
    outcome must be the one e's fold outcome settles to (none off the fragment)."""
    if not isinstance(out, Unknown):
        folded = _fold_outcome(e)
        return type(folded) is not str and out == settle(folded)
    return out.over == over_approx(e) and all(_attains(env, e, v) for env, v in out.under)


def _bounds_claim(e: Expr, kind: str, bounds: Interval | None) -> bool:
    """Re-derive from e alone what `kind` certifies about `bounds`.

    "empty": e's enclosure has no elements (and `bounds` is None);
    "exact-interval": it is exactly `bounds`; "over-approx": `bounds` is
    `over_approx(e)`, which contains it.  Any other kind certifies nothing.
    """
    if kind == "empty":
        return bounds is None and isinstance(_fold_outcome(e), EmptySet)
    if kind == "exact-interval":
        form = _fold_outcome(e)
        return isinstance(form, AffineForm) and form.interval == bounds
    if kind == "over-approx":
        return over_approx(e) == bounds
    return False


def audit_classification(cls: Classification, src: Expr, tgt: Expr) -> bool:
    """Check both directional verdicts; the backward one swaps the roles.

    Every claim is re-derived through each side's fold outcome
    (`_fold_outcome`, read as it is), `over_approx` and evaluation, never
    through the ladder, and nothing a verdict carries reaches them.  No
    claim is re-derived by sampling: only the fold can certify an exact or
    empty enclosure, so a forged one is rejected without drawing a sample.
    """
    return audit_verdict(cls.forward, src, tgt) and audit_verdict(cls.backward, tgt, src)
