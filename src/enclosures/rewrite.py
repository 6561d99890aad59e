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
    _fold_outcome,
    _form_witness,
    certificate_of,
    lazy_enclosure,
    membership_in,
    over_approx,
    settle,
)
from .expr import Expr, Interval, is_exact
from .record import record
from .semantics import TokenEnv, _less, exact_value


class PreconditionViolated(ValueError):
    """An operation was called outside its stated precondition."""


# --- evidence carried by Holds -----------------------------------------------


@record
class SameExpression:
    """src and tgt are the same tree; containment is reflexive."""


@record
class EmptyTarget:
    """tgt's enclosure is empty, so it is contained in anything."""

    token_name: str


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


@record
class MembershipWitness:
    """tgt's enclosure is the single value; env makes src attain it."""

    env: TokenEnv
    value: Fraction


HoldsEvidence = Union[SameExpression, EmptyTarget, IntervalContainment, MembershipWitness]


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
    decided; an Undecided verdict settles both outcomes in full.
    """
    if isinstance(enc_tgt, EmptySet):
        return Holds(EmptyTarget(enc_tgt.token.name))  # src is never enclosed
    cert, tgt_cert = certificate_of(enc_src), certificate_of(enc_tgt)
    exact = cert is not None and cert.kind == "exact-interval"

    # Confirm: tgt's certified bound lies inside src's exact interval.  For a
    # point target q that is q's membership in src, decided with a witness.
    if tgt_cert is not None and tgt_cert.kind == "exact-interval" and tgt_cert.bounds.is_point:
        match membership_in(src, tgt_cert.bounds.lo, enc_src):
            case Member(env, q) if exact:
                evidence = IntervalContainment(cert.bounds, tgt_cert.bounds, tgt_cert.kind, env, q)
                return Holds(evidence)
            case Member(env, q):
                return Holds(MembershipWitness(env, q))
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


def check_conservativity(e: Expr, e2: Expr) -> bool:
    """Self-test predicate for measurement-free pairs.

    Two exact expressions must classify as Interchangeable exactly when
    their values coincide and Incomparable otherwise; a one-way class
    between them would be a soundness bug.
    """
    if not (is_exact(e) and is_exact(e2)):
        raise PreconditionViolated("both expressions must be measurement-free")
    expected = (
        RewriteClass.INTERCHANGEABLE
        if exact_value(e) == exact_value(e2)
        else RewriteClass.INCOMPARABLE
    )
    return classify(e, e2).kind is expected


# --- evidence re-validation --------------------------------------------------


def audit_verdict(verdict: Verdict, src: Expr, tgt: Expr) -> bool:
    """Re-derive every claim a verdict makes, from the expressions alone."""
    match verdict:
        case Holds(SameExpression()):
            return src == tgt
        case Holds(EmptyTarget(token_name)):
            enc = _fold_outcome(tgt)
            return isinstance(enc, EmptySet) and enc.token.name == token_name
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
        case Holds(MembershipWitness(env, value)):
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
    outcome must be the one e's affine fold settles to (none off the fragment)."""
    if not isinstance(out, Unknown):
        folded = _fold_outcome(e)
        return folded is not None and out == settle(folded)
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

    Every claim is re-derived through each side's affine fold
    (`to_affine`), `over_approx` and evaluation, never through the ladder.
    A side that `classify` enclosed is a node whose fold `to_affine`
    memoized, so the audit reads that memo, the same deterministic fold of
    the same frozen tree; nothing a verdict carries reaches it.  No claim
    is re-derived by sampling: only the fold can certify an exact or empty
    enclosure, so a forged one is rejected without drawing a sample.
    """
    return audit_verdict(cls.forward, src, tgt) and audit_verdict(cls.backward, tgt, src)
