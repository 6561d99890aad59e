"""Three-valued rewrite classification with machine-checkable evidence.

A rewrite from src to tgt is licensed when every value warranted for tgt
is already warranted for src (the target makes the tighter claim).  The
decision ladder below settles containment wherever a certificate exists
in either direction and answers Undecided otherwise; it never guesses.
Verdicts carry witness environments or exclusion certificates that can
be re-validated from scratch, which the audit helpers at the bottom do.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Union

from .enclosure import (
    DEFAULT_ENV_BUDGET,
    DEFAULT_GRID_POINTS,
    AffineForm,
    EmptySet,
    EnclosureOutcome,
    ExactInterval,
    ExclusionCertificate,
    LazyOutcome,
    SampleStream,
    Unknown,
    _form_witness,
    certificate_of,
    enclosure,
    lazy_enclosure,
    over_approx,
    settle,
)
from .expr import Expr, Interval, is_exact
from .semantics import TokenEnv, compile_expr, evaluate, exact_value, token_consistent


class PreconditionViolated(ValueError):
    """An operation was called outside its stated precondition."""


# --- evidence carried by Holds -----------------------------------------------


@dataclass(frozen=True)
class SameExpression:
    """src and tgt are the same tree; containment is reflexive."""


@dataclass(frozen=True)
class EmptyTarget:
    """tgt's enclosure is empty, so it is contained in anything."""

    token_name: str


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class MembershipWitness:
    """tgt's enclosure is the single value; env makes src attain it."""

    env: TokenEnv
    value: Fraction


HoldsEvidence = Union[SameExpression, EmptyTarget, IntervalContainment, MembershipWitness]


# --- three-valued verdicts ---------------------------------------------------


@dataclass(frozen=True)
class Holds:
    evidence: HoldsEvidence


@dataclass(frozen=True)
class Fails:
    """env is consistent with tgt, evaluates it to value, and the
    certificate shows value is outside src's enclosure."""

    env: TokenEnv
    value: Fraction
    certificate: ExclusionCertificate


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    """The ladder behind `licensed`, for src != tgt: confirm, refute, attain.

    Each side's bound is read through its certificate alone.  Samples are
    read from the lazy enclosures in order and drawn only until a rung is
    decided; an Undecided verdict settles both outcomes in full.
    """
    if isinstance(enc_tgt, EmptySet):
        return Holds(EmptyTarget(enc_tgt.token.name))  # src is never enclosed
    cert, tgt_cert = certificate_of(enc_src), certificate_of(enc_tgt)
    exact_tgt = tgt_cert is not None and tgt_cert.kind == "exact-interval"
    point = tgt_cert.bounds.lo if exact_tgt and tgt_cert.bounds.is_point else None

    # Confirm: tgt's certified bound lies inside src's exact interval.
    if cert is not None and tgt_cert is not None and cert.kind == "exact-interval":
        source, target = cert.bounds, tgt_cert.bounds
        if source.encloses(target):
            witness = None if point is None else _form_witness(enc_src, src, point)
            value = point if witness is not None else None
            evidence = IntervalContainment(source, target, tgt_cert.kind, witness, value)
            return Holds(evidence)

    # Refute: a tgt value that src's certificate excludes.
    if cert is not None:
        for env, value in _target_members(tgt, enc_tgt, tgt_cert, cert):
            return Fails(env, value, cert)

    # Attain: tgt is the single value `point`, and a src sample equals it.
    if point is not None and isinstance(enc_src, SampleStream):
        for env, value in enc_src:
            if value == point:
                return Holds(MembershipWitness(env, value))

    return Undecided(settle(enc_src), settle(enc_tgt))


def _target_members(
    tgt: Expr,
    enc_tgt: LazyOutcome,
    tgt_cert: ExclusionCertificate | None,
    cert: ExclusionCertificate,
) -> Iterator[tuple[TokenEnv, Fraction]]:
    """Warranted (env, value) pairs of the target that `cert` excludes.

    An affine target offers one end of its interval: the high end when it
    lies above cert's bound or cert is empty, the low end otherwise.
    """
    if isinstance(enc_tgt, AffineForm):
        iv = tgt_cert.bounds
        q = iv.hi if cert.bounds is None or iv.hi > cert.bounds.hi else iv.lo
        if cert.excludes(q):
            env = _form_witness(enc_tgt, tgt, q)
            if env is not None:
                yield env, q
    else:
        for env, value in enc_tgt:
            if cert.excludes(value):
                yield env, value


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
    return _audit(verdict, src, tgt, enclosure)


def _audit(
    verdict: Verdict,
    src: Expr,
    tgt: Expr,
    enclose: Callable[[Expr], EnclosureOutcome],
) -> bool:
    """`audit_verdict`, taking each side's enclosure from `enclose`."""
    match verdict:
        case Holds(SameExpression()):
            return src == tgt
        case Holds(EmptyTarget(token_name)):
            enc = enclose(tgt)
            return isinstance(enc, EmptySet) and enc.token.name == token_name
        case Holds(IntervalContainment(source, target, target_kind, witness, value)):
            if not (
                _bounds_claim(src, "exact-interval", source, enclose)
                and _bounds_claim(tgt, target_kind, target, enclose)
                and source.encloses(target)
            ):
                return False
            if witness is None:
                return True
            return (
                value is not None
                and token_consistent(witness, src)
                and evaluate(witness, src) == value
                and target.contains(value)
            )
        case Holds(MembershipWitness(env, value)):
            return (
                _bounds_claim(tgt, "exact-interval", Interval.point(value), enclose)
                and token_consistent(env, src)
                and evaluate(env, src) == value
            )
        case Fails(env, value, certificate):
            return (
                token_consistent(env, tgt)
                and evaluate(env, tgt) == value
                and certificate.excludes(value)
                and _bounds_claim(src, certificate.kind, certificate.bounds, enclose)
            )
        case Undecided(source_outcome, target_outcome):
            return _outcome_claim(src, source_outcome, enclose) and _outcome_claim(
                tgt, target_outcome, enclose
            )
    return False


def _outcome_claim(
    e: Expr, out: EnclosureOutcome, enclose: Callable[[Expr], EnclosureOutcome]
) -> bool:
    """Re-derive an outcome of e: an Unknown's `over` and each of its
    samples (the grid it came from is not part of the claim); any other
    outcome is e's enclosure itself."""
    if not isinstance(out, Unknown):
        return out == enclose(e)
    run = compile_expr(e)
    return out.over == over_approx(e) and all(
        token_consistent(env, e) and run(env.value) == value for env, value in out.under
    )


def _bounds_claim(
    e: Expr,
    kind: str,
    bounds: Interval | None,
    enclose: Callable[[Expr], EnclosureOutcome],
) -> bool:
    """Re-derive from e alone what `kind` certifies about `bounds`.

    "empty": e's enclosure has no elements; "exact-interval": it is exactly
    `bounds`; "over-approx": `bounds` is `over_approx(e)`, which contains
    it.  Any other kind certifies nothing.
    """
    if kind == "empty":
        return isinstance(enclose(e), EmptySet)
    if kind == "exact-interval":
        enc = enclose(e)
        return isinstance(enc, ExactInterval) and enc.interval == bounds
    if kind == "over-approx":
        return over_approx(e) == bounds
    return False


def audit_classification(cls: Classification, src: Expr, tgt: Expr) -> bool:
    """Check both directional verdicts; the backward one swaps the roles.

    Each side is enclosed at most once, from the expression alone, and
    both verdicts read that enclosure.
    """
    outcomes: dict[int, EnclosureOutcome] = {}

    def enclose(e: Expr) -> EnclosureOutcome:
        if id(e) not in outcomes:
            outcomes[id(e)] = enclosure(e)
        return outcomes[id(e)]

    return _audit(cls.forward, src, tgt, enclose) and _audit(
        cls.backward, tgt, src, enclose
    )
