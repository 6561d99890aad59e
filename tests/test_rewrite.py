"""Containment verdicts, rewrite classes, and evidence auditing."""

import collections
import copy
import importlib
import itertools
import random
from fractions import Fraction
from fractions import Fraction as F
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from enclosures import (
    Add,
    Classification,
    ExactInterval,
    ExclusionCertificate,
    Exact,
    FAMILIES,
    Fails,
    Holds,
    InfeasibleTokenError,
    Interval,
    IntervalContainment,
    MODES,
    Meas,
    Mul,
    NotAffineError,
    RewriteClass,
    SameExpression,
    Token,
    TokenEnv,
    Undecided,
    audit_classification,
    audit_verdict,
    build_pair,
    classify,
    enclosure,
    evaluate,
    exact_value,
    licensed,
    meas_leaves,
    parse,
    replace,
    to_affine,
    token_consistent,
)
from enclosures.enclosure import (
    AffineForm,
    EmptySet,
    LazyOutcome,
    Member,
    NonMember,
    SampleStream,
    _fold_outcome,
    _form_witness,
    certificate_of,
    lazy_enclosure,
    membership_in,
    over_approx,
    settle,
    under_approx_samples,
)
from enclosures.expr import Expr
from enclosures.rewrite import Verdict
from exprgen import (
    D,
    gen_affine,
    gen_any,
    gen_exact,
    rand_family_spec,
    rand_rational,
    redeclare,
    token_boxes,
)

SAME_DIFF = parse("meas(t,[2,5],d) - meas(t,[2,5],d)")
DIST_DIFF = parse("meas(t1,[2,5],d) - meas(t2,[2,5],d)")
SAME_DIV = parse("meas(t,[1,2],d) / meas(t,[1,2],d)")
DIST_DIV = parse("meas(t1,[1,2],d) / meas(t2,[1,2],d)")
ZERO = parse("exact(0,d)")
ONE = parse("exact(1,d)")

# over-approx bounds: [0,4] for the source, [1,4] for the target, so no
# sampled target value refutes and neither side is exact
UNDET_SRC = parse("meas(u1,[0,2],d) * meas(u2,[0,2],d)")
UNDET_TGT = parse("meas(u3,[1,2],d) * meas(u4,[1,2],d)")


class TestLicensed:
    def test_containment_with_point_target(self):
        verdict = licensed(DIST_DIFF, ZERO)
        assert isinstance(verdict, Holds)
        ev = verdict.evidence
        assert isinstance(ev, IntervalContainment)
        assert ev.source == Interval.of(-3, 3)
        assert ev.target == Interval.point(F(0))
        assert ev.target_kind == "exact-interval"
        assert ev.witness is not None
        assert token_consistent(ev.witness, DIST_DIFF)
        assert evaluate(ev.witness, DIST_DIFF) == ev.witness_value == 0

    def test_refutation_picks_high_end_first(self):
        verdict = licensed(ZERO, DIST_DIFF)
        assert isinstance(verdict, Fails)
        assert verdict.value == 3
        assert token_consistent(verdict.env, DIST_DIFF)
        assert evaluate(verdict.env, DIST_DIFF) == 3
        assert verdict.certificate.kind == "exact-interval"
        assert verdict.certificate.bounds == Interval.point(F(0))
        assert verdict.certificate.excludes(F(3))

    def test_reflexive_on_affine(self):
        assert licensed(SAME_DIFF, SAME_DIFF) == Holds(SameExpression())

    def test_reflexive_off_the_affine_fragment(self):
        assert licensed(DIST_DIV, DIST_DIV) == Holds(SameExpression())
        assert licensed(UNDET_SRC, UNDET_SRC) == Holds(SameExpression())

    def test_empty_target_contained_in_anything(self):
        infeasible = parse("meas(t,[0,1],d) + meas(t,[2,3],d)")
        verdict = licensed(ZERO, infeasible)
        assert verdict == Holds(EmptySet(Token("t")))
        assert verdict.evidence is _fold_outcome(infeasible)  # the target's own outcome

    def test_empty_source_refuted_by_any_target_value(self):
        infeasible = parse("meas(t,[0,1],d) + meas(t,[2,3],d)")
        verdict = licensed(infeasible, ZERO)
        assert isinstance(verdict, Fails)
        assert verdict.value == 0
        assert verdict.certificate.kind == "empty"

    def test_point_target_membership_route(self):
        # source is off the affine fragment, target is a single value
        verdict = licensed(UNDET_SRC, ONE)
        assert isinstance(verdict, Holds)
        assert type(verdict.evidence) is Member
        assert verdict.evidence == membership_in(UNDET_SRC, F(1), lazy_enclosure(UNDET_SRC))
        assert verdict.evidence.value == 1
        assert evaluate(verdict.evidence.env, UNDET_SRC) == 1

    def test_point_target_membership_refuted(self):
        three = parse("exact(3,d)")
        verdict = licensed(DIST_DIV, three)
        assert isinstance(verdict, Fails)
        assert verdict.value == 3
        assert verdict.certificate.kind == "over-approx"
        assert verdict.certificate.bounds == Interval(F(1, 2), F(2))

    def test_point_outside_folded_quotient(self):
        # identical-subtree quotient folds to the exact singleton one
        verdict = licensed(SAME_DIV, ZERO)
        assert isinstance(verdict, Fails)
        assert verdict.value == 0
        assert verdict.certificate.bounds == Interval.point(F(1))

    def test_sampled_refutation_from_nonexact_target(self):
        verdict = licensed(ONE, UNDET_SRC)
        assert isinstance(verdict, Fails)
        assert verdict.certificate.kind == "exact-interval"
        assert not Interval.of(1, 1).contains(verdict.value)

    def test_over_approx_confirmation(self):
        wide = parse("meas(w,[0,10],d)")
        verdict = licensed(wide, UNDET_TGT)
        assert isinstance(verdict, Holds)
        ev = verdict.evidence
        assert isinstance(ev, IntervalContainment)
        assert ev.target_kind == "over-approx"
        assert ev.target == Interval.of(1, 4)
        assert ev.witness is None

    def test_undecided_when_no_certificate_applies(self):
        verdict = licensed(UNDET_SRC, UNDET_TGT)
        assert isinstance(verdict, Undecided)

    @pytest.mark.parametrize(
        "src_text",
        ["meas(t,[1,2],d) * meas(u,[1,2],d)", "meas(w,[1,4],d)"],
        ids=["sampled", "exact"],
    )
    def test_one_refutation_end_for_every_source_bound(self, src_text):
        # both sources are bounded by [1,4]; the target lies wholly below it
        src, tgt = parse(src_text), parse("meas(v,[-3,-1],d)")
        verdict = licensed(src, tgt)
        assert isinstance(verdict, Fails)
        assert verdict.value == -3
        assert verdict.certificate.bounds == Interval.of(1, 4)
        assert audit_verdict(verdict, src, tgt)


class TestClassify:
    def test_same_token_cancellation(self):
        cls = classify(SAME_DIFF, ZERO)
        assert cls.kind is RewriteClass.INTERCHANGEABLE
        assert isinstance(cls.forward, Holds)
        assert isinstance(cls.backward, Holds)

    def test_distinct_token_cancellation(self):
        cls = classify(DIST_DIFF, ZERO)
        assert cls.kind is RewriteClass.ONE_WAY_ONLY_FORWARD
        assert isinstance(cls.forward, Holds)
        assert isinstance(cls.backward, Fails)

    def test_backward_direction(self):
        cls = classify(ZERO, DIST_DIFF)
        assert cls.kind is RewriteClass.ONE_WAY_ONLY_BACKWARD

    def test_incomparable_constants(self):
        cls = classify(parse("exact(2,d) + exact(2,d)"), parse("exact(5,d)"))
        assert cls.kind is RewriteClass.INCOMPARABLE
        assert isinstance(cls.forward, Fails)
        assert isinstance(cls.backward, Fails)

    def test_undetermined_when_either_direction_is_open(self):
        cls = classify(UNDET_SRC, UNDET_TGT)
        assert cls.kind is RewriteClass.UNDETERMINED
        assert isinstance(cls.forward, Undecided)
        assert isinstance(cls.backward, Fails)

    def test_division_families(self):
        assert classify(SAME_DIV, ONE).kind is RewriteClass.INTERCHANGEABLE
        assert classify(DIST_DIV, ONE).kind is RewriteClass.ONE_WAY_ONLY_FORWARD

    @settings(max_examples=60)
    @given(st.integers(0, 10**9))
    def test_kind_decomposes_into_directional_verdicts(self, seed):
        rng = random.Random(seed)
        boxes = token_boxes(rng)
        cls = classify(gen_affine(rng, boxes, 6), gen_affine(rng, boxes, 6))
        table = {
            (Holds, Holds): RewriteClass.INTERCHANGEABLE,
            (Holds, Fails): RewriteClass.ONE_WAY_ONLY_FORWARD,
            (Fails, Holds): RewriteClass.ONE_WAY_ONLY_BACKWARD,
            (Fails, Fails): RewriteClass.INCOMPARABLE,
        }
        key = (type(cls.forward), type(cls.backward))
        assert cls.kind is table.get(key, RewriteClass.UNDETERMINED)
        # affine pairs always decide both directions
        assert cls.kind is not RewriteClass.UNDETERMINED

    @settings(max_examples=40)
    @given(st.integers(0, 10**9))
    def test_swapping_arguments_mirrors_the_class(self, seed):
        rng = random.Random(seed)
        boxes = token_boxes(rng)
        a = gen_affine(rng, boxes, 6)
        b = gen_affine(rng, boxes, 6)
        mirror = {
            RewriteClass.INTERCHANGEABLE: RewriteClass.INTERCHANGEABLE,
            RewriteClass.ONE_WAY_ONLY_FORWARD: RewriteClass.ONE_WAY_ONLY_BACKWARD,
            RewriteClass.ONE_WAY_ONLY_BACKWARD: RewriteClass.ONE_WAY_ONLY_FORWARD,
            RewriteClass.INCOMPARABLE: RewriteClass.INCOMPARABLE,
        }
        assert classify(b, a).kind is mirror[classify(a, b).kind]


def _scaled_interval_expr(name, lo, hi):
    # enclosure is exactly [lo, hi]
    width = Mul(Exact(hi - lo, D), Meas(Token(name), Interval.of(0, 1), D))
    return Add(Exact(lo, D), width)


class TestTransitivity:
    def test_fixed_chain(self):
        e1 = parse("meas(ta,[0,10],d)")
        e2 = parse("exact(2,d) + meas(tb,[1,3],d)")
        e3 = parse("exact(4,d)")
        assert isinstance(licensed(e1, e2), Holds)
        assert isinstance(licensed(e2, e3), Holds)
        assert isinstance(licensed(e1, e3), Holds)

    @settings(max_examples=50)
    @given(st.integers(0, 10**9))
    def test_nested_interval_chains(self, seed):
        rng = random.Random(seed)
        cuts = sorted(rand_rational(rng) for _ in range(6))
        e1 = _scaled_interval_expr("t1", cuts[0], cuts[5])
        e2 = _scaled_interval_expr("t2", cuts[1], cuts[4])
        e3 = _scaled_interval_expr("t3", cuts[2], cuts[3])
        assert isinstance(licensed(e1, e2), Holds)
        assert isinstance(licensed(e2, e3), Holds)
        assert isinstance(licensed(e1, e3), Holds)


def _conservative(e: Expr, e2: Expr) -> bool:
    """Whether two measurement-free expressions classify as Interchangeable
    exactly when their values coincide, and as Incomparable otherwise: a
    one-way class between them would be a soundness bug."""
    same = exact_value(e) == exact_value(e2)
    return classify(e, e2).kind is (RewriteClass.INTERCHANGEABLE if same else RewriteClass.INCOMPARABLE)


class TestConservativity:
    def test_equal_values_interchangeable(self):
        assert _conservative(parse("exact(3,d) + exact(4,d)"), parse("exact(7,d)"))

    def test_unequal_values_incomparable(self):
        assert _conservative(parse("exact(3,d)"), parse("exact(4,d)"))

    def test_total_division_constant(self):
        assert _conservative(parse("exact(1,d) / exact(0,d)"), ZERO)

    @settings(max_examples=60)
    @given(st.integers(0, 10**9))
    def test_random_exact_pairs(self, seed):
        rng = random.Random(seed)
        assert _conservative(gen_exact(rng, 5), gen_exact(rng, 5))


class TestAudit:
    def test_family_classifications_audit_clean(self):
        pairs = [
            (SAME_DIFF, ZERO),
            (DIST_DIFF, ZERO),
            (SAME_DIV, ONE),
            (DIST_DIV, ONE),
            (ZERO, DIST_DIFF),
            (UNDET_SRC, UNDET_TGT),
        ]
        for src, tgt in pairs:
            cls = classify(src, tgt)
            assert audit_classification(cls, src, tgt), (src, tgt)

    def test_verdicts_audit_clean(self):
        for src, tgt in [(DIST_DIFF, ZERO), (ZERO, DIST_DIFF), (SAME_DIV, ONE)]:
            assert audit_verdict(licensed(src, tgt), src, tgt)

    @pytest.mark.parametrize("thing", [None, "holds", SameExpression(), ZERO], ids=repr)
    def test_what_is_not_a_verdict_audits_false(self, thing):
        assert audit_verdict(thing, ZERO, ZERO) is False

    def test_same_expression_claim_on_different_trees(self):
        assert not audit_verdict(Holds(SameExpression()), SAME_DIFF, ZERO)

    def test_empty_target_claim_on_inhabited_target(self):
        assert not audit_verdict(Holds(EmptySet(Token("t"))), ZERO, SAME_DIFF)

    def test_tampered_failure_value(self):
        real = licensed(ZERO, DIST_DIFF)
        fake = Fails(real.env, real.value + 1, real.certificate)
        assert not audit_verdict(fake, ZERO, DIST_DIFF)

    def test_tampered_certificate_that_excludes_nothing(self):
        real = licensed(ZERO, DIST_DIFF)
        fake = Fails(real.env, real.value, ExclusionCertificate("exact-interval", Interval.of(-5, 5)))
        assert not audit_verdict(fake, ZERO, DIST_DIFF)

    def test_tampered_certificate_bounds_mismatch(self):
        real = licensed(ZERO, DIST_DIFF)
        # excludes the value, but is not the recomputed source interval
        fake = Fails(real.env, real.value, ExclusionCertificate("exact-interval", Interval.of(-1, 1)))
        assert not audit_verdict(fake, ZERO, DIST_DIFF)

    def test_tampered_membership_env(self):
        out_of_range = TokenEnv({Token("t"): F(99)})
        fake = Holds(Member(out_of_range, F(0)))
        assert not audit_verdict(fake, SAME_DIFF, ZERO)

    def test_tampered_containment_kind(self):
        fake = Holds(IntervalContainment(Interval.of(-3, 3), Interval.point(F(0)), "bogus"))
        assert not audit_verdict(fake, DIST_DIFF, ZERO)

    def test_undecided_always_audits(self):
        verdict = licensed(UNDET_SRC, UNDET_TGT)
        assert audit_verdict(verdict, UNDET_SRC, UNDET_TGT)

    @settings(max_examples=50)
    @given(st.integers(0, 10**9))
    def test_random_affine_classifications_audit_clean(self, seed):
        rng = random.Random(seed)
        boxes = token_boxes(rng)
        src = gen_affine(rng, boxes, 6)
        tgt = gen_affine(rng, boxes, 6)
        assert audit_classification(classify(src, tgt), src, tgt)


# Genuine verdicts, one per kind of evidence the tamper table forges.
WIDE = parse("meas(w,[0,10],d)")
NARROW = parse("meas(n,[2,3],d)")
PRODUCT = parse("meas(p,[1,2],d) * meas(q,[1,2],d)")  # over-approx [1,4]
THREE = parse("exact(3,d)")
TEN = parse("exact(10,d)")
EMPTY = parse("meas(e,[0,1],d) + meas(e,[2,3],d)")  # e has no possible value
# 5**7 grid environments, over-approx [1,128]: only a fold can cheaply say
# it is not exact and not empty
SEVEN = parse(" * ".join(f"meas(t{i},[1,2],d)" for i in range(7)))
BIG = parse("exact(200,d)")


def _genuine(src, tgt, evidence_type):
    verdict = licensed(src, tgt)
    evidence = verdict.evidence if isinstance(verdict, Holds) else verdict
    assert isinstance(evidence, evidence_type), verdict
    assert audit_verdict(verdict, src, tgt)
    return verdict


def _containment(src, tgt, **changes):
    real = _genuine(src, tgt, IntervalContainment).evidence
    return Holds(replace(real, **changes)), src, tgt


def _failure(src, tgt, certificate):
    real = _genuine(src, tgt, Fails)
    return Fails(real.env, real.value, certificate), src, tgt


def _membership_against(src, genuine_tgt, forged_tgt):
    real = _genuine(src, genuine_tgt, Member)
    return real, src, forged_tgt


def _open(src, tgt, side, forge):
    """A genuine Undecided with one side's outcome replaced by forge(outcome)."""
    real = _genuine(src, tgt, Undecided)
    return replace(real, **{side: forge(getattr(real, side))}), src, tgt


def _first_sample(env=None, value=None):
    """Forge the first under sample: env and value replaced where given,
    the value otherwise off by one."""

    def forge(outcome):
        (real_env, real_value), *rest = outcome.under
        first = (env or real_env, real_value + 1 if value is None else value)
        return replace(outcome, under=(first, *rest))

    return forge


# name -> () -> (forged verdict, src, tgt); each forgery starts from a
# verdict that audits clean and changes one claim.
FORGERIES = {
    "containment-wrong-source": lambda: _containment(
        WIDE, NARROW, source=Interval.of(0, 11)
    ),
    "containment-wrong-exact-target": lambda: _containment(
        WIDE, NARROW, target=Interval.of(2, 4)
    ),
    "containment-wrong-over-target": lambda: _containment(
        WIDE, PRODUCT, target=Interval.of(1, 5)
    ),
    "containment-empty-kind": lambda: _containment(WIDE, NARROW, target_kind="empty"),
    "containment-witness-outside-target": lambda: _containment(
        WIDE, THREE, witness=TokenEnv({Token("w"): F(5)}), witness_value=F(5)
    ),
    "containment-value-without-witness": lambda: _containment(
        WIDE, NARROW, witness=None, witness_value=F(99)
    ),
    "fails-wrong-over-bounds": lambda: _failure(
        PRODUCT, TEN, ExclusionCertificate("over-approx", Interval.of(1, 5))
    ),
    "fails-empty-on-inhabited-source": lambda: _failure(
        PRODUCT, TEN, ExclusionCertificate("empty")
    ),
    "fails-empty-with-bounds": lambda: _failure(
        EMPTY, TEN, ExclusionCertificate("empty", Interval.of(5, 6))
    ),
    "fails-unknown-kind": lambda: _failure(
        PRODUCT, TEN, ExclusionCertificate("vertex-hull", Interval.of(1, 4))
    ),
    "membership-against-non-point-target": lambda: _membership_against(
        PRODUCT, ONE, parse("meas(v,[0,2],d)")
    ),
    "undecided-sample-value-off-by-one": lambda: _open(
        UNDET_SRC, UNDET_TGT, "source_outcome", _first_sample()
    ),
    "undecided-inconsistent-sample-env": lambda: _open(
        UNDET_SRC,
        UNDET_TGT,
        "source_outcome",
        _first_sample(TokenEnv({Token("u1"): F(3), Token("u2"): F(1)}), F(3)),
    ),
    "undecided-wrong-over": lambda: _open(
        UNDET_SRC,
        UNDET_TGT,
        "target_outcome",
        lambda outcome: replace(outcome, over=Interval.of(1, 5)),
    ),
    "undecided-wrong-exact-interval": lambda: _open(
        UNDET_SRC,
        parse("meas(v,[1,2],d)"),
        "target_outcome",
        lambda outcome: ExactInterval(Interval.of(1, 3)),
    ),
    "seven-fails-exact-interval": lambda: _failure(
        SEVEN, BIG, ExclusionCertificate("exact-interval", Interval.of(1, 128))
    ),
    "seven-fails-empty": lambda: _failure(SEVEN, BIG, ExclusionCertificate("empty")),
    "seven-empty-target": lambda: (Holds(EmptySet(Token("t0"))), BIG, SEVEN),
    "seven-undecided-exact-interval": lambda: (
        Undecided(ExactInterval(Interval.of(1, 128)), enclosure(BIG)),
        SEVEN,
        BIG,
    ),
}


@pytest.fixture
def forbid_samples(monkeypatch):
    """Call it to make building a SampleStream fail the test from then on."""
    module = importlib.import_module("enclosures.enclosure")

    class Forbidden(module.SampleStream):
        def __init__(self, *args):
            raise AssertionError("a SampleStream was built")

    return lambda: monkeypatch.setattr(module, "SampleStream", Forbidden)


def _any_pairs():
    """The seeded `gen_any` pairs of the genuine-verdict audits."""
    for seed in range(60):
        rng = random.Random(seed)
        boxes = token_boxes(rng, 3)
        yield gen_any(rng, boxes, rng.randint(1, 9)), gen_any(rng, boxes, rng.randint(1, 9))


class TestAuditTamperTable:
    @pytest.mark.parametrize("name", sorted(FORGERIES))
    def test_forgery_is_rejected(self, name):
        forged, src, tgt = FORGERIES[name]()
        assert not audit_verdict(forged, src, tgt)

    @pytest.mark.parametrize("name", sorted(FORGERIES))
    def test_forgery_is_rejected_with_warm_folds(self, affine_folds, monkeypatch, name):
        # The trees were classified first, so every operator node's fold is
        # memoized; a forged claim reads the same memo and still fails, and
        # draws no sample.
        forged, src, tgt = FORGERIES[name]()
        classify(src, tgt)
        classify(tgt, src)
        module = importlib.import_module("enclosures.enclosure")
        streams = []

        class Counted(module.SampleStream):
            def __init__(self, *args):
                streams.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(module, "SampleStream", Counted)
        del affine_folds[:]
        assert not audit_verdict(forged, src, tgt)
        assert all(isinstance(e, (Meas, Exact)) for e in affine_folds)
        assert len(streams) == 0

    def test_genuine_evidence_kinds(self):
        over = _genuine(WIDE, PRODUCT, IntervalContainment).evidence
        assert over.target_kind == "over-approx" and over.target == Interval.of(1, 4)
        point = _genuine(WIDE, THREE, IntervalContainment).evidence
        assert point.witness_value == 3
        assert _genuine(PRODUCT, TEN, Fails).certificate.kind == "over-approx"

    def test_empty_kind_claims_no_bounds(self):
        # EMPTY has no value, so "empty" is true of it, but not of [5,6].
        forged = Holds(IntervalContainment(Interval.of(0, 10), Interval.of(5, 6), "empty"))
        assert audit_verdict(licensed(WIDE, EMPTY), WIDE, EMPTY)
        assert not audit_verdict(forged, WIDE, EMPTY)

    def test_audit_calls_no_ladder_helper(self, monkeypatch):
        module = importlib.import_module("enclosures.rewrite")
        pairs = [(WIDE, NARROW), (WIDE, PRODUCT), (WIDE, THREE), (PRODUCT, TEN), (PRODUCT, ONE)]
        verdicts = [classify(src, tgt) for src, tgt in pairs]

        def forbidden(*args):
            raise AssertionError("the audit reached a ladder helper")

        monkeypatch.setattr(module, "certificate_of", forbidden)
        monkeypatch.setattr(module, "lazy_enclosure", forbidden)
        monkeypatch.setattr(module, "membership_in", forbidden)
        for cls, (src, tgt) in zip(verdicts, pairs):
            assert audit_classification(cls, src, tgt)

    @pytest.mark.parametrize("grid, budget", [(3, 2000), (3, 5), (2, 0)])
    def test_genuine_undecided_verdicts_audit_clean(self, grid, budget):
        seen = truncated = 0
        for src, tgt in _any_pairs():
            cls = classify(src, tgt, grid, budget)
            assert audit_classification(cls, src, tgt)
            for verdict in (cls.forward, cls.backward):
                if isinstance(verdict, Undecided):
                    seen += 1
                    truncated += any(
                        getattr(o, "truncated", False)
                        for o in (verdict.source_outcome, verdict.target_outcome)
                    )
        assert seen
        assert truncated if budget < 25 else not truncated

    @pytest.mark.parametrize("seed", range(60))
    def test_seeded_any_fragment_verdicts_audit_clean(self, seed):
        rng = random.Random(seed)
        boxes = token_boxes(rng, 3)
        src = gen_any(rng, boxes, rng.randint(1, 9))
        tgt = gen_any(rng, boxes, rng.randint(1, 9))
        cls = classify(src, tgt, grid_points=3)
        assert audit_classification(cls, src, tgt)
        assert audit_verdict(cls.forward, src, tgt)
        assert audit_verdict(cls.backward, tgt, src)


class TestAuditDrawsNoSample:
    """The audit re-derives an exact or empty claim from the side's affine
    fold, never from its grid, so no audit builds a SampleStream."""

    @pytest.mark.parametrize("name", sorted(FORGERIES))
    def test_forgery_is_rejected(self, forbid_samples, name):
        forged, src, tgt = FORGERIES[name]()
        forbid_samples()
        assert not audit_verdict(forged, src, tgt)

    @pytest.mark.parametrize("grid, budget", [(3, 2000), (3, 5), (2, 0)])
    def test_genuine_verdicts_audit_clean(self, forbid_samples, grid, budget):
        verdicts = [(classify(src, tgt, grid, budget), src, tgt) for src, tgt in _any_pairs()]
        forbid_samples()
        for cls, src, tgt in verdicts:
            assert audit_classification(cls, src, tgt)


class TestEnclosureGridArguments:
    def test_coarse_grid_can_leave_membership_open(self):
        # grid 2 only sees corner products of the quotient
        verdict = licensed(parse("exact(7/5,d)"), DIST_DIV, grid_points=2)
        assert isinstance(verdict, (Fails, Undecided))
        fine = licensed(DIST_DIV, parse("exact(7/5,d)"), grid_points=10)
        assert isinstance(fine, (Holds, Undecided))

    def test_grid_threads_through_classify(self):
        cls = classify(UNDET_SRC, UNDET_TGT, grid_points=3, budget=1000)
        assert isinstance(cls, Classification)
        assert audit_classification(cls, UNDET_SRC, UNDET_TGT)


def _assert_classify_matches_licensed(src, tgt, **grid):
    cls = classify(src, tgt, **grid)
    assert cls.forward == licensed(src, tgt, **grid)
    assert cls.backward == licensed(tgt, src, **grid)


class TestClassifySharesEnclosures:
    """classify encloses each side once, with licensed's verdicts exactly."""

    def test_family_pairs(self):
        for family, mode in itertools.product(FAMILIES, MODES):
            spec = rand_family_spec(random.Random(11), family, mode)
            _assert_classify_matches_licensed(*build_pair(spec))

    def test_fixed_pairs(self):
        infeasible = parse("meas(t,[0,1],d) + meas(t,[2,3],d)")
        pairs = [
            (SAME_DIFF, ZERO),
            (DIST_DIV, ONE),
            (UNDET_SRC, UNDET_TGT),
            (infeasible, DIST_DIFF),
            (infeasible, infeasible),
            (DIST_DIV, DIST_DIV),
        ]
        for src, tgt in pairs:
            _assert_classify_matches_licensed(src, tgt)
            _assert_classify_matches_licensed(tgt, src, grid_points=3, budget=5)

    @pytest.mark.parametrize("seed", range(30))
    def test_seeded_affine_corpus(self, seed):
        rng = random.Random(seed)
        boxes = token_boxes(rng)
        src = gen_affine(rng, boxes, rng.randint(1, 9))
        tgt = redeclare(rng, gen_affine(rng, boxes, rng.randint(1, 9)), spread=1)
        _assert_classify_matches_licensed(src, tgt)

    @pytest.mark.parametrize("seed", range(30))
    def test_seeded_any_fragment_corpus(self, seed):
        rng = random.Random(seed)
        boxes = token_boxes(rng, 3)
        src = gen_any(rng, boxes, rng.randint(1, 9))
        tgt = gen_any(rng, boxes, rng.randint(1, 9))
        _assert_classify_matches_licensed(src, tgt, grid_points=3)
        _assert_classify_matches_licensed(src, tgt, grid_points=4, budget=10)

    def test_grid_is_enumerated_once_per_classify(self, monkeypatch):
        module = importlib.import_module("enclosures.enclosure")
        stream = module._env_stream
        calls = []

        def counted(*args):
            calls.append(args)
            return stream(*args)

        monkeypatch.setattr(module, "_env_stream", counted)
        src = parse("meas(a,[1,2],d) * meas(b,[1,2],d)")
        cls = classify(src, ONE, grid_points=2, budget=100)
        assert cls.kind is RewriteClass.ONE_WAY_ONLY_FORWARD
        assert len(calls) == 1


class TestSamplesDrawnOnDemand:
    """The ladder draws grid samples only until a rung decides."""

    def test_product_against_one_draws_two_environments(self, env_draws):
        src = parse(" * ".join(f"meas(t{i},[1,2],d)" for i in range(7)))
        cls = classify(src, ONE)
        # the all-low corner witnesses 1, the next corner refutes
        assert len(env_draws) <= 2
        assert cls.kind is RewriteClass.ONE_WAY_ONLY_FORWARD
        assert cls.forward == licensed(src, ONE)
        assert cls.backward == licensed(ONE, src)
        assert audit_classification(cls, src, ONE)

    def test_point_target_outside_over_draws_nothing(self, env_draws):
        verdict = licensed(DIST_DIV, parse("exact(5,d)"))
        assert isinstance(verdict, Fails)
        assert verdict.value == 5
        assert verdict.certificate == ExclusionCertificate(
            "over-approx", Interval.of(F(1, 2), 2)
        )
        assert env_draws == []

    def test_undecided_outcomes_are_full_enclosures(self):
        seen = truncated = 0
        for seed in range(60):
            rng = random.Random(seed)
            boxes = token_boxes(rng, 3)
            src = gen_any(rng, boxes, rng.randint(1, 9))
            tgt = gen_any(rng, boxes, rng.randint(1, 9))
            for grid, budget in itertools.product((3, 4), (10, 2000)):
                cls = classify(src, tgt, grid, budget)
                for verdict, a, b in ((cls.forward, src, tgt), (cls.backward, tgt, src)):
                    if isinstance(verdict, Undecided):
                        assert verdict.source_outcome == enclosure(a, grid, budget)
                        assert verdict.target_outcome == enclosure(b, grid, budget)
                        seen += 1
                        truncated += any(
                            getattr(o, "truncated", False)
                            for o in (verdict.source_outcome, verdict.target_outcome)
                        )
        assert seen and truncated, (seen, truncated)


class TestOneProgramPerSide:
    """A side that `classify` or its audit evaluates has one program: the one
    `parse` built for a parsed side, or the one built on the first read of a
    cold side.  The witness `classify` checks and the audit's check of it
    share the program memoized on the side's node."""

    SUM = (
        "meas(t,[1,3],d) + meas(u,[0,2],d) - exact(2,d) * meas(v,[0,1],d)"
        " + meas(t,[1,3],d) / exact(3,d)"
    )
    PAIRS = {
        "one-way (halved sum)": (SUM, f"({SUM}) / exact(2,d)", RewriteClass.ONE_WAY_ONLY_FORWARD),
        "incomparable (shifted sum)": (SUM, f"{SUM} + exact(1,d)", RewriteClass.INCOMPARABLE),
        "point target": (SUM, "exact(1,d)", RewriteClass.ONE_WAY_ONLY_FORWARD),
        "sampled point target": (
            "meas(t,[1,2],d) * meas(u,[1,2],d)",
            "exact(2,d)",
            RewriteClass.ONE_WAY_ONLY_FORWARD,
        ),
    }

    @pytest.mark.parametrize("name", list(PAIRS))
    def test_one_build_per_side_for_classify_and_audit(self, compiles, name):
        src_text, tgt_text, kind = self.PAIRS[name]
        src, tgt = parse(src_text), parse(tgt_text)
        assert compiles == [src, tgt]
        for a, b in (src, tgt), (copy.deepcopy(src), copy.deepcopy(tgt)):
            del compiles[:]
            cls = classify(a, b)
            assert cls.kind is kind
            assert audit_classification(cls, a, b)
            assert compiles == ([] if a is src else [a, b]), compiles


class TestLeafSides:
    """A leaf keeps its program and its fold as an operator node does, so a
    parsed side, a leaf too, has the program `parse` built, and `classify`
    and its audit together fold each side once.  The first pair is a
    `products` pair: a product of tokens, one repeated, against an exact
    point."""

    PAIRS = {
        "products": (
            "meas(g13,[1,3/2],d) * meas(g89,[1,2],d) * meas(g13,[1,3/2],d)",
            "exact(1,d)",
            RewriteClass.ONE_WAY_ONLY_FORWARD,
        ),
        "leaf source": (
            "meas(t,[0,4],d)",
            "meas(t,[1,2],d) * exact(2,d) - exact(1,d)",
            RewriteClass.ONE_WAY_ONLY_FORWARD,
        ),
        "two leaves": ("meas(t,[0,2],d)", "meas(t,[1,3],d)", RewriteClass.INCOMPARABLE),
    }

    @pytest.mark.parametrize("name", list(PAIRS))
    def test_one_program_and_one_fold_per_side(self, compiles, affine_folds, name):
        src_text, tgt_text, kind = self.PAIRS[name]
        src, tgt = parse(src_text), parse(tgt_text)
        assert compiles == [src, tgt]
        cls = classify(src, tgt)
        assert cls.kind is kind and audit_classification(cls, src, tgt)
        assert compiles == [src, tgt]
        assert sorted(map(id, affine_folds)) == sorted([id(src), id(tgt)]), affine_folds


class TestBoundsCompareIntegerPairs:
    """`Interval.contains` and `encloses` cross-multiply integer pairs, so a
    `products` op, whose ladder and audit check bounds through them, orders
    no `Fraction`: each ordering goes through `Fraction._richcmp`'s
    `numbers.Rational` check.  Equality tests are cheaper and not counted."""

    def test_products_pair_orders_no_fraction(self, fraction_compares):
        src_text, tgt_text, kind = TestLeafSides.PAIRS["products"]
        src, tgt = parse(src_text), parse(tgt_text)
        fraction_compares.clear()
        cls = classify(src, tgt)
        assert cls.kind is kind and audit_classification(cls, src, tgt)
        assert set(fraction_compares) <= {"__eq__"}, fraction_compares


class TestAffineFoldsOnce:
    """Each side's affine form is folded at most once per classify and once
    per audit, and an operator node's fold serves both."""

    PAIRS = {
        "interchangeable": (
            "meas(t,[1,3],d) + meas(u,[0,2],d)",
            "meas(u,[0,2],d) + meas(t,[1,3],d)",
            RewriteClass.INTERCHANGEABLE,
        ),
        "one-way-only-forward": (
            "meas(t,[0,4],d)",
            "meas(t,[1,2],d) * exact(2,d) - exact(1,d)",
            RewriteClass.ONE_WAY_ONLY_FORWARD,
        ),
        "incomparable": (
            "meas(t,[0,2],d)",
            "meas(t,[1,3],d)",
            RewriteClass.INCOMPARABLE,
        ),
        "point-target": (
            "meas(t,[1,2],d) - meas(u,[1,2],d)",
            "exact(0,d)",
            RewriteClass.ONE_WAY_ONLY_FORWARD,
        ),
    }

    @pytest.mark.parametrize("name", list(PAIRS))
    def test_two_folds_per_classify_and_per_audit(self, affine_folds, name):
        src_text, tgt_text, kind = self.PAIRS[name]
        src, tgt = parse(src_text), parse(tgt_text)
        cls = classify(src, tgt)
        assert cls.kind is kind
        assert len(affine_folds) <= 2
        del affine_folds[:]
        assert audit_classification(cls, src, tgt)
        assert len(affine_folds) <= 2

    def test_one_fold_per_operator_side_for_classify_and_audit(self, affine_folds):
        # Each operator node keeps its fold, so the audit reads both memos.
        src = parse("meas(t,[1,3],d) + meas(u,[0,2],d)")
        tgt = parse("meas(t,[1,2],d) * exact(2,d) - exact(1,d)")
        cls = classify(src, tgt)
        assert audit_classification(cls, src, tgt)
        assert affine_folds == [src, tgt]

    def test_changing_a_fold_changes_no_audit(self):
        src = parse("meas(t,[0,4],d) + exact(0,d)")
        tgt = parse("meas(t,[1,2],d) * exact(2,d) - exact(1,d)")
        cls = classify(src, tgt)
        for e in (src, tgt):
            f = to_affine(e)
            f.coeffs[Token("t")] = F(-7)
            f.boxes[Token("t")] = Interval.of(100, 101)
        assert cls.kind is RewriteClass.ONE_WAY_ONLY_FORWARD
        assert audit_classification(cls, src, tgt)
        assert classify(src, tgt) == cls

    SELF_QUOTIENTS = {
        # straddles 0 until the last leaf narrows t's box
        "straddles-then-positive": ("meas(t,[-1,3],d) / meas(t,[-1,3],d) + meas(t,[1,2],d)", 2),
        "straddles": ("meas(t,[-1,1],d) / meas(t,[-1,1],d)", 2),
        "positive": ("meas(t,[1,3],d) / meas(t,[1,3],d) + meas(t,[1,2],d)", 1),
        "negative": ("(meas(t,[1,3],d) - exact(5,d)) / (meas(t,[1,3],d) - exact(5,d))", 1),
    }

    @pytest.mark.parametrize("name", list(SELF_QUOTIENTS))
    def test_self_quotient_folds_per_to_affine(self, affine_folds, name):
        # Only a self-quotient that straddles 0 on the boxes met so far is
        # folded a second time, with the final boxes.
        text, most = self.SELF_QUOTIENTS[name]
        try:
            to_affine(parse(text))
        except NotAffineError:
            pass
        assert 1 <= len(affine_folds) <= most


class TestWarmReadsBuildNothing:
    """A side's fold outcome is read as the memo keeps it: once a pair is
    classified and audited, doing so again builds no form and no error, and
    `lazy_enclosure` hands back the memo itself."""

    @staticmethod
    def pairs():
        rng = random.Random(26)
        specs = [rand_family_spec(rng, f, m) for f, m in itertools.product(FAMILIES, MODES)]
        return [build_pair(spec) for spec in specs] + [
            (parse("meas(t,[1,2],d) * meas(u,[1,2],d)"), ONE),  # off the fragment
            (parse("meas(t,[0,1],d) + meas(t,[2,3],d)"), ONE),  # infeasible
        ]

    def test_warm_classify_and_audit_build_no_form_and_raise_nothing(self, monkeypatch):
        pairs = self.pairs()
        verdicts = [classify(src, tgt) for src, tgt in pairs]
        assert all(audit_classification(c, s, t) for c, (s, t) in zip(verdicts, pairs))
        built = collections.Counter()
        for cls in (AffineForm, NotAffineError, InfeasibleTokenError):

            def counted(self, *args, init=cls.__init__, name=cls.__name__):
                built[name] += 1
                init(self, *args)

            monkeypatch.setattr(cls, "__init__", counted)
        for (src, tgt), before in zip(pairs, verdicts):
            cls = classify(src, tgt)
            assert cls == before and audit_classification(cls, src, tgt)
        assert not built, built

    def test_lazy_enclosure_returns_the_memo(self):
        kinds = collections.Counter()
        for e in itertools.chain.from_iterable(self.pairs()):
            out = _fold_outcome(e)
            kinds[type(out).__name__] += 1
            if isinstance(out, str):  # the message to_affine raises, kept as it is
                with pytest.raises(NotAffineError, match=out):
                    to_affine(e)
                assert isinstance(lazy_enclosure(e), SampleStream)
            else:
                assert lazy_enclosure(e) is out and lazy_enclosure(e) is _fold_outcome(e)
        assert set(kinds) == {"AffineForm", "EmptySet", "str"}, kinds


def _checked(src, tgt):
    """repr of every verdict, audit and enclosure of the pair, grid 3."""
    cls = classify(src, tgt, 3)
    return repr((
        cls,
        licensed(src, tgt, 3),
        licensed(tgt, src, 3),
        audit_classification(cls, src, tgt),
        audit_verdict(cls.forward, src, tgt),
        audit_verdict(cls.backward, tgt, src),
        enclosure(src, 3),
        enclosure(tgt, 3),
    ))


class TestWarmFoldsChangeNothing:
    def test_warm_and_cold_trees_agree(self):
        kinds = collections.Counter()
        for seed in range(240):
            rng = random.Random(seed)
            boxes = token_boxes(rng, 3)
            gen = (gen_affine, gen_any)[seed % 2]
            src, tgt = gen(rng, boxes, rng.randint(1, 9)), gen(rng, boxes, rng.randint(1, 9))
            if seed % 3 == 0:
                tgt = redeclare(rng, tgt)
            leaf = next(meas_leaves(src), None)
            if leaf is not None and seed % 5 == 0:  # a leaf outside its token's box empties src
                clash = Meas(leaf.token, Interval(leaf.interval.hi + 1, leaf.interval.hi + 2), D)
                src = Add(src, clash)
            cold = copy.deepcopy((src, tgt))
            first = _checked(src, tgt)  # folds, then reads the memos it left
            assert _checked(src, tgt) == first == _checked(*cold), seed
            kinds[classify(src, tgt, 3).kind] += 1
        assert len(kinds) == len(RewriteClass), kinds


# --- reference ladder ---------------------------------------------------------
#
# The containment ladder as the package wrote it before every rung read the
# sides' bounds through `certificate_of`, kept verbatim but for its Holds
# evidence, now the target's `EmptySet` and the `Member` found themselves,
# so the new ladder is checked against an independent text rather than
# against itself.


def _decide(
    src: Expr, tgt: Expr, enc_src: LazyOutcome, enc_tgt: LazyOutcome
) -> Verdict:
    """The ladder behind `licensed`, for src != tgt.

    Samples are read from the lazy enclosures in order and drawn only until
    a rung is decided; an Undecided verdict settles both outcomes in full.
    """
    if isinstance(enc_tgt, EmptySet):
        return Holds(enc_tgt)  # src is never enclosed

    if isinstance(enc_src, AffineForm) and isinstance(enc_tgt, AffineForm):
        si, ti = enc_src.interval, enc_tgt.interval
        if si.encloses(ti):
            witness = None
            value = None
            if ti.is_point:
                witness = _form_witness(enc_src, src, ti.lo)
                value = ti.lo if witness is not None else None
            return Holds(IntervalContainment(si, ti, "exact-interval", witness, value))
        q = ti.hi if ti.hi > si.hi else ti.lo
        env = _form_witness(enc_tgt, tgt, q)
        if env is not None:
            return Fails(env, q, certificate_of(enc_src))
        return _undecided(enc_src, enc_tgt)

    if isinstance(enc_tgt, AffineForm) and enc_tgt.interval.is_point:
        # Single-valued target: containment is exactly a membership query.
        q = enc_tgt.interval.lo
        found = membership_in(src, q, enc_src)
        if isinstance(found, Member):
            return Holds(found)
        if isinstance(found, NonMember):
            env = _form_witness(enc_tgt, tgt, q)
            if env is not None:
                return Fails(env, q, found.certificate)
        return _undecided(enc_src, enc_tgt)

    # Refutation: a tgt value certified outside src's bound, corners first.
    cert = certificate_of(enc_src)
    if cert is not None:
        for env, value in _target_members(tgt, enc_tgt):
            if cert.excludes(value):
                return Fails(env, value, cert)

    # Confirmation without exactness on the target side (tgt is sampled
    # here: every other pairing with an exact source was settled above).
    if isinstance(enc_src, AffineForm):
        over_tgt = enc_tgt.over
        if isinstance(over_tgt, Interval) and enc_src.interval.encloses(over_tgt):
            return Holds(
                IntervalContainment(enc_src.interval, over_tgt, "over-approx")
            )

    return _undecided(enc_src, enc_tgt)


def _undecided(enc_src: LazyOutcome, enc_tgt: LazyOutcome) -> Undecided:
    return Undecided(settle(enc_src), settle(enc_tgt))


def _target_members(
    tgt: Expr, enc_tgt: LazyOutcome
) -> Iterator[tuple[TokenEnv, Fraction]]:
    """Warranted (env, value) pairs of the target, extremes first."""
    if isinstance(enc_tgt, AffineForm):
        iv = enc_tgt.interval
        for q in [iv.hi] if iv.is_point else [iv.hi, iv.lo]:
            env = _form_witness(enc_tgt, tgt, q)
            if env is not None:
                yield env, q
    elif isinstance(enc_tgt, SampleStream):
        yield from enc_tgt


def _reference_classify(src, tgt, grid_points, budget, decide=_decide):
    """(forward, backward) verdicts of a reference ladder, as classify pairs them."""
    if src == tgt:
        return Holds(SameExpression()), Holds(SameExpression())
    enc_src = lazy_enclosure(src, grid_points, budget)
    enc_tgt = lazy_enclosure(tgt, grid_points, budget)
    return decide(src, tgt, enc_src, enc_tgt), decide(tgt, src, enc_tgt, enc_src)


def _refutes_low_end_below_over(new, ref, tgt):
    """The one intended difference: ref refuted an affine target lying wholly
    below an over-approx bound with its high end, new with its low end."""
    if not (isinstance(ref, Fails) and ref.certificate.kind == "over-approx"):
        return False
    iv = to_affine(tgt).interval
    return (
        iv.hi < ref.certificate.bounds.lo
        and ref.value == iv.hi
        and isinstance(new, Fails)
        and new.value == iv.lo
        and new.certificate == ref.certificate
    )


def _ladder_corpus(kind, seed):
    rng = random.Random(seed)
    if kind == "affine":
        boxes = token_boxes(rng)
        return gen_affine(rng, boxes, rng.randint(1, 9)), gen_affine(rng, boxes, rng.randint(1, 9))
    boxes = token_boxes(rng, 3)
    src = gen_any(rng, boxes, rng.randint(1, 9))
    tgt = gen_any(rng, boxes, rng.randint(1, 9))
    return src, redeclare(rng, tgt, spread=1) if kind == "redeclare" else tgt


_DECIDED_KIND = {
    (Holds, Holds): RewriteClass.INTERCHANGEABLE,
    (Holds, Fails): RewriteClass.ONE_WAY_ONLY_FORWARD,
    (Fails, Holds): RewriteClass.ONE_WAY_ONLY_BACKWARD,
    (Fails, Fails): RewriteClass.INCOMPARABLE,
}


class TestLadderMatchesReference:
    """The certificate-driven ladder gives the reference ladder's verdicts."""

    @pytest.mark.parametrize("kind", ["any", "affine", "redeclare"])
    @pytest.mark.parametrize("grid, budget", [(3, 2000), (2, 5), (5, 100000)])
    def test_seeded_corpus(self, kind, grid, budget):
        same = 0
        for seed in range(100):
            a, b = _ladder_corpus(kind, seed)
            for src, tgt in ((a, b), (b, a)):
                cls = classify(src, tgt, grid, budget)
                ref = _reference_classify(src, tgt, grid, budget)
                ref_kind = _DECIDED_KIND.get(tuple(map(type, ref)), RewriteClass.UNDETERMINED)
                assert cls.kind is ref_kind
                for new, old, target in zip((cls.forward, cls.backward), ref, (tgt, src)):
                    assert new == old or _refutes_low_end_below_over(new, old, target)
                    same += new == old
                assert audit_classification(cls, src, tgt)
        assert same


# --- certificate-driven reference ladder --------------------------------------
#
# The ladder as the package wrote it once every rung read the sides' bounds
# through `certificate_of`, and before a point target was decided by
# `membership_in`: four rungs, with an attain rung that scanned the source's
# samples itself.  Kept verbatim but for the two function names and the
# Holds evidence, now the target's `EmptySet` and a `Member`, so the
# membership route is checked repr for repr against an independent text.


def _certificate_decide(
    src: Expr, tgt: Expr, enc_src: LazyOutcome, enc_tgt: LazyOutcome
) -> Verdict:
    """The ladder behind `licensed`, for src != tgt: confirm, refute, attain.

    Each side's bound is read through its certificate alone.  Samples are
    read from the lazy enclosures in order and drawn only until a rung is
    decided; an Undecided verdict settles both outcomes in full.
    """
    if isinstance(enc_tgt, EmptySet):
        return Holds(enc_tgt)  # src is never enclosed
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
        for env, value in _certificate_members(tgt, enc_tgt, tgt_cert, cert):
            return Fails(env, value, cert)

    # Attain: tgt is the single value `point`, and a src sample equals it.
    if point is not None and isinstance(enc_src, SampleStream):
        for env, value in enc_src:
            if value == point:
                return Holds(Member(env, value))

    return Undecided(settle(enc_src), settle(enc_tgt))


def _certificate_members(
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


def _point_corpus(kind, seed):
    """A seeded source and a target: a value src attains at a grid point, a
    value just outside src's `over_approx`, or a redeclared copy of src."""
    rng = random.Random(seed)
    boxes = token_boxes(rng, 3)
    src = (gen_affine if seed % 2 else gen_any)(rng, boxes, rng.randint(1, 9))
    if kind == "redeclare":
        return src, redeclare(rng, src, spread=1)
    if kind == "attained":
        samples = under_approx_samples(src, rng.choice((2, 3)), 10**5)
        return src, Exact(rng.choice(samples)[1] if samples else F(0), D)
    over = over_approx(src)
    if not isinstance(over, Interval):
        return src, Exact(rand_rational(rng), D)
    eps = F(1, rng.randint(2, 50))
    return src, Exact(over.hi + eps if rng.random() < 0.5 else over.lo - eps, D)


class TestLadderMatchesCertificateReference:
    """Deciding a point target by membership changes no verdict repr."""

    @pytest.mark.parametrize("kind", ["attained", "outside", "redeclare"])
    @pytest.mark.parametrize("grid, budget", [(3, 2000), (2, 5), (2, 0)])
    def test_seeded_corpus(self, kind, grid, budget):
        kinds = set()
        for seed in range(100):
            a, b = _point_corpus(kind, seed)
            for src, tgt in ((a, b), (b, a)):
                cls = classify(src, tgt, grid, budget)
                ref = _reference_classify(src, tgt, grid, budget, _certificate_decide)
                assert [repr(v) for v in (cls.forward, cls.backward)] == list(map(repr, ref))
                kinds.update(type(getattr(v, "evidence", v)).__name__ for v in ref)
        # attained values confirm with a witness (from samples when there
        # are any), values outside the bound are refuted
        wanted = {"attained": {"IntervalContainment"}, "outside": {"Fails"}}.get(kind, set())
        if kind == "attained" and budget:
            wanted.add("Member")
        assert wanted <= kinds, kinds
