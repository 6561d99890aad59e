"""End-to-end acceptance checks.

Each test runs one advertised guarantee at full scale, prints a single
PASS/FAIL summary line (visible with pytest -s), and fails on any
violation. All verdicts are discrete and all arithmetic is exact, so
every comparison below is exact equality; there are no tolerances.
"""

import json
import random
from fractions import Fraction as F

from enclosures import (
    BudgetExceededError,
    Div,
    Exact,
    ExactInterval,
    Fails,
    Holds,
    Interval,
    IntervalContainment,
    Meas,
    Member,
    MembershipWitness,
    RewriteClass,
    Token,
    UNBOUNDED,
    audit_classification,
    audit_verdict,
    blind_compare,
    blind_enclosure,
    build_pair,
    build_variants,
    classify,
    enclosure,
    evaluate,
    exact_value,
    forget_tokens,
    licensed,
    membership,
    token_consistent,
    under_approx_samples,
)
from enclosures.cli import main
from exprgen import (
    D,
    corner_min_max,
    count_nodes,
    equal_value_variant,
    gen_affine,
    gen_any,
    gen_exact,
    rand_family_spec,
    rand_positive_interval,
    rand_rational,
    token_boxes,
)


def _report(number, description, violations):
    status = "PASS" if not violations else f"FAIL ({len(violations)} violations)"
    print(f"criterion {number} ({description}): {status}")
    assert not violations, f"criterion {number}: first violations: {violations[:3]}"


DEMO_TABLE = [
    ("cancellation", "same", ["--interval", "[2,5]"], "interchangeable"),
    ("cancellation", "distinct", ["--interval", "[2,5]"], "one-way-only-forward"),
    (
        "background",
        "same",
        ["--signal-interval", "[10,11]", "--background-interval", "[1,2]"],
        "interchangeable",
    ),
    (
        "background",
        "distinct",
        ["--signal-interval", "[10,11]", "--background-interval", "[1,2]"],
        "one-way-only-forward",
    ),
    ("division", "same", ["--interval", "[1,2]"], "interchangeable"),
    ("division", "distinct", ["--interval", "[1,2]"], "one-way-only-forward"),
]


def test_criterion_1_family_demo_table(capsys):
    violations = []
    for family, mode, flags, expected in DEMO_TABLE:
        code = main(["demo", "--family", family, "--mode", mode] + flags)
        out = capsys.readouterr().out
        payload = json.loads(out)
        row = (family, mode)
        if code != 0:
            violations.append((row, "exit", code))
        if payload["expected_class"] != expected:
            violations.append((row, "expected_class", payload["expected_class"]))
        if payload["computed_class"] != expected:
            violations.append((row, "computed_class", payload["computed_class"]))
        if payload["match"] is not True:
            violations.append((row, "match", payload["match"]))
        if payload["audit"] is not True:
            violations.append((row, "audit", payload["audit"]))
    with capsys.disabled():
        _report(1, "family demo table", violations)


def test_criterion_2_affine_enclosure_exactness():
    rng = random.Random(2026_02)
    violations = []
    for i in range(500):
        e = gen_affine(rng, token_boxes(rng), 12)
        assert count_nodes(e) <= 12
        lo, hi = corner_min_max(e)
        computed = enclosure(e)
        if computed != ExactInterval(Interval(lo, hi)):
            violations.append((i, computed, (lo, hi)))
    _report(2, "affine enclosure equals endpoint brute force", violations)


def test_criterion_3_exact_pair_conservativity():
    rng = random.Random(2026_03)
    violations = []
    for i in range(1000):
        a = gen_exact(rng, 6)
        b = equal_value_variant(rng, a) if i % 2 == 0 else gen_exact(rng, 6)
        cls = classify(a, b)
        expected = (
            RewriteClass.INTERCHANGEABLE
            if exact_value(a) == exact_value(b)
            else RewriteClass.INCOMPARABLE
        )
        if cls.kind is not expected:
            violations.append((i, cls.kind, expected))
    _report(3, "exact-pair conservativity", violations)


def test_criterion_4_blind_view_underdetermines_class():
    rng = random.Random(2026_04)
    violations = []
    for family in ("cancellation", "background", "division"):
        for i in range(100):
            spec = rand_family_spec(rng, family, "same")
            same_src, distinct_src, target = build_variants(spec)
            report = blind_compare(same_src, distinct_src, target)
            if not report.erased_equal:
                violations.append((family, i, "erased"))
            if not report.bounds_equal:
                violations.append((family, i, "bounds"))
            if not report.classes_differ:
                violations.append((family, i, "classes"))
    _report(4, "blind view underdetermines the rewrite class", violations)


def test_criterion_5_evidence_revalidation():
    rng = random.Random(2026_05)
    violations = []
    pool = []

    for family, mode, _, _ in DEMO_TABLE:
        spec = rand_family_spec(random.Random(7), family, mode)
        src, tgt = build_pair(spec)
        pool.append((classify(src, tgt), src, tgt))
    for _ in range(60):
        family = rng.choice(("cancellation", "background", "division"))
        mode = rng.choice(("same", "distinct"))
        src, tgt = build_pair(rand_family_spec(rng, family, mode))
        pool.append((classify(src, tgt), src, tgt))
    for i in range(150):
        a = gen_exact(rng, 5)
        b = equal_value_variant(rng, a) if i % 2 == 0 else gen_exact(rng, 5)
        pool.append((classify(a, b), a, b))
    for _ in range(40):
        iv = rand_positive_interval(rng)
        quotient = Div(Meas(Token("q1"), iv, D), Meas(Token("q2"), iv, D))
        for target in (Exact(F(1), D), Exact(F(0), D)):
            pool.append((classify(quotient, target), quotient, target))

    for cls, src, tgt in pool:
        if not audit_classification(cls, src, tgt):
            violations.append(("audit", src, tgt))
        for verdict, vsrc, vtgt in ((cls.forward, src, tgt), (cls.backward, tgt, src)):
            if not _revalidate(verdict, vsrc, vtgt):
                violations.append(("revalidate", vsrc, vtgt))

    rng2 = random.Random(2026_55)
    for _ in range(80):
        boxes = token_boxes(rng2)
        src = gen_affine(rng2, boxes, 6)
        tgt = gen_affine(rng2, boxes, 6)
        verdict = licensed(src, tgt)
        if not (audit_verdict(verdict, src, tgt) and _revalidate(verdict, src, tgt)):
            violations.append(("licensed", src, tgt))

    _report(5, "evidence re-validation", violations)


def _revalidate(verdict, src, tgt):
    """The criterion's own checklist, independent of the audit helpers."""
    if isinstance(verdict, Holds):
        ev = verdict.evidence
        if isinstance(ev, MembershipWitness):
            return token_consistent(ev.env, src) and evaluate(ev.env, src) == ev.value
        if isinstance(ev, IntervalContainment) and ev.witness is not None:
            return (
                token_consistent(ev.witness, src)
                and evaluate(ev.witness, src) == ev.witness_value
            )
        return True
    if isinstance(verdict, Fails):
        if not token_consistent(verdict.env, tgt):
            return False
        if evaluate(verdict.env, tgt) != verdict.value:
            return False
        if not verdict.certificate.excludes(verdict.value):
            return False
        enc_src = enclosure(src)
        if isinstance(enc_src, ExactInterval):
            return not enc_src.interval.contains(verdict.value)
        return True
    return True


def test_criterion_6_erasure_soundness():
    rng = random.Random(2026_06)
    violations = []
    for i in range(500):
        e = gen_any(rng, token_boxes(rng), 12)
        bounds = blind_enclosure(forget_tokens(e))
        try:
            samples = under_approx_samples(e, 3, budget=4000)
        except BudgetExceededError as ex:
            samples = ex.partial
        for env, value in samples:
            if not token_consistent(env, e):
                violations.append((i, "inconsistent sample", env))
            if bounds is not UNBOUNDED and not bounds.contains(value):
                violations.append((i, value, bounds))
    _report(6, "erasure soundness on sampled environments", violations)


def test_criterion_7_point_target_criterion():
    rng = random.Random(2026_07)
    violations = []
    for i in range(200):
        e = gen_affine(rng, token_boxes(rng), 10)
        iv = enclosure(e).interval
        probes = [
            iv.lo,
            iv.hi,
            (iv.lo + iv.hi) / 2,
            iv.hi + 1,
            rand_rational(rng),
        ]
        for q in probes:
            holds = isinstance(licensed(e, Exact(q, D)), Holds)
            member = isinstance(membership(e, q), Member)
            if holds != member:
                violations.append((i, q, "holds-vs-membership"))
            interchangeable = classify(e, Exact(q, D)).kind is RewriteClass.INTERCHANGEABLE
            point_enclosure = enclosure(e) == ExactInterval(Interval.point(q))
            if interchangeable != point_enclosure:
                violations.append((i, q, "interchangeable-vs-point"))
    _report(7, "point-target containment criterion", violations)
