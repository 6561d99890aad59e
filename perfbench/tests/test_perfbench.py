"""Tests of the benchmark itself: inputs, references, tracing, statistics.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _dump(items) -> bytes:
    return json.dumps([dataclasses.asdict(i) for i in items], sort_keys=True).encode()


# --- generator ------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["suite", "products", "wide", "cli"])
def test_generator_is_byte_identical_per_seed(workload):
    make = getattr(gen, workload)
    assert _dump(make(7)) == _dump(make(7))
    assert _dump(make(7)) != _dump(make(8))


def test_suite_pairs_stay_small_and_split_in_thirds():
    ops = gen.suite(3)
    kinds = [op.label.split("-")[0] for op in ops]
    assert kinds.count("family") == kinds.count("affine") == kinds.count("exact") == 200
    for op in ops:
        for text in (op.src, op.tgt):
            assert gen.count_nodes(text) <= 15
            assert len(set(run_tokens(text))) <= 4


def run_tokens(text: str) -> list[str]:
    return [part.split(",")[0] for part in text.split("meas(")[1:]]


def test_count_nodes_ignores_signs_inside_leaves():
    text = "meas(a,[-1,2],d) - -exact(-3/2,d) * (meas(b,[1/2,2],d) / exact(2,d))"
    assert gen.count_nodes(text) == 8


def test_wide_ends_with_the_four_probes():
    probes = [op for op in gen.wide(1) if op.probe]
    assert [op.label for op in probes] == [
        "probe-sum1000", "probe-parens3000", "probe-neg3000", "probe-classify400",
    ]


# --- reference answers -------------------------------------------------------------


def test_family_table_matches_closed_forms():
    gen.check_family_table(seed=11, rounds=20)


def test_family_table_check_catches_a_wrong_entry(monkeypatch):
    table = dict(gen.FAMILY_TABLE)
    table["division", "distinct"] = gen.INTERCHANGEABLE
    monkeypatch.setattr(gen, "FAMILY_TABLE", table)
    with pytest.raises(AssertionError):
        gen.check_family_table()


def test_affine_reference_uses_corner_extremes():
    tree = ("-", ("m", "a", F(1), F(3)), ("*", ("e", F(2)), ("m", "b", F(-1), F(1))))
    assert gen.image(tree) == (F(-1), F(5))
    assert gen.render(tree) == "meas(a,[1,3],d) - exact(2,d) * meas(b,[-1,1],d)"


def test_class_of_images():
    assert gen.class_of((F(0), F(4)), (F(1), F(2))) == gen.FORWARD
    assert gen.class_of((F(1), F(2)), (F(0), F(4))) == gen.BACKWARD
    assert gen.class_of((F(0), F(2)), (F(1), F(3))) == gen.INCOMPARABLE
    assert gen.class_of((F(1), F(2)), (F(1), F(2))) == gen.INTERCHANGEABLE


def test_measurement_free_reference_divides_totally():
    assert gen.value(("/", ("e", F(3)), ("-", ("e", F(1)), ("e", F(1))))) == 0


# --- statistics ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, p", [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
             (10_000, 99.9), (100_000, 99.99), (10**7, 99.99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert run.tail_percentile(n) == p


@pytest.mark.parametrize("workload", sorted(run.FLOORS))
def test_tail_at_floor_has_ten_samples_beyond(workload):
    floor = run.FLOORS[workload]
    lat = run.latency(list(range(1, floor + 1)), floor)
    assert lat["samples"] == floor
    assert lat["beyond_tail"] >= run.BEYOND


def test_percentile_interpolates_between_ranks():
    values = [float(v) for v in range(1, 102)]
    assert run.percentile(values, 90.0) == 91.0
    assert run.percentile([1.0, 2.0], 50.0) == 1.5


# --- failure classification ----------------------------------------------------------------


def test_judge_wrong_class_and_undetermined():
    classes, fields = {"class": gen.FORWARD}, {"audit": True}
    assert run.judge(classes, fields, {"class": gen.FORWARD, "audit": True}) is None
    assert run.judge(classes, fields, {"class": gen.INCOMPARABLE, "audit": True}) == "wrong-class"
    assert run.judge(classes, fields, {"class": gen.UNDETERMINED, "audit": True}) is None
    assert run.decided(classes, {"class": gen.UNDETERMINED}) is False


def test_judge_audit_false_and_wrong_output():
    classes = {"class": gen.FORWARD}
    assert run.judge(classes, {"audit": True}, {"class": gen.FORWARD, "audit": False}) == "audit-false"
    assert run.judge({}, {"result.interval": ["0", "1"]},
                     {"result": {"interval": ["0", "2"]}}) == "wrong-output"


def test_exit_codes():
    decided_payload = {"classification": {"class": gen.FORWARD}}
    undetermined = {"classification": {"class": gen.UNDETERMINED}}
    assert run.exit_error("classify", 0, decided_payload) is None
    assert run.exit_error("classify", 1, None) == "undocumented-exit-1"
    assert run.exit_error("classify", 3, decided_payload) == "unexpected-exit-3"
    assert run.exit_error("classify", 3, undetermined) is None
    assert run.exit_error("classify", 0, undetermined) == "unexpected-exit-0"
    assert run.exit_error("enclosure", 2, None) == "unexpected-exit-2"


def test_tally_counts_probes_in_ok_share_only():
    tally = run.Tally()
    op = gen.Op("x", "", "", gen.FORWARD, 3)
    probe = gen.Op("p", "", "", gen.FORWARD, 3, probe=True)
    for _ in range(3):
        tally.add(op, 10, None, True, run.CAL_REF_NS / 2)
    tally.add(probe, 99, "raised-RecursionError", False, run.CAL_REF_NS)
    assert (tally.attempted, tally.failed, tally.raw) == (3, 0, [10, 10, 10])
    assert tally.samples == [20, 20, 20]  # a machine running at half speed
    assert tally.ok_share == 0.75
    assert tally.decided_share == 0.75
    assert tally.wrong_probe == 0
    tally.add(probe, 99, "wrong-class", True, run.CAL_REF_NS)
    assert tally.wrong_probe == 1


# --- tracing ------------------------------------------------------------------------------


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_is_duration_minus_direct_children():
    # a [0,100] holds b [10,40] (which holds c [20,30]) and d [50,90].
    tracer = tracing.Tracer(clock=FakeClock([0, 10, 20, 30, 40, 50, 90, 100]))
    tracer.enter("a")
    tracer.enter("b")
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    tracer.enter("d")
    tracer.exit()
    tracer.exit()
    assert dict(tracer.total_ns) == {"a": 100, "b": 30, "c": 10, "d": 40}
    assert dict(tracer.self_ns) == {"a": 30, "b": 20, "c": 10, "d": 40}
    assert tracer.edges[None, "a"] == tracer.edges["a", "b"] == tracer.edges["b", "c"] == 1
    assert tracer.within["a", "c"] == tracer.within["b", "c"] == tracer.within["a", "d"] == 1
    assert ("b", "d") not in tracer.within
    parents = {span[3]: span[1] for span in tracer.spans}
    ids = {span[3]: span[0] for span in tracer.spans}
    assert parents == {"a": None, "b": ids["a"], "c": ids["b"], "d": ids["a"]}


def test_wrapper_closes_its_span_when_the_call_raises():
    tracer = tracing.Tracer(clock=FakeClock([0, 5]))
    tracer.active = True

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.stack == [] and tracer.calls["boom"] == 1 and tracer.self_ns["boom"] == 5


def test_install_wraps_bindings_not_recursion_and_undo_restores():
    pkg = run.import_package()
    import enclosures.cli  # noqa: F401

    # The package re-exports a function named `enclosure`, which shadows
    # the submodule attribute, so modules are taken from sys.modules.
    rewrite, semantics, encl = (sys.modules[f"enclosures.{m}"] for m in ("rewrite", "semantics", "enclosure"))
    originals = (rewrite.enclosure, semantics.evaluate, encl.evaluate)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert semantics.evaluate is originals[1]  # the walker's own binding stays
        assert encl.evaluate is not originals[2]
        src = pkg.parse("meas(a,[1,2],d) * meas(b,[1,2],d)")
        tgt = pkg.parse("exact(1,d)")
        tracer.active = True
        cls = pkg.classify(src, tgt, 2, 100)
        tracer.active = False
    finally:
        undo()
    assert cls.kind.value == gen.FORWARD
    assert tracer.stack == []
    # 2x2 grid, enumerated three times per classify: evaluate runs once per
    # environment, not once per node of the product.
    assert tracer.counts["enclosure.envs_enumerated"] == 12
    assert tracer.calls["semantics.evaluate"] == tracer.calls["semantics.token_consistent"] == 12
    assert tracer.edges["rewrite.classify", "rewrite.licensed"] == 2
    # Forward: enclosure of tgt and src, then membership encloses src again;
    # backward: enclosure of both.  The call under membership has no rewrite
    # parent but a rewrite ancestor, and counts toward enclosure_calls_per_op.
    assert tracer.edges["enclosure.membership", "enclosure.enclosure"] == 1
    assert tracer.within["rewrite", "enclosure.enclosure"] == tracer.calls["enclosure.enclosure"] == 5
    assert (rewrite.enclosure, semantics.evaluate, encl.evaluate) == originals
