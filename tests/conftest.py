"""Fixtures shared by the test modules."""

import collections
import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest


@pytest.fixture
def env_draws(monkeypatch):
    """The grid environments `_env_stream` yields while the test runs, in order."""
    module = importlib.import_module("enclosures.enclosure")
    stream = module._env_stream
    drawn = []

    def counted(*args):
        for combo in stream(*args):
            drawn.append(combo)
            yield combo

    monkeypatch.setattr(module, "_env_stream", counted)
    return drawn


@pytest.fixture
def affine_folds(monkeypatch):
    """The expressions `_affine_parts` folds while the test runs, in order."""
    module = importlib.import_module("enclosures.enclosure")
    parts = module._affine_parts
    folded = []

    def counted(e, *args):
        folded.append(e)
        return parts(e, *args)

    monkeypatch.setattr(module, "_affine_parts", counted)
    return folded


@pytest.fixture
def compiles(monkeypatch):
    """The expressions `compile_expr` builds a program for while the test
    runs, in order."""
    module = importlib.import_module("enclosures.semantics")
    build = module.Compiled
    built = []

    def counted(e):
        built.append(e)
        return build(e)

    monkeypatch.setattr(module, "Compiled", counted)
    return built


FRACTION_OPS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__neg__",
)


@pytest.fixture
def fraction_ops(monkeypatch):
    """Calls to `Fraction`'s arithmetic operators while the test runs, by
    operator name: a work count that does not depend on the machine."""
    calls = collections.Counter()
    for name in FRACTION_OPS:

        def counted(*args, op=getattr(Fraction, name), name=name):
            calls[name] += 1
            return op(*args)

        monkeypatch.setattr(Fraction, name, counted)
    return calls


@pytest.fixture
def flattened(monkeypatch, fraction_ops):
    """For each `_flatten` call while the test runs, in order: the size of
    the coeffs it returns and the `Fraction` arithmetic calls made inside it."""
    module = importlib.import_module("enclosures.enclosure")
    flatten = module._flatten
    calls = []

    def counted(part):
        before = sum(fraction_ops.values())
        coeffs = flatten(part)
        calls.append((len(coeffs), sum(fraction_ops.values()) - before))
        return coeffs

    monkeypatch.setattr(module, "_flatten", counted)
    return calls


PERFBENCH_GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"


@pytest.fixture(scope="session")
def perfbench_texts():
    """texts(seeds): every input text perfbench's `gen.py` builds for the
    seeds, in order: both sides of each `suite`, `products` and `wide`
    operation, probes included, then each file of its `cli` calls.  gen.py
    is loaded from the checkout as it is, never changed."""
    gen = sys.modules.get("perfbench_gen")
    if gen is None:  # registered first, as its dataclasses look their module up
        spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH_GEN)
        gen = sys.modules["perfbench_gen"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)

    def texts(seeds):
        for seed in seeds:
            for workload in (gen.suite, gen.products, gen.wide):
                for op in workload(seed):
                    yield op.src
                    yield op.tgt
            for call in gen.cli(seed):
                yield from call.files.values()

    return texts
