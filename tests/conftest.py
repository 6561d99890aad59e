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
    """The expressions `_fold_affine` folds while the test runs, in order."""
    module = importlib.import_module("enclosures.enclosure")
    fold = module._fold_affine
    folded = []

    def counted(e):
        folded.append(e)
        return fold(e)

    monkeypatch.setattr(module, "_fold_affine", counted)
    return folded


@pytest.fixture
def compiles(monkeypatch):
    """The trees a program is built for while the test runs, in order: the
    root of each `Compiled.finish`, which `parse` calls for a parsed root
    and `compile_expr` for any other tree, on its first read."""
    module = importlib.import_module("enclosures.semantics")
    finish = module.Compiled.finish
    built = []

    def counted(program, root):
        built.append(root)
        return finish(program, root)

    monkeypatch.setattr(module.Compiled, "finish", counted)
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


FRACTION_COMPARES = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")


def _counted_fraction_methods(monkeypatch, names) -> collections.Counter:
    calls = collections.Counter()
    for name in names:

        def counted(*args, op=getattr(Fraction, name), name=name):
            calls[name] += 1
            return op(*args)

        monkeypatch.setattr(Fraction, name, counted)
    return calls


@pytest.fixture
def fraction_ops(monkeypatch):
    """Calls to `Fraction`'s arithmetic operators while the test runs, by
    operator name: a work count that does not depend on the machine."""
    return _counted_fraction_methods(monkeypatch, FRACTION_OPS)


@pytest.fixture
def fraction_compares(monkeypatch):
    """Calls to `Fraction`'s comparisons while the test runs, by name; each
    goes through the `numbers.Rational` check of `Fraction._richcmp`."""
    return _counted_fraction_methods(monkeypatch, FRACTION_COMPARES)


@pytest.fixture
def sweeps(monkeypatch):
    """For each adjoint sweep `to_affine` makes while the test runs, in
    order: the program steps it goes back over and the registers it
    reaches, those whose adjoint is not None once it is done."""
    module = importlib.import_module("enclosures.enclosure")
    sweep = module._adjoints
    calls = []

    def counted(steps, values, measured, adjoint):
        adjoint = sweep(steps, values, measured, adjoint)
        reached = adjoint.values() if isinstance(adjoint, dict) else adjoint
        calls.append((len(steps), sum(x is not None for x in reached)))
        return adjoint

    monkeypatch.setattr(module, "_adjoints", counted)
    return calls


PERFBENCH_GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"


@pytest.fixture(scope="session")
def perfbench_gen():
    """perfbench's `gen.py`, loaded from the checkout as it is, never changed."""
    gen = sys.modules.get("perfbench_gen")
    if gen is None:  # registered first, as its dataclasses look their module up
        spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH_GEN)
        gen = sys.modules["perfbench_gen"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
    return gen


@pytest.fixture(scope="session")
def perfbench_texts(perfbench_gen):
    """texts(seeds): every input text perfbench's `gen.py` builds for the
    seeds, in order: both sides of each `suite`, `products` and `wide`
    operation, probes included, then each file of its `cli` calls."""
    gen = perfbench_gen

    def texts(seeds):
        for seed in seeds:
            for workload in (gen.suite, gen.products, gen.wide):
                for op in workload(seed):
                    yield op.src
                    yield op.tgt
            for call in gen.cli(seed):
                yield from call.files.values()

    return texts
