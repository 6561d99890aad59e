"""Fixtures shared by the test modules."""

import collections
import importlib
from fractions import Fraction

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
