"""Fixtures shared by the test modules."""

import importlib

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
