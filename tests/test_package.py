"""Tests for the package's public surface (qspan.__all__ and its modules')."""

import importlib

import pytest

MODULES = [
    "qspan",
    "qspan.accessibility",
    "qspan.analysis",
    "qspan.cli",
    "qspan.hilbert",
    "qspan.percolation",
    "qspan.walk",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
