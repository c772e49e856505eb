"""The package's import surface: what it exports, and what it no longer does."""
from __future__ import annotations

import importlib
import inspect

import pytest

import steklov_trees

# removed public names, with the module that used to define each one
REMOVED = (
    ("graph_core", "distance"),
    ("graph_core", "edge_split"),
    ("errors", "NoConvergenceError"),
    ("errors", "DegenerateSystemError"),
)


def test_every_exported_name_resolves():
    assert steklov_trees.__all__
    for name in steklov_trees.__all__:
        assert getattr(steklov_trees, name) is not None, name


@pytest.mark.parametrize("module,name", REMOVED)
def test_removed_name_is_neither_exported_nor_importable(module, name):
    assert name not in steklov_trees.__all__
    assert not hasattr(steklov_trees, name)
    assert not hasattr(importlib.import_module(f"steklov_trees.{module}"), name)
    with pytest.raises(ImportError):
        exec(f"from steklov_trees import {name}", {})


def test_removed_knobs_are_gone():
    assert "method" not in inspect.signature(steklov_trees.steklov_lambda).parameters
    assert "sym_tol" not in inspect.signature(
        steklov_trees.eigendecompose_symmetric).parameters
    assert not hasattr(steklov_trees.Tolerances, "scaled")
