"""The package's import surface: what it exports, and what it no longer does."""
from __future__ import annotations

import ast
import importlib
import inspect
import json
import re
from pathlib import Path
from types import ModuleType

import pytest

import steklov_trees

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
README = ROOT / "README.md"
# per-function suffixes of the benchmark's per-layer metrics; the traced run
# reads them off a span table keyed by "layer.function" or "layer.Class.method"
_SPAN_SUFFIXES = ("calls", "busy_s", "self_s")

# removed public names, with the module that used to define each one
REMOVED = (
    ("graph_core", "distance"),
    ("graph_core", "edge_split"),
    ("errors", "NoConvergenceError"),
    ("errors", "DegenerateSystemError"),
    ("bounds", "bound_lam2_boundary"),
    ("bounds", "bound_lam2_volume"),
    ("bounds", "bound_lam2_diameter"),
    ("bounds", "bound_lamk_boundary"),
    ("bounds", "bound_lamk_volume"),
    ("bounds", "BOUND_IDS"),
    ("partitions", "diameter_system"),
    ("partitions", "_diameter_kernel"),
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
    assert not hasattr(steklov_trees.SubtreeRef, "min_vertex")


def _names_the_package_reads() -> set[str]:
    """Every name a package module outside ``__init__`` reads, imports or looks up.

    Taken from the syntax tree, so a name that only a docstring or a
    comment mentions does not count, and neither does its definition.
    """
    out = set()
    for path in Path(steklov_trees.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name)
    return out


def _names_the_readme_shows() -> set[str]:
    """Identifiers inside the README's code spans and code blocks."""
    text = README.read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S)
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", " ".join(code)))


def test_every_exported_name_is_used_documented_or_benchmarked():
    # dead API: an export that no package code reads, the README does not
    # document and no benchmark metric traces is reached only from tests
    traced = {part for path in _traced_names() for part in path}
    keep = _names_the_package_reads() | _names_the_readme_shows() | traced
    assert [name for name in steklov_trees.__all__ if name not in keep] == []


def test_exports_hold_no_submodule():
    assert steklov_trees.errors.__name__ == "steklov_trees.errors"
    assert not [name for name in steklov_trees.__all__
                if isinstance(getattr(steklov_trees, name), ModuleType)]


def _traced_names() -> list[tuple[str, ...]]:
    """(layer, function) and (layer, class, method) of every per-function metric."""
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    out = set()
    for metric in metrics:
        *path, suffix = metric["name"].split(".")
        if suffix in _SPAN_SUFFIXES and len(path) >= 2:
            out.add(tuple(path))
    return sorted(out)


def test_benchmark_names_some_functions():
    assert ("spectra", "rayleigh_quotient") in _traced_names()
    assert ("partitions", "PartitionCertificate", "validate") in _traced_names()


@pytest.mark.parametrize("path", _traced_names(), ids=".".join)
def test_every_function_the_benchmark_traces_resolves(path):
    # the traced run wraps the public functions each layer module defines
    # itself, and fails on a metric whose function is gone or has moved
    layer, *attrs = path
    module = importlib.import_module(f"steklov_trees.{layer}")
    if len(attrs) == 1:
        fn = getattr(module, attrs[0])
        assert callable(fn) and not isinstance(fn, type)
        assert fn.__module__ == module.__name__
    else:
        cls_name, method = attrs
        cls = getattr(module, cls_name)
        assert cls.__module__ == module.__name__
        assert callable(cls.__dict__[method])
