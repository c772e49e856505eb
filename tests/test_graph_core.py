from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steklov_trees import (
    BadVertexError,
    InvariantViolationError,
    MalformedError,
    NotAPathError,
    NotATreeError,
    TooSmallError,
    branch_components,
    build_tree,
    component_avoiding,
    diameter,
    distance,
    edge_split,
    gen_random_tree,
    make_subtree,
    tree_from_json,
    tree_from_text,
    tree_to_json_dict,
    tree_to_text,
)
from steklov_trees import graph_core
from steklov_trees.graph_core import tree_from_json_dict

from _oracle import boundary_brute, diameter_brute
from conftest import BALL32_EDGES, CATERPILLAR_EDGES, PATH4_EDGES


# -- construction ----------------------------------------------------------------

def test_build_tree_ball32(ball32):
    assert ball32.n == 10
    assert ball32.boundary == (4, 5, 6, 7, 8, 9)
    assert ball32.interior == (0, 1, 2, 3)
    assert ball32.max_degree == 3
    assert ball32.n_boundary == 6
    assert ball32.edges == tuple(sorted(BALL32_EDGES))


def test_build_tree_normalizes_edge_order():
    t = build_tree([(2, 0), (1, 0), (3, 1)])
    assert t.edges == ((0, 1), (0, 2), (1, 3))


@pytest.mark.parametrize("edges,err", [
    ([(0, 0), (0, 1), (1, 2)], MalformedError),          # self-loop
    ([(0, 1), (1, 0), (1, 2)], MalformedError),          # duplicate
    ([(0, 1), (1, 3)], MalformedError),                  # id gap
    ([(0, 1), (1, 2.5)], MalformedError),                # non-integer
    ([(0, 1), (1, True)], MalformedError),               # bool is not an id
    ([(-1, 0), (0, 1)], MalformedError),                 # negative id
    ([(0, 1)], TooSmallError),                           # n=2
    ([], TooSmallError),                                 # empty
    ([(0, 1), (1, 2), (0, 2), (2, 3)], NotATreeError),   # 4 edges on 4 vertices
    ([(0, 1), (1, 2), (2, 0)], NotATreeError),           # pure cycle, n edges
    ([(0, 1), (2, 3)], NotATreeError),                   # disconnected forest
])
def test_build_tree_rejects(edges, err):
    with pytest.raises(err):
        build_tree(edges)


def test_build_tree_structure_check_raises_without_assert(monkeypatch):
    # a real check, not an ``assert``: it also runs under ``python -O``.
    # A triangle plus a separate edge fails only the connectivity search;
    # a search that claims to reach every vertex lets it through.
    monkeypatch.setattr(graph_core, "_bfs",
                        lambda nbrs, source: (list(range(len(nbrs))), [0] * len(nbrs)))
    with pytest.raises(InvariantViolationError, match="boundary-boundary"):
        build_tree([(0, 1), (1, 2), (0, 2), (3, 4)])


def test_boundary_is_degree_one(caterpillar):
    assert caterpillar.boundary == tuple(boundary_brute(caterpillar.n, caterpillar.edges))
    for v in caterpillar.boundary:
        assert caterpillar.is_boundary(v)
    for v in caterpillar.interior:
        assert not caterpillar.is_boundary(v)


def test_check_vertex(path4):
    path4.check_vertex(0)
    path4.check_vertex(4)
    for bad in (-1, 5, 2.0, "2", None):
        with pytest.raises(BadVertexError):
            path4.check_vertex(bad)


# -- metric queries --------------------------------------------------------------

def test_distance_path(path4):
    assert distance(path4, 0, 4) == 4
    assert distance(path4, 2, 2) == 0
    assert distance(path4, 1, 3) == 2


@pytest.mark.parametrize("edges,expect", [
    (PATH4_EDGES, 4),
    (BALL32_EDGES, 4),
    (CATERPILLAR_EDGES, 4),
    (((0, 1), (0, 2), (0, 3)), 2),
])
def test_diameter_known(edges, expect):
    t = build_tree(edges)
    d = diameter(t)
    assert d.length == expect
    assert len(d.path) == expect + 1
    assert t.is_boundary(d.path[0]) and t.is_boundary(d.path[-1])


def test_diameter_is_deterministic(ball32):
    assert diameter(ball32) == diameter(ball32)
    assert diameter(ball32).path[0] < diameter(ball32).path[-1]


def test_diameter_is_computed_once_per_tree(ball32):
    first = diameter(ball32)
    assert diameter(ball32) is first
    assert diameter(build_tree(BALL32_EDGES)) == first


@given(n=st.integers(4, 48), cap=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_diameter_matches_bfs_oracle(n, cap, seed):
    t = gen_random_tree(n, cap, seed)
    d = diameter(t)
    assert d.length == diameter_brute(t.n, t.edges)
    for a, b in zip(d.path, d.path[1:]):
        assert (min(a, b), max(a, b)) in t.edges


def test_diameter_endpoint_check_raises_without_assert(ball32):
    # a real check, not an ``assert``: a tree whose degrees claim no leaves
    broken = dataclasses.replace(ball32, degrees=np.full(ball32.n, 2))
    with pytest.raises(InvariantViolationError, match="boundary vertices"):
        diameter(broken)


# -- subtrees and splits ---------------------------------------------------------

def test_make_subtree_relative_boundary(ball32):
    ref = make_subtree(ball32, {2, 6, 7})
    assert ref.size == 3
    assert ref.relative_boundary == (6, 7)
    assert ref.min_vertex() == 2
    # vertex 2 is a leaf of the branch but interior to the parent
    assert 2 not in ref.relative_boundary


@given(n=st.integers(4, 40), cap=st.integers(2, 6), seed=st.integers(0, 2**32),
       data=st.data())
def test_make_subtree_relative_boundary_in_tree_order(n, cap, seed, data):
    t = gen_random_tree(n, cap, seed)
    root = data.draw(st.integers(0, t.n - 1))
    blocked = data.draw(st.sampled_from(t.neighbors[root]))
    vs = component_avoiding(t, root, blocked)
    assert make_subtree(t, vs).relative_boundary == tuple(
        v for v in t.boundary if v in vs)


def test_make_subtree_rejects_disconnected(ball32):
    with pytest.raises(NotATreeError):
        make_subtree(ball32, {4, 6})
    with pytest.raises(BadVertexError):
        make_subtree(ball32, set())
    with pytest.raises(BadVertexError):
        make_subtree(ball32, {0, 99})
    with pytest.raises(BadVertexError):
        make_subtree(ball32, {-1, 0})


def test_make_subtree_rejects_two_disjoint_edges(ball32):
    # every vertex has a neighbour in the set, so only the edge count
    # (2 edges on 4 vertices) tells it from a subtree
    assert all(any(w in {2, 6, 1, 4} for w in ball32.neighbors[v]) for v in (2, 6, 1, 4))
    with pytest.raises(NotATreeError):
        make_subtree(ball32, {2, 6, 1, 4})


def test_edge_split(ball32):
    side_u, side_v = edge_split(ball32, 0, 2)
    assert side_v == frozenset({2, 6, 7})
    assert side_u == frozenset(range(10)) - side_v
    with pytest.raises(MalformedError):
        edge_split(ball32, 4, 5)  # not an edge


def test_component_avoiding(caterpillar):
    assert component_avoiding(caterpillar, 0, 1) == frozenset({0})
    assert component_avoiding(caterpillar, 2, 1) == frozenset({2, 3, 4, 6, 7, 8})


def test_branch_components_caterpillar(caterpillar):
    d = diameter(caterpillar)
    refs = branch_components(caterpillar, d.path)
    assert len(refs) == d.length - 1
    covered = set(d.path[:1]) | set(d.path[-1:])
    for ref in refs:
        covered |= ref.vertices
    assert covered == set(range(caterpillar.n))
    assert sum(len(r.relative_boundary) for r in refs) == caterpillar.n_boundary - 2


def test_branch_components_rejects_non_diameter_path(ball32):
    with pytest.raises(NotAPathError):
        branch_components(ball32, (4, 1, 0))  # too short
    with pytest.raises(NotAPathError):
        branch_components(ball32, (4, 5, 6))  # not a path
    with pytest.raises(NotAPathError):
        branch_components(ball32, (4, 4, 4))  # repeats


@pytest.mark.parametrize("change", [
    {"n": 11},                               # an isolated extra vertex
    {"boundary": (0, 4, 5, 6, 7, 8, 9)},     # a boundary list with a stray entry
])
def test_branch_components_checks_raise_without_assert(ball32, change):
    # real checks, not ``assert``s: trees that bypass build_tree's validation
    broken = dataclasses.replace(ball32, **change)
    with pytest.raises(InvariantViolationError, match="branch components"):
        branch_components(broken, diameter(broken).path)


@given(n=st.integers(4, 40), cap=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_branch_components_partition_property(n, cap, seed):
    t = gen_random_tree(n, cap, seed)
    d = diameter(t)
    refs = branch_components(t, d.path)
    sizes = sum(r.size for r in refs)
    assert sizes == t.n - 2
    # pairwise disjoint
    seen: set[int] = set()
    for r in refs:
        assert not (seen & r.vertices)
        seen |= r.vertices


# -- serialization ---------------------------------------------------------------

def test_text_round_trip(ball32):
    assert tree_from_text(tree_to_text(ball32)).edges == ball32.edges


def test_text_comments_and_blanks():
    t = tree_from_text("# header\n0 1\n\n1 2  # inline\n")
    assert t.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize("text", ["0\n", "0 1 2\n", "a b\n"])
def test_text_malformed(text):
    with pytest.raises(MalformedError):
        tree_from_text(text)


def test_json_round_trip(caterpillar):
    obj = tree_to_json_dict(caterpillar)
    assert obj["n"] == caterpillar.n
    assert tree_from_json_dict(obj).edges == caterpillar.edges


def test_json_declared_n_mismatch():
    with pytest.raises(MalformedError):
        tree_from_json('{"n": 7, "edges": [[0, 1], [1, 2]]}')
    with pytest.raises(MalformedError):
        tree_from_json('{"nodes": 3}')
    with pytest.raises(MalformedError):
        tree_from_json("[not json")


@given(n=st.integers(4, 40), cap=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_round_trip_property(n, cap, seed):
    t = gen_random_tree(n, cap, seed)
    assert tree_from_text(tree_to_text(t)).edges == t.edges
    assert tree_from_json_dict(tree_to_json_dict(t)).edges == t.edges


@given(n=st.integers(4, 60), cap=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_structure_invariants(n, cap, seed):
    t = gen_random_tree(n, cap, seed)
    assert len(t.edges) == t.n - 1
    assert set(t.boundary) | set(t.interior) == set(range(t.n))
    assert not (set(t.boundary) & set(t.interior))
    deg = np.zeros(t.n, dtype=int)
    for u, v in t.edges:
        deg[u] += 1
        deg[v] += 1
    assert np.array_equal(deg, t.degrees)
    assert t.max_degree == deg.max()
