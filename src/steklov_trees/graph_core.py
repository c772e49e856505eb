"""Finite trees with boundary: construction, validation, and metric queries.

A *tree with boundary* is a finite combinatorial tree on vertices
``0..n-1`` whose degree-one vertices form the boundary and whose
remaining vertices form the (nonempty, connected) interior.  Requiring
``n >= 3`` guarantees an interior vertex, rules out boundary-boundary
edges, and makes the boundary response matrix well defined.

Everything in this module is deterministic: neighbor lists are stored
sorted, searches visit vertices in ascending id order, and tie-breaking
rules are written out explicitly.  This determinism is load-bearing; the
verification harness freezes byte-identical reports for fixed seeds.
"""
from __future__ import annotations

import functools
import json
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

import numpy as np

from .errors import (
    BadVertexError,
    InvariantViolationError,
    MalformedError,
    NotAPathError,
    NotATreeError,
    TooSmallError,
)

Edge = tuple[int, int]
_T = TypeVar("_T")


@dataclass(frozen=True, eq=False)
class BoundaryTree:
    """An immutable, validated tree with boundary.

    Attributes:
        n: number of vertices; ids are exactly ``0..n-1``.
        edges: the ``n-1`` edges as ``(min, max)`` pairs in lexicographic
            order.
        boundary: degree-one vertices, ascending.
        interior: the complement, ascending.
        max_degree: maximum vertex degree ``D``.

    The numpy members are precomputed conveniences for the solvers and
    carry no information beyond ``edges``.  Do not construct instances
    directly; go through :func:`build_tree`, which performs all
    validation.
    """

    n: int
    edges: tuple[Edge, ...]
    boundary: tuple[int, ...]
    interior: tuple[int, ...]
    max_degree: int
    degrees: np.ndarray = field(repr=False)
    edge_u: np.ndarray = field(repr=False)
    edge_v: np.ndarray = field(repr=False)
    neighbors: tuple[tuple[int, ...], ...] = field(repr=False)
    boundary_pos: np.ndarray = field(repr=False)

    @property
    def n_boundary(self) -> int:
        return len(self.boundary)

    def is_boundary(self, v: int) -> bool:
        return self.degrees[v] == 1

    def check_vertex(self, v: int) -> None:
        if not isinstance(v, (int, np.integer)) or not 0 <= v < self.n:
            raise BadVertexError(f"vertex {v!r} outside 0..{self.n - 1}")


def per_tree_cache(fn: Callable[[BoundaryTree], _T]) -> Callable[[BoundaryTree], _T]:
    """Memoize ``fn(tree)`` for as long as the tree itself is alive.

    Entries are keyed weakly on the tree (trees hash by identity), so a
    cached result is dropped together with its tree instead of being
    pinned by the cache.
    """
    memo: weakref.WeakKeyDictionary[BoundaryTree, _T] = weakref.WeakKeyDictionary()

    @functools.wraps(fn)
    def cached(t: BoundaryTree) -> _T:
        try:
            return memo[t]
        except KeyError:
            out = memo[t] = fn(t)
            return out

    return cached


def build_tree(edges: Iterable[Edge]) -> BoundaryTree:
    """Validate an edge list and build a :class:`BoundaryTree`.

    Raises:
        MalformedError: self-loop, duplicate edge, non-integer or negative
            id, or a gap in the id range.
        TooSmallError: fewer than three vertices.
        NotATreeError: edge count is not ``n-1`` or the graph is
            disconnected.
    """
    norm: list[Edge] = []
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError) as exc:
            raise MalformedError(f"edge {e!r} is not a pair") from exc
        if isinstance(u, bool) or isinstance(v, bool):
            raise MalformedError(f"edge {e!r} has non-integer endpoint")
        if not isinstance(u, (int, np.integer)) or not isinstance(v, (int, np.integer)):
            raise MalformedError(f"edge {e!r} has non-integer endpoint")
        u, v = int(u), int(v)
        if u == v:
            raise MalformedError(f"self-loop at vertex {u}")
        if u < 0 or v < 0:
            raise MalformedError(f"negative vertex id in edge {(u, v)}")
        norm.append((min(u, v), max(u, v)))

    if len(set(norm)) != len(norm):
        dupes = sorted({e for e in norm if norm.count(e) > 1})
        raise MalformedError(f"duplicate edge(s) {dupes}")

    seen = sorted({x for e in norm for x in e})
    if not seen:
        raise TooSmallError("empty edge list")
    n = seen[-1] + 1
    if seen != list(range(n)):
        missing = sorted(set(range(n)) - set(seen))
        raise MalformedError(f"vertex ids not contiguous; missing {missing}")
    if n < 3:
        raise TooSmallError(f"need at least 3 vertices, got {n}")
    if len(norm) != n - 1:
        raise NotATreeError(f"{len(norm)} edges on {n} vertices cannot be a tree")

    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in norm:
        adj[u].append(v)
        adj[v].append(u)
    # connectivity; n-1 edges + connected == tree
    if len(_bfs(adj, 0)[0]) != n:
        raise NotATreeError("graph is disconnected")

    deg = [len(a) for a in adj]
    boundary = tuple(v for v in range(n) if deg[v] == 1)
    interior = tuple(v for v in range(n) if deg[v] > 1)
    # structural consequence of n >= 3 on a tree (and with n - 1 >= 2 edges it
    # implies an interior vertex); cheap to check, never traded away
    if not all(deg[u] > 1 or deg[v] > 1 for u, v in norm):
        raise InvariantViolationError(
            "boundary-boundary edge impossible on a connected tree with n >= 3")

    edges_sorted = tuple(sorted(norm))
    edge_u = np.array([e[0] for e in edges_sorted], dtype=np.int64)
    edge_v = np.array([e[1] for e in edges_sorted], dtype=np.int64)
    neighbors = tuple(tuple(sorted(a)) for a in adj)
    pos = [-1] * n
    for i, b in enumerate(boundary):
        pos[b] = i

    return BoundaryTree(
        n=n,
        edges=edges_sorted,
        boundary=boundary,
        interior=interior,
        max_degree=max(deg),
        degrees=np.array(deg, dtype=np.int64),
        edge_u=edge_u,
        edge_v=edge_v,
        neighbors=neighbors,
        boundary_pos=np.array(pos, dtype=np.int64),
    )


# -- metric queries ------------------------------------------------------------

def _bfs(neighbors: Sequence[Sequence[int]], source: int) -> tuple[list[int], list[int]]:
    """Breadth-first order from ``source`` and each vertex's BFS parent.

    Neighbours are visited in list order; ``source`` is its own parent
    and a vertex never reached keeps parent ``-1``.
    """
    parent = [-1] * len(neighbors)
    parent[source] = source
    order = [source]
    for x in order:
        for y in neighbors[x]:
            if parent[y] < 0:
                parent[y] = x
                order.append(y)
    return order, parent


def _bfs_distances(t: BoundaryTree, source: int) -> tuple[list[int], list[int]]:
    """Distances from ``source`` and the BFS parents they were found along."""
    order, parent = _bfs(t.neighbors, source)
    dist = [0] * t.n
    for x in order[1:]:
        dist[x] = dist[parent[x]] + 1
    return dist, parent


def distance(t: BoundaryTree, u: int, v: int) -> int:
    """Graph distance between two vertices (BFS; exact)."""
    t.check_vertex(u)
    t.check_vertex(v)
    if u == v:
        return 0
    return _bfs_distances(t, u)[0][v]


class DiameterPath(NamedTuple):
    length: int
    path: tuple[int, ...]


@per_tree_cache
def diameter(t: BoundaryTree) -> DiameterPath:
    """Diameter length L and one realizing path ``x_0 .. x_L``.

    Uses the double-BFS endpoint argument for trees.  Ties are broken by
    smallest vertex id at both endpoint selections, and the returned path
    runs from its smaller endpoint to its larger one, so the result is a
    deterministic function of the tree.  Both endpoints are boundary
    vertices.  Computed once per tree (the result is immutable).
    """
    d0, _ = _bfs_distances(t, 0)
    a = d0.index(max(d0))
    da, parent = _bfs_distances(t, a)
    L = max(da)
    b = da.index(L)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    if path[0] > path[-1]:
        path.reverse()
    if len(path) != L + 1 or not (t.is_boundary(path[0]) and t.is_boundary(path[-1])):
        raise InvariantViolationError("diameter path must join two boundary vertices")
    return DiameterPath(L, tuple(path))


@dataclass(frozen=True, eq=False)
class SubtreeRef:
    """A connected induced subtree of a parent tree.

    ``relative_boundary`` lists the vertices of the subtree that are
    boundary vertices *of the parent*; this is the correct notion for all
    partition arguments here (a spine vertex of degree 3 may be a leaf of
    its branch yet is interior to the parent).
    """

    tree: BoundaryTree
    vertices: frozenset[int]
    relative_boundary: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.vertices)

    def min_vertex(self) -> int:
        return min(self.vertices)


def make_subtree(t: BoundaryTree, vertices: Iterable[int]) -> SubtreeRef:
    """Build a :class:`SubtreeRef`, checking induced connectivity.

    An induced subgraph of a tree is a forest, so it is connected exactly
    when it has ``|vertices| - 1`` edges; one mask counts them.
    """
    vs = frozenset(map(int, vertices))
    if not vs:
        raise BadVertexError("empty subtree")
    lo, hi = min(vs), max(vs)
    if lo < 0 or hi >= t.n:
        raise BadVertexError(f"vertex {lo if lo < 0 else hi!r} outside 0..{t.n - 1}")
    mask = np.zeros(t.n, dtype=bool)
    mask[np.fromiter(vs, np.int64, len(vs))] = True
    if np.count_nonzero(mask[t.edge_u] & mask[t.edge_v]) != len(vs) - 1:
        raise NotATreeError("vertex set does not induce a connected subtree")
    ids = np.flatnonzero(mask)
    rb = tuple(ids[t.boundary_pos[ids] >= 0].tolist())
    return SubtreeRef(tree=t, vertices=vs, relative_boundary=rb)


def edge_split(t: BoundaryTree, u: int, v: int) -> tuple[frozenset[int], frozenset[int]]:
    """Vertex sets of the two components of ``t`` minus edge ``(u, v)``.

    Returned as ``(side of u, side of v)``.  Raises
    :class:`MalformedError` if ``(u, v)`` is not an edge.
    """
    t.check_vertex(u)
    t.check_vertex(v)
    if (min(u, v), max(u, v)) not in set(t.edges):
        raise MalformedError(f"({u}, {v}) is not an edge")
    side_u = component_avoiding(t, u, v)
    side_v = frozenset(range(t.n)) - side_u
    return side_u, side_v


def component_avoiding(t: BoundaryTree, start: int, blocked: int) -> frozenset[int]:
    """Vertices reachable from ``start`` without stepping onto ``blocked``."""
    seen = {start}
    dq = deque([start])
    while dq:
        x = dq.popleft()
        for y in t.neighbors[x]:
            if y != blocked and y not in seen:
                seen.add(y)
                dq.append(y)
    return frozenset(seen)


def branch_components(t: BoundaryTree, path: Iterable[int]) -> list[SubtreeRef]:
    """Components hanging off the interior vertices of a diameter path.

    For a diameter-realizing path ``x_0 .. x_L``, the component ``G_k``
    at spine vertex ``x_k`` (``1 <= k <= L-1``) consists of ``x_k``
    together with everything reachable from it after deleting the two
    spine edges at ``x_k``.  The components partition ``V`` minus the
    endpoints, and their relative boundary counts ``n_k`` add up to
    ``|boundary| - 2``.

    Returns a list of length ``L-1`` whose entry ``k-1`` is ``G_k``.

    Raises:
        NotAPathError: the sequence is not a path in ``t`` or does not
            realize the diameter.
    """
    p = [int(x) for x in path]
    if len(p) < 2 or len(set(p)) != len(p):
        raise NotAPathError("vertex sequence is not a simple path")
    for v in p:
        t.check_vertex(v)
    eset = set(t.edges)
    for a, b in zip(p, p[1:]):
        if (min(a, b), max(a, b)) not in eset:
            raise NotAPathError(f"({a}, {b}) is not an edge")
    L = len(p) - 1
    if L != diameter(t).length:
        raise NotAPathError("path does not realize the diameter")

    out: list[SubtreeRef] = []
    for k in range(1, L):
        xk = p[k]
        block = {p[k - 1], p[k + 1]}
        comp = {xk}
        dq = deque([xk])
        while dq:
            x = dq.popleft()
            for y in t.neighbors[x]:
                if y not in block and y not in comp:
                    comp.add(y)
                    dq.append(y)
        out.append(make_subtree(t, comp))

    covered = set(p[0:1]) | set(p[-1:])
    for ref in out:
        covered |= ref.vertices
    if len(covered) != t.n:
        raise InvariantViolationError("branch components must partition V")
    if sum(len(r.relative_boundary) for r in out) != t.n_boundary - 2:
        raise InvariantViolationError(
            "branch components must hold all boundary vertices but the endpoints")
    return out


# -- serialization --------------------------------------------------------------

def tree_from_text(text: str) -> BoundaryTree:
    """Parse the edge-list format: one ``u v`` pair per line, ``#`` comments."""
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise MalformedError(f"line {lineno}: non-integer id in {raw!r}") from exc
    return build_tree(edges)


def tree_to_text(t: BoundaryTree) -> str:
    return "".join(f"{u} {v}\n" for u, v in t.edges)


def tree_from_json_dict(obj: dict) -> BoundaryTree:
    """Parse ``{"n": int, "edges": [[u, v], ...]}``."""
    if not isinstance(obj, dict) or "edges" not in obj:
        raise MalformedError("expected an object with an 'edges' field")
    t = build_tree(tuple((u, v) for u, v in obj["edges"]))
    if "n" in obj and int(obj["n"]) != t.n:
        raise MalformedError(f"declared n={obj['n']} but edges span {t.n} vertices")
    return t


def tree_to_json_dict(t: BoundaryTree) -> dict:
    return {"n": t.n, "edges": [[u, v] for u, v in t.edges]}


def tree_from_json(text: str) -> BoundaryTree:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedError(f"invalid JSON: {exc}") from exc
    return tree_from_json_dict(obj)
