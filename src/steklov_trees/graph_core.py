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

Input goes through one int64 edge array.  :func:`build_tree` takes a
signed-integer ``(m, 2)`` array as it is (the generators hand it one),
and unpacks any other edge list, checking the pairs' types in one light
pass; :func:`tree_from_text` reads a plain text (ASCII ids, spaces,
tabs, LF or CR breaks and comments) into the array in one pass over its
bytes, and any other text line by line, with the same result.
Validation, degrees, sorted edges and neighbor lists are then
vectorized, each neighbor list a slice of one tuple; only the
connectivity search walks the tree in Python.  A tree stores its sorted
edges as the two int64 arrays ``edge_u`` and ``edge_v``; the tuple of
pairs ``edges`` is derived from them on first read, which the bounds
and sweep routes and the text and JSON writers never make.  When a
check fails, a slower edge-by-edge pass names the same first fault,
with the same message, as validating one edge at a time would.  The
search's BFS order and parents from vertex 0 stay as a weakly held
per-tree index: :func:`make_subtree` checks a part's connectivity by
reading one vertex mask at the parents, and the mask also gives the
part's sorted id array; :func:`diameter` reads both of its searches off
the order and the parents, running none of its own.  The DFS preorder
from vertex 0, with each subtree's slice ``[tin, tout)``, is derived
from the same BFS order and parents on first use, with no search of its
own: the partition descents read their sides off it, and
:func:`_spine_labels` gives every vertex its place along a diameter path
from the preorder slices of the path's vertices, for the diameter
witness and :func:`branch_components`.  The spectral count and the
harmonic solver eliminate along one schedule, :func:`_centre_layers`: a
search over the interior from the diameter path's centre, by layers.
"""
from __future__ import annotations

import functools
import json
import re
import weakref
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, NoReturn, Sequence, TypeVar

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
# the largest id the int64 edge arrays can hold
_MAX_ID = 2**63 - 1


@dataclass(frozen=True, eq=False)
class BoundaryTree:
    """An immutable, validated tree with boundary.

    Attributes:
        n: number of vertices; ids are exactly ``0..n-1``.
        edge_u, edge_v: the ``n-1`` edges as int64 arrays of their smaller
            and larger ends, in lexicographic order: the stored form of
            the edge list.
        edges: the same edges as ``(min, max)`` pairs, derived from
            ``edge_u`` and ``edge_v`` on first read.
        boundary: degree-one vertices, ascending.
        interior: the complement, ascending.
        max_degree: maximum vertex degree ``D``.

    The other numpy members are precomputed conveniences for the solvers
    and carry no information beyond the edge arrays.  Do not construct
    instances directly; go through :func:`build_tree`, which performs all
    validation.
    """

    n: int
    boundary: tuple[int, ...]
    interior: tuple[int, ...]
    max_degree: int
    degrees: np.ndarray = field(repr=False)
    edge_u: np.ndarray = field(repr=False)
    edge_v: np.ndarray = field(repr=False)
    neighbors: tuple[tuple[int, ...], ...] = field(repr=False)
    boundary_pos: np.ndarray = field(repr=False)

    @functools.cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(zip(self.edge_u.tolist(), self.edge_v.tolist()))

    @functools.cached_property
    def _boundary_ids(self) -> np.ndarray:
        """``boundary`` as a read-only int64 array, for gathers."""
        ids = np.array(self.boundary, dtype=np.int64)
        ids.flags.writeable = False
        return ids

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
    pinned by the cache.  The memo is exposed as ``.memo`` so that code
    which already holds the value for a new tree can store it.
    """
    memo: weakref.WeakKeyDictionary[BoundaryTree, _T] = weakref.WeakKeyDictionary()

    @functools.wraps(fn)
    def cached(t: BoundaryTree) -> _T:
        try:
            return memo[t]
        except KeyError:
            out = memo[t] = fn(t)
            return out

    cached.memo = memo  # type: ignore[attr-defined]
    return cached


@dataclass(frozen=True, eq=False)
class _RootedIndex:
    """The tree rooted at vertex 0: BFS order and parents.

    ``order`` and ``parent`` are the breadth-first search that
    :func:`build_tree` runs to check connectivity (vertex 0 is its own
    parent).
    """

    order: list[int]
    parent: list[int]


@per_tree_cache
def _rooted_index(t: BoundaryTree) -> _RootedIndex:
    """The rooted index of ``t``; :func:`build_tree` stores it as it builds."""
    return _RootedIndex(*_bfs(t.neighbors, 0))


class _Preorder(NamedTuple):
    """The tree rooted at vertex 0 in depth-first preorder.

    The subtree of ``x`` is the preorder slice ``[tin[x], tout[x])`` of
    ``order`` (and of ``pre``, the same vertices as an array).
    """

    order: list[int]       # vertices in preorder
    pre: np.ndarray        # ``order`` as an int64 array
    tin: list[int]
    tout: list[int]
    parent: list[int]      # the rooted index's parents: vertex 0 is its own
    boundary: np.ndarray   # boundary flags, in preorder


@per_tree_cache
def _preorder(t: BoundaryTree) -> _Preorder:
    """Depth-first preorder of ``t`` from vertex 0, children ascending.

    Read off the rooted index, with no search of its own: in BFS order
    over sorted neighbour lists, a vertex's children come consecutive and
    ascending, so each child's subtree is the next block of its parent's
    preorder slice.  One reverse pass gives the subtree sizes, one
    forward pass the slice starts.  Built once per tree and shared by the
    partition descents and :func:`_spine_labels`.
    """
    idx = _rooted_index(t)
    bfs, parent = idx.order, idx.parent
    size = [1] * len(parent)
    for x in reversed(bfs[1:]):
        size[parent[x]] += size[x]
    tin = [0] * len(parent)
    nxt = [1] * len(parent)  # the next free preorder slot below each vertex
    for x in bfs[1:]:
        p = parent[x]
        tin[x] = nxt[p]
        nxt[p] += size[x]
        nxt[x] = tin[x] + 1
    order = [0] * len(bfs)
    for x in bfs:
        order[tin[x]] = x
    pre = np.array(order, dtype=np.int64)
    return _Preorder(order, pre, tin, [a + b for a, b in zip(tin, size)], parent,
                     t.boundary_pos[pre] >= 0)


def _is_edge(t: BoundaryTree, e: Edge) -> bool:
    """Is ``e`` one of ``t.edges``, a pair ``(u, v)`` with ``u < v``?"""
    u, v = e
    return 0 <= u < v < t.n and v in t.neighbors[u]


def _is_id_type(tp: type) -> bool:
    return tp is not bool and issubclass(tp, (int, np.integer))


def _id_fault(u: int, v: int) -> MalformedError | None:
    """Why the edge ``(u, v)`` of integer ids is invalid on its own, if it is.

    An id beyond int64 is not a fault here: it is named only after every
    edge has passed this check and no edge repeats.
    """
    if u == v:
        return MalformedError(f"self-loop at vertex {u}")
    if u < 0 or v < 0:
        return MalformedError(f"negative vertex id in edge {(u, v)}")
    return None


def _raise_edge_fault(pairs: Sequence) -> NoReturn:
    """Raise for the fault an edge-by-edge validation of ``pairs`` names first.

    In order: the first edge, in input order, that is not a pair, has a
    non-integer endpoint, is a self-loop or has a negative id; then every
    repeated edge; then the first edge with an id beyond int64.  Only
    reached once the bulk conversion in :func:`build_tree` has failed, so
    some edge is at fault.
    """
    ints = []
    for e in pairs:
        try:
            u, v = e
        except (TypeError, ValueError) as exc:
            raise MalformedError(f"edge {e!r} is not a pair") from exc
        if not (_is_id_type(type(u)) and _is_id_type(type(v))):
            raise MalformedError(f"edge {e!r} has non-integer endpoint")
        u, v = int(u), int(v)
        err = _id_fault(u, v)
        if err is not None:
            raise err
        ints.append((u, v))
    times = Counter((min(u, v), max(u, v)) for u, v in ints)
    if len(times) < len(ints):
        raise MalformedError(f"duplicate edge(s) {sorted(e for e, c in times.items() if c > 1)}")
    for u, v in ints:
        if max(u, v) > _MAX_ID:
            raise MalformedError(f"vertex id out of range in edge {(u, v)}")
    raise InvariantViolationError("edge conversion failed on a valid edge list")


def _missing_ids(ids: np.ndarray, limit: int) -> list[int]:
    """The first ``limit`` non-negative integers absent from the sorted distinct ``ids``.

    Walks the gaps between consecutive ids, so the work is bounded by
    the number of ids and ``limit``, never by the ids' values.
    """
    prev = np.concatenate(([-1], ids[:-1]))
    at = np.flatnonzero(ids - prev > 1)
    out: list[int] = []
    for a, b in zip(prev[at].tolist(), ids[at].tolist()):
        out.extend(range(a + 1, min(b, a + 1 + limit - len(out))))
        if len(out) == limit:
            break
    return out


def _raise_shape_fault(lo: np.ndarray, hi: np.ndarray) -> NoReturn:
    """Raise for an edge list (as ``(min, max)`` pairs) that does not form a tree.

    Checked in order: repeated edges, no edges, gaps in the id range,
    fewer than three vertices, an edge count other than ``n - 1``, and
    last, since nothing else is left, a disconnected graph.  The gaps
    are found from the sorted distinct ids, so one stray large id costs
    no more time or memory than a small one.
    """
    perm = np.lexsort((hi, lo))
    lo, hi = lo[perm], hi[perm]
    dup = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    if dup.any():
        at = dup.nonzero()[0]
        raise MalformedError(
            f"duplicate edge(s) {sorted(set(zip(lo[at].tolist(), hi[at].tolist())))}")
    if not len(lo):
        raise TooSmallError("empty edge list")
    n = int(hi.max()) + 1
    ids = np.unique(np.concatenate((lo, hi)))
    gap = n - len(ids)
    if gap:
        # every missing id, unless there are more of them than edges and ten
        shown = _missing_ids(ids, gap if gap <= max(len(lo), 10) else 10)
        what = shown if len(shown) == gap else f"{gap} ids, the first ten {shown}"
        raise MalformedError(f"vertex ids not contiguous; missing {what}")
    if n < 3:
        raise TooSmallError(f"need at least 3 vertices, got {n}")
    if len(lo) != n - 1:
        raise NotATreeError(f"{len(lo)} edges on {n} vertices cannot be a tree")
    raise NotATreeError("graph is disconnected")


def build_tree(edges: Iterable[Edge] | np.ndarray) -> BoundaryTree:
    """Validate an edge list and build a :class:`BoundaryTree`.

    Python and numpy integers are ids; ``bool`` and every other type are
    not.  A signed-integer ``(m, 2)`` array is taken as the int64 edge
    array at once; any other input is unpacked pair by pair in one pass.
    Everything after the conversion to an int64 array is vectorized.

    Raises:
        MalformedError: self-loop, duplicate edge, non-integer or negative
            id, an id beyond int64, or a gap in the id range.
        TooSmallError: fewer than three vertices.
        NotATreeError: edge count is not ``n-1`` or the graph is
            disconnected.
    """
    if isinstance(edges, np.ndarray) and edges.dtype.kind == "i" and edges.shape[1:] == (2,):
        return _tree_from_array(np.asarray(edges, dtype=np.int64))
    pairs = edges if isinstance(edges, (list, tuple)) else list(edges)
    try:
        flat = [x for u, v in pairs for x in (u, v)]
        if not all(map(_is_id_type, set(map(type, flat)))):
            _raise_edge_fault(pairs)
        a = np.array(flat, dtype=np.int64).reshape(-1, 2)
    except (TypeError, ValueError, OverflowError):
        _raise_edge_fault(pairs)
    return _tree_from_array(a)


def _tree_from_array(a: np.ndarray) -> BoundaryTree:
    """Build a tree from an ``(m, 2)`` int64 array of edges in input order.

    The array is only read; the tree holds none of its memory.

    The checks here certify a tree: no self-loop or negative id, ids
    ``0..m`` all present, and every vertex reached from vertex 0 (a
    connected graph on ``m + 1`` vertices with ``m`` edges has no
    repeated edge).  When one fails, :func:`_raise_shape_fault` names the
    fault an edge-by-edge validation would.
    """
    u, v = a[:, 0], a[:, 1]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    bad = lo < 0
    bad |= u == v
    if np.count_nonzero(bad):
        j = int(bad.argmax())  # the first faulty edge in input order
        raise _id_fault(int(u[j]), int(v[j]))  # type: ignore[misc]

    m = len(a)
    n = m + 1
    if n < 3 or hi.max() >= n:
        _raise_shape_fault(lo, hi)
    ends = np.concatenate((lo, hi))
    deg = np.bincount(ends, minlength=n)
    if np.count_nonzero(deg) != n:
        _raise_shape_fault(lo, hi)

    # neighbour lists from the directed pairs (lo, hi) then (hi, lo),
    # sorted by (source, target); the forward pairs among them are the
    # edges in lexicographic order
    heads = np.concatenate((hi, lo))
    slot = np.argsort(ends * n + heads, kind="stable")
    ids = tuple(heads[slot].tolist())
    stops = np.cumsum(deg).tolist()
    neighbors = tuple(ids[i:j] for i, j in zip([0, *stops], stops))
    # connectivity; n-1 edges + connected == tree
    order, parent = _bfs(neighbors, 0)
    if len(order) != n:
        _raise_shape_fault(lo, hi)
    fwd = slot[slot < m]
    lo, hi = lo[fwd], hi[fwd]

    leaf = deg == 1
    # structural consequence of n >= 3 on a tree (and with n - 1 >= 2 edges it
    # implies an interior vertex); cheap to check, never traded away
    if np.count_nonzero(leaf[lo] & leaf[hi]):
        raise InvariantViolationError(
            "boundary-boundary edge impossible on a connected tree with n >= 3")
    boundary = leaf.nonzero()[0]
    pos = np.full(n, -1, dtype=np.int64)
    pos[boundary] = np.arange(len(boundary))

    t = BoundaryTree(
        n=n,
        boundary=tuple(boundary.tolist()),
        interior=tuple((~leaf).nonzero()[0].tolist()),
        max_degree=int(deg.max()),
        degrees=deg.astype(np.int64, copy=False),
        edge_u=lo,
        edge_v=hi,
        neighbors=neighbors,
        boundary_pos=pos,
    )
    _rooted_index.memo[t] = _RootedIndex(order, parent)
    return t


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


def _depths(n: int, order: Sequence[int], parent: Sequence[int]) -> list[int]:
    """Distance of each vertex from the root of a BFS ``order``."""
    dist = [0] * n
    for x in order[1:]:
        dist[x] = dist[parent[x]] + 1
    return dist


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

    Both searches are read off the tree's rooted index, with no search
    of its own: the first endpoint ``a`` is the first vertex deepest
    below vertex 0.  One top-down pass over the BFS order gives each
    vertex ``v`` the depth of ``c(v)``, where its path to vertex 0 meets
    the path from ``a``, so ``dist(a, v) = d(a) + d(v) - 2 d(c(v))``.
    The second endpoint ``b`` is the first vertex farthest from ``a``,
    and the path is ``b``'s parent walk up to ``c(b)`` followed by the
    walk from ``c(b)`` down to ``a``: the one path from ``b`` to ``a``,
    which is the one the second search's parents trace.
    """
    idx = _rooted_index(t)
    order, parent = idx.order, idx.parent
    d0 = _depths(t.n, order, parent)
    a = d0.index(max(d0))
    up_a = [a]  # a's parent walk up to vertex 0
    while up_a[-1]:
        up_a.append(parent[up_a[-1]])
    on_path = [False] * t.n
    for x in up_a:
        on_path[x] = True
    meet = d0.copy()  # the depth of c(v); a vertex on the path meets it at itself
    for x in order:
        if not on_path[x]:
            meet[x] = meet[parent[x]]
    depth_a = d0[a]
    dist = [depth_a + d - 2 * c for d, c in zip(d0, meet)]
    L = max(dist)
    b = dist.index(L)
    path = [b]
    while not on_path[path[-1]]:
        path.append(parent[path[-1]])
    path += reversed(up_a[:depth_a - d0[path[-1]]])
    if path[0] > path[-1]:
        path.reverse()
    if len(path) != L + 1 or not (t.is_boundary(path[0]) and t.is_boundary(path[-1])):
        raise InvariantViolationError("diameter path must join two boundary vertices")
    return DiameterPath(L, tuple(path))


class _Layers(NamedTuple):
    """The interior in breadth-first layers from the tree's centre, deepest first.

    ``order`` holds the layers, the centre alone last, each in search
    order; ``stops`` is where each ends.  ``parent`` is every vertex's
    neighbour toward the centre, and the centre's is ``n``.
    """

    order: np.ndarray
    stops: list[int]
    parent: np.ndarray


@per_tree_cache
def _centre_layers(t: BoundaryTree) -> _Layers:
    """The one elimination schedule of ``t``: its interior in layers from the centre.

    The centre ``c = diameter(t).path[L // 2]`` is within ``(L + 1) // 2``
    of every vertex, and the farthest are leaves, so the interior has
    ``(L + 1) // 2`` layers; with the boundary below them, as many levels
    as a leaf-first peel.  One search from ``c`` over the interior,
    neighbours ascending, gives the layers and every vertex's parent.
    Deepest first, each vertex follows its children: a perfect
    elimination order of the tree (Jacobs and Trevisan), which
    :mod:`.spectra` counts along and :mod:`.harmonic` solves along.

    Raises:
        InvariantViolationError: the search misses an interior vertex.
    """
    path = diameter(t).path
    c = path[(len(path) - 1) // 2]
    inner = (t.boundary_pos < 0).tolist()
    neighbors = t.neighbors
    parent = [-1] * t.n
    parent[c] = t.n
    order = [c]
    stops = []
    lo = 0
    while lo < len(order):
        hi = len(order)
        for x in order[lo:hi]:
            for y in neighbors[x]:
                if parent[y] < 0:
                    parent[y] = x
                    if inner[y]:
                        order.append(y)
        stops.append(hi)
        lo = hi
    k = len(order)
    if k != len(t.interior):
        raise InvariantViolationError(
            f"the search from the centre reached {k} of {len(t.interior)} interior vertices")
    # the layers deepest first, each keeping its order
    sizes = np.diff(stops, prepend=0)[::-1]
    ends = np.cumsum(sizes)
    deep = np.array(order)[np.arange(k) + np.repeat(k + sizes - 2 * ends, sizes)]
    return _Layers(deep, ends.tolist(), np.array(parent, dtype=np.int64))


@dataclass(frozen=True, eq=False)
class SubtreeRef:
    """A connected induced subtree of a parent tree.

    ``ids`` is the vertex set as a read-only, ascending index array, the
    one form that certificates and test functions read; ``vertices`` is
    the same set as a frozenset, built from ``ids`` on each read.
    ``relative_boundary`` lists the vertices of the subtree that are
    boundary vertices *of the parent*; this is the correct notion for all
    partition arguments here (a spine vertex of degree 3 may be a leaf of
    its branch yet is interior to the parent).  Build parts with
    :func:`make_subtree`, which checks them.
    """

    tree: BoundaryTree
    ids: np.ndarray
    relative_boundary: tuple[int, ...]

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self.ids.tolist())

    @property
    def size(self) -> int:
        return len(self.ids)


def make_subtree(t: BoundaryTree, vertices: Iterable[int] | np.ndarray) -> SubtreeRef:
    """Build a :class:`SubtreeRef`, checking induced connectivity.

    An induced subgraph of a tree is a forest, so it is connected exactly
    when it has ``|vertices| - 1`` edges.  Rooted at vertex 0, those
    edges join the members whose parent is also a member to that parent.
    The vertices, an integer index array as the partition descents
    return their parts or any iterable of ids (repeats allowed), are
    scattered into one vertex mask: its nonzero positions are the part's
    ascending ``ids``, and reading it at their parents (the rooted
    index's) counts the members whose parent is a member.
    """
    if not (isinstance(vertices, np.ndarray) and vertices.dtype.kind == "i"):
        # object dtype for an id past int64, which the range check rejects
        vertices = np.array([int(v) for v in vertices])
    if not len(vertices):
        raise BadVertexError("empty subtree")
    lo, hi = int(vertices.min()), int(vertices.max())
    if lo < 0 or hi >= t.n:
        raise BadVertexError(f"vertex {lo if lo < 0 else hi!r} outside 0..{t.n - 1}")
    inside = np.zeros(t.n + 1, dtype=bool)  # slot n is no vertex's
    inside[vertices] = True
    ids = inside.nonzero()[0]  # ascending, each vertex once
    if np.count_nonzero(inside[_parent_ids(t)[ids]]) != len(ids) - 1:
        raise NotATreeError("vertex set does not induce a connected subtree")
    ids.flags.writeable = False
    return SubtreeRef(t, ids, tuple(ids[t.boundary_pos[ids] >= 0].tolist()))


@per_tree_cache
def _parent_ids(t: BoundaryTree) -> np.ndarray:
    """The rooted index's parents as an index array; vertex 0's is ``n``."""
    parent = np.array(_rooted_index(t).parent, dtype=np.intp)
    parent[0] = t.n
    return parent


def component_avoiding(t: BoundaryTree, start: int, blocked: int) -> frozenset[int]:
    """Vertices reachable from ``start`` without stepping onto ``blocked``.

    Raises:
        BadVertexError: ``start`` or ``blocked`` is not a vertex of ``t``.
    """
    t.check_vertex(start)
    t.check_vertex(blocked)
    seen = {start}
    dq = deque([start])
    while dq:
        x = dq.popleft()
        for y in t.neighbors[x]:
            if y != blocked and y not in seen:
                seen.add(y)
                dq.append(y)
    return frozenset(seen)


def _spine_labels(t: BoundaryTree, path: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Each vertex's spine index along a diameter path, and the boundary count per index.

    Vertex ``v`` gets label ``k`` when it lies in the branch component
    ``G_k`` of :func:`branch_components` (``1 <= k <= L-1``); the
    endpoints ``x_0`` and ``x_L`` get ``0`` and ``L``.  Read off the
    cached preorder: the spine vertex with the smallest preorder position
    is the top of the path, every other spine vertex's subtree holds the
    subtrees of the spine vertices further from the top, so labelling
    everything ``top`` and then each spine vertex's preorder slice,
    from the top outward, leaves each vertex with its own index.
    Returns the labels by vertex and ``counts``, where ``counts[k]`` is
    the number of boundary vertices labelled ``k``.

    Raises:
        InvariantViolationError: the labels do not split ``V`` into the
            two endpoints and components, or the components do not hold
            every boundary vertex but the endpoints.
    """
    idx = _preorder(t)
    tin, tout = idx.tin, idx.tout
    L = len(path) - 1
    top = min(range(L + 1), key=lambda k: tin[path[k]])
    at = np.full(len(idx.order), top, dtype=np.intp)  # labels, in preorder
    for k in (*range(top - 1, -1, -1), *range(top + 1, L + 1)):
        at[tin[path[k]]:tout[path[k]]] = k
    labels = np.full(t.n, -1, dtype=np.intp)
    labels[idx.pre] = at
    sizes = np.bincount(at, minlength=L + 1)
    if np.count_nonzero(labels < 0) or sizes[0] != 1 or sizes[L] != 1:
        raise InvariantViolationError("branch components must partition V")
    counts = np.bincount(at[idx.boundary], minlength=L + 1)
    if int(counts[1:L].sum()) != t.n_boundary - 2:
        raise InvariantViolationError(
            "branch components must hold all boundary vertices but the endpoints")
    return labels, counts


def branch_components(t: BoundaryTree, path: Iterable[int]) -> list[SubtreeRef]:
    """Components hanging off the interior vertices of a diameter path.

    For a diameter-realizing path ``x_0 .. x_L``, the component ``G_k``
    at spine vertex ``x_k`` (``1 <= k <= L-1``) consists of ``x_k``
    together with everything reachable from it after deleting the two
    spine edges at ``x_k``.  The components partition ``V`` minus the
    endpoints, and their relative boundary counts ``n_k`` add up to
    ``|boundary| - 2``.  Each ``G_k`` is the set of vertices with spine
    label ``k`` (:func:`_spine_labels`).

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
    for a, b in zip(p, p[1:]):
        if b not in t.neighbors[a]:
            raise NotAPathError(f"({a}, {b}) is not an edge")
    L = len(p) - 1
    if L != diameter(t).length:
        raise NotAPathError("path does not realize the diameter")

    labels, _ = _spine_labels(t, p)
    by_label = np.argsort(labels, kind="stable")
    stops = np.cumsum(np.bincount(labels, minlength=L + 1)).tolist()
    return [make_subtree(t, by_label[stops[k - 1]:stops[k]]) for k in range(1, L)]


# -- serialization --------------------------------------------------------------

def tree_from_text(text: str) -> BoundaryTree:
    """Parse the edge-list format: one ``u v`` pair per line, ``#`` comments.

    A plain text, ASCII ids of at most 18 digits separated by spaces,
    tabs and LF or CR line breaks, with ASCII comments, is read in one
    pass over its bytes (:func:`_plain_edges`).  Any other text (``+3``,
    ``0_1``, non-ASCII digits or blanks, other control bytes, longer ids,
    or a line that holds neither a pair nor nothing) is read line by line
    (:func:`_edges_by_line`), with the same result or the same error
    naming the first bad line; on a file of 8000 edges that parse takes
    about five times as long, and the whole read twice as long.  The
    edges go to :func:`build_tree`.
    """
    a = _plain_edges(text)
    return build_tree(_edges_by_line(text) if a is None else a)


# the byte classes of the plain format, as a 256-byte translation table;
# every other byte (a control byte, DEL or one past ASCII) is class 0,
# read only by the line-by-line pass
_TEXT, _DIGIT, _BLANK, _BREAK = 1, 2, 3, 4
_BYTE_CLASS = bytes(
    _DIGIT if c in b"0123456789" else _BLANK if c in b" \t" else _BREAK if c in b"\n\r"
    else _TEXT if 0x20 <= c < 0x7F else 0
    for c in range(256))
# a comment: ``#`` and the printable bytes and tabs after it on its line
_COMMENT = re.compile(rb"#[\t -~]*")
# the longest id the bytes pass reads: 10**18 - 1 is below 2**63 - 1
_PLAIN_DIGITS = 18


def _plain_edges(text: str) -> np.ndarray | None:
    """The ``(m, 2)`` int64 edge array of a plain text, or ``None`` for any other.

    The comments are cut, then every byte is classed by one translation
    table; a text is plain when all of them are digits, blanks or line
    breaks, each line holds zero or two tokens and no token has more
    than 18 digits.  The tokens are then converted in one call.  Every
    temporary the size of the text holds one byte per byte.
    """
    if not text.isascii():
        return None
    data = text.encode("ascii")
    if b"#" in data:
        data = _COMMENT.sub(b"", data)
    # padded with a blank at each end, so digit runs start and stop inside
    cls = np.frombuffer((b" " + data + b" ").translate(_BYTE_CLASS), dtype=np.uint8)
    if cls.min() < _DIGIT:
        return None
    digit = cls == _DIGIT
    turns = np.flatnonzero(digit[1:] != digit[:-1])
    starts, stops = turns[0::2], turns[1::2]  # each token's bytes, in the text
    # the tokens before each line break, and after the last, by line
    per_line = np.diff(starts.searchsorted(np.flatnonzero(cls == _BREAK)),
                       prepend=0, append=len(starts))
    # per_line & ~2 is nonzero for any count but 0 and 2
    if (stops - starts).max(initial=0) > _PLAIN_DIGITS or np.count_nonzero(per_line & ~2):
        return None
    if not len(starts):  # fromstring reads a blank text as one 0
        return np.zeros((0, 2), dtype=np.int64)
    ids = np.fromstring(data, dtype=np.int64, sep=" ")
    if len(ids) != len(starts):
        raise InvariantViolationError(f"read {len(ids)} of {len(starts)} ids")
    return ids.reshape(-1, 2)


def _edges_by_line(text: str) -> list[Edge]:
    """The edges of any text, line by line, or an error naming its first bad line.

    Each line, once its comment is cut, is split by ``str.split`` and its
    two tokens converted by ``int``, so ``+3``, ``0_1`` and non-ASCII
    digits are ids.
    """
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
    return edges


def tree_to_text(t: BoundaryTree) -> str:
    return ("%d %d\n" * (t.n - 1)) % tuple(_edge_rows(t).ravel().tolist())


def tree_from_json_dict(obj: dict) -> BoundaryTree:
    """Parse ``{"n": int, "edges": [[u, v], ...]}``."""
    if not isinstance(obj, dict) or "edges" not in obj:
        raise MalformedError("expected an object with an 'edges' field")
    if not isinstance(obj["edges"], list):
        raise MalformedError("'edges' must be a list of [u, v] pairs")
    t = build_tree(obj["edges"])
    if "n" not in obj:
        return t
    try:
        n = int(obj["n"])
    except (TypeError, ValueError) as exc:
        raise MalformedError(f"'n' must be an integer, got {obj['n']!r}") from exc
    if n != t.n:
        raise MalformedError(f"declared n={obj['n']} but edges span {t.n} vertices")
    return t


def tree_to_json_dict(t: BoundaryTree) -> dict:
    return {"n": t.n, "edges": _edge_rows(t).tolist()}


def _edge_rows(t: BoundaryTree) -> np.ndarray:
    """The sorted edges as one ``(n - 1, 2)`` array, read without ``t.edges``."""
    return np.column_stack((t.edge_u, t.edge_v))


def tree_from_json(text: str) -> BoundaryTree:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedError(f"invalid JSON: {exc}") from exc
    return tree_from_json_dict(obj)
