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

Input goes through one int64 edge array.  :func:`build_tree` unpacks the
pairs and checks their types in one light pass; :func:`tree_from_text`
converts the whole text into the array at once.  Validation, degrees,
sorted edges and neighbor lists are then vectorized; only the
connectivity search walks the tree in Python.  When a check fails, a
slower edge-by-edge (or line-by-line) pass names the same first fault,
with the same message, as validating one edge at a time would.  The
search's BFS order and parents from vertex 0 stay as a weakly held
per-tree index: :func:`make_subtree` checks a part's connectivity in
O(|part|) from the parents, and :func:`diameter` reads its distances
from vertex 0 off the order.  The DFS preorder from vertex 0, with each
subtree's slice ``[tin, tout)``, is derived from the same BFS order and
parents on first use, with no search of its own: the partition descents
read their sides off it, and :func:`_spine_labels` gives every vertex
its place along a diameter path from the preorder slices of the path's
vertices, for the diameter witness and :func:`branch_components`.  The
one leaf-first elimination, :func:`_eliminate`, runs on the whole tree
for the spectral count and on the interiors of a batch of trees for the
harmonic solver.
"""
from __future__ import annotations

import functools
import json
import weakref
from collections import deque
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
    """The tree rooted at vertex 0: BFS order and parents, boundary flags.

    ``order`` and ``parent`` are the breadth-first search that
    :func:`build_tree` runs to check connectivity (vertex 0 is its own
    parent); ``boundary`` flags each vertex that lies on the boundary.
    """

    order: list[int]
    parent: list[int]
    boundary: list[bool]


@per_tree_cache
def _rooted_index(t: BoundaryTree) -> _RootedIndex:
    """The rooted index of ``t``; :func:`build_tree` stores it as it builds."""
    order, parent = _bfs(t.neighbors, 0)
    return _RootedIndex(order, parent, (t.boundary_pos >= 0).tolist())


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


# one level of an elimination: the slots [start, stop) of its vertices,
# the slots of their parents, and whether those parents are all distinct
_Level = tuple[int, int, np.ndarray, bool]


def _peel(
    neighbors: Sequence[Sequence[int]], seeds: list[int], rem: list[int], done: list[bool],
) -> tuple[list[int], list[int], list[int]]:
    """Peel one tree leaf-first from ``seeds``; ``rem`` and ``done`` are updated.

    Returns the peel order and each vertex's parent (``len(rem)`` for the
    root and for vertices not peeled) and height.
    """
    n = len(rem)
    dq = deque(seeds)
    parent = [n] * n
    height = [0] * n
    order: list[int] = []
    while dq:
        v = dq.popleft()
        if done[v]:
            continue
        done[v] = True
        order.append(v)
        for w in neighbors[v]:
            if not done[w]:
                parent[v] = w
                if height[w] <= height[v]:
                    height[w] = height[v] + 1
                rem[w] -= 1
                if rem[w] <= 1:
                    dq.append(w)
                break
    return order, parent, height


def _eliminate(
    trees: Sequence[BoundaryTree], outside: np.ndarray, rem: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, tuple[_Level, ...]]:
    """Leaf-first elimination of the forest on the trees' vertices not ``outside``.

    The trees' vertices are numbered one tree after another: vertex ``v``
    of a tree is ``v`` plus the sizes of the trees before it, and
    ``outside`` and ``rem`` are indexed so.  ``rem[v]`` counts the
    neighbours of ``v`` that are not ``outside``.  Each tree peels leaves
    off a queue, seeded with its leaves ascending; each vertex's parent is
    its first neighbour still present when it is peeled, and its height is
    one more than the largest among its children's (leaves have height 0).
    Returns the vertex in each slot, each slot's parent slot (a root's is
    the sink, the forest's size) and the levels by height, ascending.

    Each tree's peel order is sorted by height (checked below): by
    induction, a vertex enters the queue when its last child is peeled,
    which is also its tallest, so it sits one level above the vertex just
    peeled; the root is peeled last, above its last-peeled child.  The
    slots take that order for one tree; for several, each tree's order is
    merged with the others' by a stable sort on height, roots last within
    their height.  So each height is a contiguous run of slots, with its
    roots at the end, every vertex follows all its children, and each
    parent receives its children's updates in the slot order of its own
    tree's elimination.
    """
    n = len(rem)
    size = n - int(np.count_nonzero(outside))
    stops = [0, *np.cumsum([t.n for t in trees]).tolist()]
    leaves = np.flatnonzero(~outside & (rem <= 1))
    cuts = np.searchsorted(leaves, stops).tolist()
    leaves, rem, done = leaves.tolist(), rem.tolist(), outside.tolist()
    peeled = [_peel(t.neighbors, [v - a for v in leaves[lo:hi]] if a else leaves[lo:hi],
                    rem[a:b], done[a:b])
              for t, a, b, lo, hi in zip(trees, stops, stops[1:], cuts, cuts[1:])]
    if len(peeled) == 1:
        (order, parent, height), = peeled
    else:  # to the forest's numbering
        order = [v + a for (o, _, _), a in zip(peeled, stops) for v in o]
        parent = [p + a if p < t.n else n
                  for (_, ps, _), t, a in zip(peeled, trees, stops) for p in ps]
        height = [h for _, _, hs in peeled for h in hs]
    k = len(order)
    if k != size:
        raise InvariantViolationError(f"elimination reached {k} of {size} vertices")
    peel = np.array(order, dtype=np.int64)
    hp = np.array(height, dtype=np.int64)[peel]
    unsorted = hp[1:] < hp[:-1]
    if len(peeled) > 1:  # a new tree starts over at height 0
        unsorted[np.cumsum([len(o) for o, _, _ in peeled[:-1]]) - 1] = False
    if np.any(unsorted):
        raise InvariantViolationError("elimination order is not sorted by height")
    pv = np.array(parent, dtype=np.int64)[peel]
    if len(peeled) > 1:
        merged = np.lexsort((pv == n, hp))
        peel, hp, pv = peel[merged], hp[merged], pv[merged]
    slot = np.full(n + 1, k, dtype=np.int64)
    slot[peel] = np.arange(k)
    parent_slot = slot[pv]
    bounds = [0, *(np.flatnonzero(hp[1:] != hp[:-1]) + 1).tolist(), k]
    levels = []
    for start, stop in zip(bounds, bounds[1:]):
        ps = parent_slot[start:stop]
        levels.append((start, stop, ps, len(set(ps.tolist())) == len(ps)))
    return peel, parent_slot, tuple(levels)


def _is_edge(t: BoundaryTree, e: Edge) -> bool:
    """Is ``e`` one of ``t.edges``, a pair ``(u, v)`` with ``u < v``?"""
    u, v = e
    return 0 <= u < v < t.n and v in t.neighbors[u]


def _is_id_type(tp: type) -> bool:
    return tp is not bool and issubclass(tp, (int, np.integer))


def _id_fault(u: int, v: int) -> MalformedError | None:
    """Why the edge ``(u, v)`` of integer ids is invalid on its own, if it is."""
    if u == v:
        return MalformedError(f"self-loop at vertex {u}")
    if u < 0 or v < 0:
        return MalformedError(f"negative vertex id in edge {(u, v)}")
    if max(u, v) > _MAX_ID:
        return MalformedError(f"vertex id out of range in edge {(u, v)}")
    return None


def _raise_edge_fault(pairs: Sequence) -> NoReturn:
    """Raise for the first edge, in input order, that is not a valid pair of ids.

    Only reached once the bulk conversion in :func:`build_tree` has
    failed, so some edge is at fault.
    """
    for e in pairs:
        try:
            u, v = e
        except (TypeError, ValueError) as exc:
            raise MalformedError(f"edge {e!r} is not a pair") from exc
        if not (_is_id_type(type(u)) and _is_id_type(type(v))):
            raise MalformedError(f"edge {e!r} has non-integer endpoint")
        err = _id_fault(int(u), int(v))
        if err is not None:
            raise err
    raise InvariantViolationError("edge conversion failed on a valid edge list")


def _raise_shape_fault(lo: np.ndarray, hi: np.ndarray) -> NoReturn:
    """Raise for an edge list (as ``(min, max)`` pairs) that does not form a tree.

    Checked in order: repeated edges, no edges, gaps in the id range,
    fewer than three vertices, an edge count other than ``n - 1``, and
    last, since nothing else is left, a disconnected graph.
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
    deg = np.bincount(np.concatenate((lo, hi)), minlength=n)
    if not deg.all():
        raise MalformedError(
            f"vertex ids not contiguous; missing {(deg == 0).nonzero()[0].tolist()}")
    if n < 3:
        raise TooSmallError(f"need at least 3 vertices, got {n}")
    if len(lo) != n - 1:
        raise NotATreeError(f"{len(lo)} edges on {n} vertices cannot be a tree")
    raise NotATreeError("graph is disconnected")


def build_tree(edges: Iterable[Edge]) -> BoundaryTree:
    """Validate an edge list and build a :class:`BoundaryTree`.

    Python and numpy integers are ids; ``bool`` and every other type are
    not.  One pass unpacks the pairs; everything after the conversion to
    an int64 array is vectorized.

    Raises:
        MalformedError: self-loop, duplicate edge, non-integer or negative
            id, an id beyond int64, or a gap in the id range.
        TooSmallError: fewer than three vertices.
        NotATreeError: edge count is not ``n-1`` or the graph is
            disconnected.
    """
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
    ids = heads[slot].tolist()
    stops = np.cumsum(deg).tolist()
    neighbors = tuple(tuple(ids[i:j]) for i, j in zip([0, *stops], stops))
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
        edges=tuple(zip(lo.tolist(), hi.tolist())),
        boundary=tuple(boundary.tolist()),
        interior=tuple((~leaf).nonzero()[0].tolist()),
        max_degree=int(deg.max()),
        degrees=deg.astype(np.int64, copy=False),
        edge_u=lo,
        edge_v=hi,
        neighbors=neighbors,
        boundary_pos=pos,
    )
    _rooted_index.memo[t] = _RootedIndex(order, parent, leaf.tolist())
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
    vertices.  Computed once per tree (the result is immutable); the
    distances from vertex 0 come from the tree's rooted index, so only
    the search from the first endpoint runs here.
    """
    idx = _rooted_index(t)
    d0 = _depths(t.n, idx.order, idx.parent)
    a = d0.index(max(d0))
    order, parent = _bfs(t.neighbors, a)
    da = _depths(t.n, order, parent)
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


def make_subtree(t: BoundaryTree, vertices: Iterable[int]) -> SubtreeRef:
    """Build a :class:`SubtreeRef`, checking induced connectivity.

    An induced subgraph of a tree is a forest, so it is connected exactly
    when it has ``|vertices| - 1`` edges.  Rooted at vertex 0, those
    edges join the members whose parent is also a member to that parent,
    so counting such members takes O(|vertices|).  A frozenset is kept
    as it is (its members must be Python ints); any other iterable is
    converted.
    """
    vs = vertices if type(vertices) is frozenset else frozenset(map(int, vertices))
    if not vs:
        raise BadVertexError("empty subtree")
    ascending = sorted(vs)
    lo, hi = ascending[0], ascending[-1]
    if lo < 0 or hi >= t.n:
        raise BadVertexError(f"vertex {lo if lo < 0 else hi!r} outside 0..{t.n - 1}")
    idx = _rooted_index(t)
    # vertex 0 is its own parent, so it counts itself when it is a member
    inner = sum(map(vs.__contains__, map(idx.parent.__getitem__, ascending))) - (lo == 0)
    if inner != len(vs) - 1:
        raise NotATreeError("vertex set does not induce a connected subtree")
    rb = tuple(filter(idx.boundary.__getitem__, ascending))
    return SubtreeRef(tree=t, vertices=vs, relative_boundary=rb)


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
    by_label = np.argsort(labels, kind="stable").tolist()
    stops = np.cumsum(np.bincount(labels, minlength=L + 1)).tolist()
    return [make_subtree(t, frozenset(by_label[stops[k - 1]:stops[k]]))
            for k in range(1, L)]


# -- serialization --------------------------------------------------------------

def tree_from_text(text: str) -> BoundaryTree:
    """Parse the edge-list format: one ``u v`` pair per line, ``#`` comments.

    The whole text is checked and converted at once (see
    :func:`_edge_array`).  Only when that fails does a line-by-line pass
    run, to name the first bad line.
    """
    try:
        a = _edge_array(text)
    except (ValueError, OverflowError):
        _raise_text_fault(text)
    return _tree_from_array(a)


def _edge_array(text: str) -> np.ndarray:
    """The ``(m, 2)`` int64 edge array of an edge-list text.

    Every line, once its comment is cut, must split into zero or two
    tokens.  numpy converts all tokens in one call, each by ``int()``, so
    ``+3``, ``0_1`` and non-ASCII digits parse as ids.  Raises
    ``ValueError`` (or ``OverflowError`` for an id beyond int64) when the
    text is not a valid list.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
        text = "\n".join(lines)
    if not set(map(len, map(str.split, lines))) <= {0, 2}:
        raise ValueError("a line holds neither a pair nor nothing")
    return np.array(text.split(), dtype=np.int64).reshape(-1, 2)


def _raise_text_fault(text: str) -> NoReturn:
    """Raise for the first malformed line of a text the bulk parse rejected."""
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
    # every line holds two integers, so some id is beyond int64: build_tree says which
    build_tree(edges)
    raise InvariantViolationError("bulk parse failed on a valid edge list")


def tree_to_text(t: BoundaryTree) -> str:
    return "".join(f"{u} {v}\n" for u, v in t.edges)


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
    return {"n": t.n, "edges": [[u, v] for u, v in t.edges]}


def tree_from_json(text: str) -> BoundaryTree:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedError(f"invalid JSON: {exc}") from exc
    return tree_from_json_dict(obj)
