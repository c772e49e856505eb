"""Brute-force reference implementations used only by the tests.

Everything here works on a plain ``(n, edges)`` description and leans on
numpy's LAPACK-backed solvers, deliberately sharing no logic with the
package (the input-layer references build its ``BoundaryTree`` and raise
its errors, so that results compare field by field and message by
message): dense Schur complements and ``eigvalsh`` cross-check the
hand-rolled harmonic solver, Jacobi sweep, and bisection routes, and a
breadth-first component counter cross-checks the partition machinery
and, edge by edge, the O(n) optimal split.
The partition descent as it stood before the preorder index (one
component search per candidate side) is the reference for the
package's prefix-sum descent.
A scalar one-vertex-at-a-time pencil count, along its own search from
the centre, is the reference for the package's level-by-level inertia
count, its schedule and its pivot bits.
The edge-by-edge ``build_tree`` and line-by-line text parser as they
stood before the int64 input layer are the reference for its trees and
its error messages, and a boolean mask over all vertices is the
reference for ``make_subtree``.
The one-vertex-at-a-time interior elimination from the centre and the
``np.add.at`` Laplacian as it stood before the level schedule are the
reference for the harmonic layer's bits.
The branch components, the two- and k-way splits and the multiway test
functions as they stood before the vertex masks and the shared
preorder (one component search per spine vertex, one set per remainder)
are the reference for the witness layer's parts, certificates and
function bytes.
The stack-based depth-first search as it stood before the preorder was
read off the rooted index is the reference for ``order``, ``tin``,
``tout`` and the parents of the shared preorder.
The plain inertia bisection as it stood before the replay from
count-certified brackets is the reference for every bit of
``steklov_eigenvalue_bisect``.
The pairwise set intersections of ``gradient_supports_disjoint`` as they
stood before its one-pass edge count are the reference for its verdict.
The prefix-sum descent as it stood before its integer threshold test
(a ``Fraction`` per step, counts through the side object) and the
diameter witness as it stood before the spine labels (one component
per spine vertex, the kernel in ``Fraction``) are the reference for the
descent's parts, fractions and cuts and for the witness's bytes.
The homogeneous system that the diameter witness's closed-form kernel
solves is the reference for that kernel, checked in ``Fraction``.
The Prüfer rejection loop drawing one ``randrange`` at a time, with its
fallback, is the reference for the block sampler's trees.
The harness's oracle check as it stood before the count brackets (one
bisection per audited eigenvalue) is the reference for the verdicts of
the brackets that replaced it.
The literal double BFS, with the documented tie-breaks, is the reference
for every byte of ``diameter``, which reads both searches off the
rooted index.
The generators' lists of edge pairs as they stood before each family
handed ``build_tree`` one int64 array (the breadth-first ball, the
refined ball's chain loop, the Prüfer decode, the interior-3 growth and
the extremal shape search) are the reference for every field of the
generated trees; the shape search, over its own rooted shapes, is the
reference for the closed-form extremal stars.
"""

from __future__ import annotations

import dataclasses
import heapq
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import numpy as np

from steklov_trees.config import DEFAULT_TOL, Tolerances
from steklov_trees import spectra
from steklov_trees.errors import (
    BadIndexError,
    BadVertexError,
    InfeasibleKError,
    InvariantViolationError,
    MalformedError,
    NotAPathError,
    NotATreeError,
    PartTooSmallError,
    TooSmallError,
)
from steklov_trees.graph_core import (
    BoundaryTree,
    SubtreeRef,
    _Preorder,
    _preorder,
    _rooted_index,
    build_tree,
    diameter,
)
from steklov_trees.harmonic import VertexFunction
from steklov_trees.partitions import PartitionCertificate


def laplacian_brute(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, u] += 1.0
        a[v, v] += 1.0
        a[u, v] -= 1.0
        a[v, u] -= 1.0
    return a


def degrees_brute(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def boundary_brute(n: int, edges) -> list[int]:
    return [v for v, d in enumerate(degrees_brute(n, edges)) if d == 1]


def dtn_brute(n: int, edges) -> tuple[list[int], np.ndarray]:
    """Boundary vertex list and DtN matrix by direct Schur complement."""
    lap = laplacian_brute(n, edges)
    bnd = boundary_brute(n, edges)
    inn = [v for v in range(n) if v not in bnd]
    lbb = lap[np.ix_(bnd, bnd)]
    if not inn:
        return bnd, lbb
    lbi = lap[np.ix_(bnd, inn)]
    lii = lap[np.ix_(inn, inn)]
    return bnd, lbb - lbi @ np.linalg.solve(lii, lbi.T)


def steklov_eigs_brute(n: int, edges) -> np.ndarray:
    _, m = dtn_brute(n, edges)
    return np.linalg.eigvalsh(m)


def harmonic_extension_brute(n: int, edges, boundary_values) -> np.ndarray:
    lap = laplacian_brute(n, edges)
    bnd = boundary_brute(n, edges)
    inn = [v for v in range(n) if v not in bnd]
    f = np.zeros(n)
    f[bnd] = boundary_values
    if inn:
        lii = lap[np.ix_(inn, inn)]
        lib = lap[np.ix_(inn, bnd)]
        f[inn] = np.linalg.solve(lii, -lib @ np.asarray(boundary_values, float))
    return f


def components_brute(n: int, edges, removed=()) -> list[frozenset[int]]:
    removed = {frozenset(e) for e in removed}
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if frozenset((u, v)) not in removed:
            adj[u].append(v)
            adj[v].append(u)
    seen = [False] * n
    out = []
    for s in range(n):
        if seen[s]:
            continue
        comp = {s}
        seen[s] = True
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.add(y)
                    queue.append(y)
        out.append(frozenset(comp))
    return out


def boundary_fraction_brute(n: int, edges, part) -> Fraction:
    bnd = boundary_brute(n, edges)
    return Fraction(sum(1 for v in bnd if v in part), len(bnd))


def best_split_brute(n: int, edges) -> Fraction:
    """max over edges of min(fraction, 1 - fraction), exact."""
    best = Fraction(0)
    for e in edges:
        a, b = components_brute(n, edges, removed=(e,))
        fa = boundary_fraction_brute(n, edges, a)
        best = max(best, min(fa, 1 - fa))
    return best


def best_split_edge_brute(n: int, edges) -> tuple[tuple[int, int], frozenset[int]]:
    """The optimal one-edge split by an O(n^2) scan, with its tie rules.

    The first edge (in the given order) maximizing the smaller boundary
    share, and the side holding at most half of the boundary; at exactly
    half, the side holding the smaller minimum id.
    """
    best = None
    for e in edges:
        a, b = components_brute(n, edges, removed=(e,))
        fa = boundary_fraction_brute(n, edges, a)
        if fa == Fraction(1, 2):
            small = min(a, b, key=min)
        else:
            small = a if fa < Fraction(1, 2) else b
        frac = min(fa, 1 - fa)
        if best is None or frac > best[0]:
            best = (frac, tuple(e), small)
    return best[1], best[2]


def diameter_oracle(n: int, edges) -> tuple[int, tuple[int, ...]]:
    """Diameter length and path by the literal double BFS, with its tie-breaks.

    The first endpoint is the smallest id farthest from vertex 0, the
    second the smallest id farthest from the first, and the path, walked
    back along the second search's parents, runs from its smaller
    endpoint to its larger one.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def search(s: int) -> tuple[list[int], list[int]]:
        dist = [-1] * n
        parent = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in sorted(adj[x]):
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
        return dist, parent

    d0, _ = search(0)
    a = int(np.argmax(d0))  # the first maximum: the smallest id
    da, parent = search(a)
    b = int(np.argmax(da))
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    if path[0] > path[-1]:
        path.reverse()
    return da[b], tuple(path)


def centre_order_oracle(n: int, edges) -> tuple[list[int], list[int]]:
    """The interior deepest first from the centre, and every vertex's parent toward it.

    The centre is ``path[L // 2]`` of :func:`diameter_oracle`.  A queue
    search from it over the interior, neighbours ascending, gives each
    vertex its depth and parent (boundary vertices are reached but not
    searched from); the interior is then sorted by depth, deepest first,
    ties in search order.  The centre's parent is ``-1``.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    adj = [sorted(a) for a in adj]
    L, path = diameter_oracle(n, edges)
    c = path[L // 2]
    depth = [-1] * n
    parent = [-1] * n
    depth[c] = 0
    searched: list[int] = []
    queue = deque([c])
    while queue:
        x = queue.popleft()
        searched.append(x)
        for y in adj[x]:
            if depth[y] < 0:
                depth[y] = depth[x] + 1
                parent[y] = x
                if len(adj[y]) > 1:
                    queue.append(y)
    interior = sum(1 for a in adj if len(a) > 1)
    if len(searched) != interior:
        raise InvariantViolationError(f"search reached {len(searched)} of {interior} interior vertices")
    return sorted(searched, key=lambda v: -depth[v]), parent


def count_below_brute(n: int, edges, shift: float) -> int:
    """Negative pivots of ``L - shift * B`` by a scalar sweep from the leaves to the centre.

    The reference for the package's level-by-level count: the boundary
    in ascending id order, then the interior deepest first from the
    centre (:func:`centre_order_oracle`), each vertex's parent its
    neighbour toward the centre; a pivot below 1e-280 in magnitude counts
    as -1e-280; one vertex at a time.
    """
    order, parent = centre_order_oracle(n, edges)
    deg = degrees_brute(n, edges)
    boundary = [v for v in range(n) if deg[v] == 1]
    diag = [float(d) - (shift if d == 1 else 0.0) for d in deg]
    neg = 0
    for v in boundary + order:
        d = diag[v]
        if abs(d) < 1e-280:
            d = -1e-280
        if d < 0.0:
            neg += 1
        if parent[v] >= 0:
            diag[parent[v]] -= 1.0 / d
    return neg


def _component_within_brute(t, allowed, start: int, blocked: int) -> frozenset[int]:
    """Component of ``start`` inside ``allowed`` after deleting ``blocked``."""
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in t.neighbors[x]:
            if y != blocked and y in allowed and y not in seen:
                seen.add(y)
                stack.append(y)
    return frozenset(seen)


def side_brute(t, start: int, blocked: int) -> frozenset[int]:
    """The side of ``start`` once its edge to the neighbour ``blocked`` is cut."""
    return _component_within_brute(t, range(t.n), start, blocked)


def _boundary_fraction_brute(t, vertices, total: int) -> Fraction:
    return Fraction(sum(1 for v in vertices if t.boundary_pos[v] >= 0), total)


def _pick_brute(candidates, ports):
    """Maximal fraction; ties avoid ``ports``, then hold the smallest id."""
    best = max(f for _, f, _ in candidates)
    pool = [c for c in candidates if c[1] == best]
    if len(pool) > 1:
        clean = [c for c in pool if not (c[0] & ports)]
        if clean:
            pool = clean
    return min(pool, key=lambda c: min(c[0]))


def descend_brute(t, allowed, tau, *, enter_at_equal, ports=frozenset(), total=None):
    """The balanced-part descent, one component search per candidate side.

    Starts from the lexicographically smallest edge inside ``allowed``
    and walks into the heavier side while it holds more than ``tau``
    (or exactly ``tau`` with ``enter_at_equal``).  Returns ``(part
    vertices, fraction, cut edge)``.
    """
    if total is None:
        total = t.n_boundary
    inner = [e for e in t.edges if e[0] in allowed and e[1] in allowed]
    if not inner:
        raise RuntimeError("descent needs at least one edge")
    u0, v0 = inner[0]
    side_u = _component_within_brute(t, allowed, u0, v0)
    side_v = allowed - side_u
    cands = [(side_u, _boundary_fraction_brute(t, side_u, total), (u0, v0)),
             (side_v, _boundary_fraction_brute(t, side_v, total), (u0, v0))]
    big, frac, edge = _pick_brute(cands, ports)
    over = (frac >= tau) if enter_at_equal else (frac > tau)
    if not over:
        return big, frac, edge
    u, v = edge
    if v not in big:
        u, v = v, u
    for _ in range(t.n):
        children = []
        for w in t.neighbors[v]:
            if w == u or w not in allowed:
                continue
            comp = _component_within_brute(t, allowed, w, v)
            children.append((comp, _boundary_fraction_brute(t, comp, total), (v, w)))
        if not children:
            raise RuntimeError("heavy side cannot be a single vertex")
        comp, frac, edge = _pick_brute(children, ports)
        over = (frac >= tau) if enter_at_equal else (frac > tau)
        if not over:
            return comp, frac, edge
        u, v = edge
    raise RuntimeError("descent failed to terminate")


# -- input layer ------------------------------------------------------------------
# the edge-by-edge build_tree, its BFS and the line parser, verbatim apart
# from their names

def _bfs_oracle(neighbors, source: int) -> tuple[list[int], list[int]]:
    parent = [-1] * len(neighbors)
    parent[source] = source
    order = [source]
    for x in order:
        for y in neighbors[x]:
            if parent[y] < 0:
                parent[y] = x
                order.append(y)
    return order, parent


def build_tree_oracle(edges) -> BoundaryTree:
    raw: list = []
    norm: list = []
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
        raw.append((u, v))
        norm.append((min(u, v), max(u, v)))

    if len(set(norm)) != len(norm):
        dupes = sorted({e for e in norm if norm.count(e) > 1})
        raise MalformedError(f"duplicate edge(s) {dupes}")
    for u, v in raw:
        if max(u, v) > 2**63 - 1:
            raise MalformedError(f"vertex id out of range in edge {(u, v)}")

    seen = sorted({x for e in norm for x in e})
    if not seen:
        raise TooSmallError("empty edge list")
    n = seen[-1] + 1
    gap = n - len(seen)
    if gap:
        # every missing id, unless there are more of them than edges and ten;
        # read off the gaps between the ids, never a range up to the largest
        limit = gap if gap <= max(len(norm), 10) else 10
        missing: list[int] = []
        prev = -1
        for x in seen:
            missing += range(prev + 1, min(x, prev + 1 + limit - len(missing)))
            prev = x
        what = missing if len(missing) == gap else f"{gap} ids, the first ten {missing}"
        raise MalformedError(f"vertex ids not contiguous; missing {what}")
    if n < 3:
        raise TooSmallError(f"need at least 3 vertices, got {n}")
    if len(norm) != n - 1:
        raise NotATreeError(f"{len(norm)} edges on {n} vertices cannot be a tree")

    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in norm:
        adj[u].append(v)
        adj[v].append(u)
    # connectivity; n-1 edges + connected == tree
    if len(_bfs_oracle(adj, 0)[0]) != n:
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

    t = BoundaryTree(
        n=n,
        boundary=boundary,
        interior=interior,
        max_degree=max(deg),
        degrees=np.array(deg, dtype=np.int64),
        edge_u=edge_u,
        edge_v=edge_v,
        neighbors=neighbors,
        boundary_pos=np.array(pos, dtype=np.int64),
    )
    # ``edges`` is derived from the arrays; it must read back as the sorted pairs
    assert t.edges == edges_sorted
    return t


def tree_record(t: BoundaryTree) -> list:
    """Every field of ``t``, then ``edges`` and the rooted index, for comparison.

    ``repr`` tells ``np.int64`` from ``int`` inside tuples; arrays compare
    by dtype, shape and bytes.
    """
    out = []
    for name in [f.name for f in dataclasses.fields(t)] + ["edges"]:
        x = getattr(t, name)
        out.append((name, x.dtype.str, x.shape, x.tobytes())
                   if isinstance(x, np.ndarray) else (name, repr(x)))
    idx = _rooted_index(t)
    out.append(("rooted index", repr(idx.order), repr(idx.parent)))
    return out


def tree_from_text_oracle(text: str) -> BoundaryTree:
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
    return build_tree_oracle(edges)


def make_subtree_oracle(t, vertices) -> SubtreeRef:
    """``make_subtree`` by a boolean mask over all vertices and all edges."""
    vertices = list(vertices)
    for v in vertices:
        if type(v) is bool or not isinstance(v, (int, np.integer)):
            raise BadVertexError(f"vertex {v!r} is not an integer id")
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
    return SubtreeRef(tree=t, ids=ids, relative_boundary=rb)


# -- pencil count -----------------------------------------------------------------
# the count's schedule and pivots, one vertex at a time along the search from
# the centre of centre_order_oracle

_TINY = 1e-280

# one level of the sweep: the slots [start, stop) of its vertices, the
# slots of their parents, and whether those parents are all distinct
_Level = tuple[int, int, np.ndarray, bool]


def pencil_levels_oracle(t: BoundaryTree) -> tuple[np.ndarray, np.ndarray, tuple[_Level, ...]]:
    """The whole tree's elimination schedule, level by level.

    Slots: the boundary ascending, then the interior deepest first from
    the centre.  The boundary is one level, and each depth of the
    interior one more.  Returns the degrees and the boundary mask by
    slot, and ``(start, stop, parents, distinct)`` per level; the
    centre's parent slot is the sink ``n``.
    """
    n = t.n
    order, parent = centre_order_oracle(n, t.edges)
    slots = list(t.boundary) + order
    slot = {v: s for s, v in enumerate(slots)}
    slot[-1] = n
    depth = {}
    for v in reversed(order):  # parents first
        depth[v] = 0 if parent[v] < 0 else depth[parent[v]] + 1
    level = [0 if t.degrees[v] == 1 else 1 + depth[order[0]] - depth[v] for v in slots]
    levels = []
    start = 0
    for s in range(1, n + 1):
        if s == n or level[s] != level[start]:
            ps = [slot[parent[v]] for v in slots[start:s]]
            levels.append((start, s, np.array(ps, dtype=np.int64), len(set(ps)) == len(ps)))
            start = s
    by_slot = np.array(slots, dtype=np.int64)
    return (t.degrees[by_slot].astype(np.float64), t.boundary_pos[by_slot] >= 0,
            tuple(levels))


def pencil_pivots_oracle(t: BoundaryTree, shift: float, clamp: bool) -> np.ndarray:
    """Pivots of the tree-ordered factorization of ``L - shift * B``, by slot.

    One vertex at a time in slot order, in float64 scalars, so a
    vanished pivot divides to an infinity as numpy's arrays do.
    """
    degrees, boundary, levels = pencil_levels_oracle(t)
    n = t.n
    diag = np.empty(n + 1)  # slot n absorbs the centre's (discarded) update
    diag[:n] = degrees
    diag[:n][boundary] -= shift
    for start, stop, ps, _ in levels:
        for s, p in zip(range(start, stop), ps.tolist()):
            if clamp and abs(diag[s]) < _TINY:
                diag[s] = -_TINY
            diag[p] -= 1.0 / diag[s]
    return diag[:n]


# -- pencil bisection -------------------------------------------------------------
# the bisection loop as it stood before the replay from count-certified
# brackets, verbatim apart from its name and a count memo of its own; it
# counts with the package's pencil count, which the scalar reference
# above checks

def bisect_oracle(t: BoundaryTree, k: int, *, abs_tol: float = 1e-12) -> float:
    """The k-th smallest Steklov eigenvalue by plain inertia bisection."""
    m = t.n_boundary
    if not 1 <= k <= m:
        raise BadIndexError(f"index {k} outside 1..{m}")
    counts: dict[float, int] = {}

    def count(shift: float) -> int:
        try:
            return counts[shift]
        except KeyError:
            c = counts[shift] = spectra._steklov_count_below(t, shift)
            return c

    lo = -1e-9
    hi = 1.0 + 1e-9
    if count(lo) != 0:
        raise InvariantViolationError("pencil count below 0 is not zero")
    while hi - lo > abs_tol:
        mid = 0.5 * (lo + hi)
        if count(mid) >= k:
            hi = mid
        else:
            lo = mid
    return max(0.0, 0.5 * (lo + hi))


# -- verify oracle check ----------------------------------------------------------
# the harness's oracle check as it stood before the count brackets, verbatim
# apart from taking its tree, spectrum, audited indices and tolerances as
# arguments: one bisection per audited eigenvalue, compared with the dense value

def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def oracle_agreement_bisect(t: BoundaryTree, spectrum, ks: tuple[int, ...],
                            tol: Tolerances) -> None:
    """Raise ``AssertionError`` unless every audited dense eigenvalue is bisected within ``oracle_agreement``."""
    m = t.n_boundary
    idx = range(1, m + 1) if m <= 12 else sorted({1, 2, m // 2, m, *ks})
    for k in idx:
        ref = spectra.steklov_eigenvalue_bisect(t, k, abs_tol=tol.bisect_abs)
        _expect(abs(spectrum.eigenvalue(k) - ref) <= tol.oracle_agreement,
                f"eigenvalue {k}: dense {spectrum.eigenvalue(k)!r} vs pencil {ref!r}")


# -- harmonic layer ---------------------------------------------------------------
# the one-vertex-at-a-time interior elimination from the centre, its column
# extension, and the np.add.at Laplacian as it stood before the level schedule

@dataclass(frozen=True, eq=False)
class _InteriorSolverOracle:
    order: np.ndarray
    parent: np.ndarray
    inv_piv: np.ndarray
    boundary_owner: np.ndarray


def interior_solver_oracle(t: BoundaryTree) -> _InteriorSolverOracle:
    """The interior eliminated one vertex at a time, deepest first from the centre."""
    order, parent = centre_order_oracle(t.n, t.edges)
    piv = t.degrees.astype(np.float64).copy()
    inv_piv = np.zeros(t.n)
    for v in order:
        if not piv[v] > 0.0:
            raise InvariantViolationError(f"interior pivot {piv[v]} is not positive")
        inv_piv[v] = 1.0 / piv[v]
        if parent[v] >= 0:
            piv[parent[v]] -= inv_piv[v]
    boundary_owner = np.array(
        [t.neighbors[b][0] for b in t.boundary], dtype=np.int64)
    return _InteriorSolverOracle(
        order=np.array(order, dtype=np.int64),
        parent=np.array(parent, dtype=np.int64),
        inv_piv=inv_piv,
        boundary_owner=boundary_owner,
    )


def schedule_oracle(trees) -> tuple[np.ndarray, np.ndarray, tuple[_Level, ...]]:
    """The elimination schedule of a batch of trees, numbered one tree after another.

    The construction by one stable argsort of every slot on its batch
    level, as the package built every batch before each tree kept its
    own schedule, with each tree's levels from :func:`centre_order_oracle`:
    the boundary ascending, then the interior layers deepest first, the
    centre's parent the tree's sink ``n``.  Level 0 is every boundary;
    the interior levels are aligned at the top, so the last holds every
    centre, under the batch's sink.  Returns the vertices and the
    degrees (the sink's 0 last) by slot, and ``(start, stop, parents,
    distinct)`` per level, ``distinct`` counted as a set.
    """
    orders, parents, sizes = [], [], []
    for t in trees:
        order, parent = centre_order_oracle(t.n, t.edges)
        depth = {}
        for v in reversed(order):  # parents first
            depth[v] = 0 if parent[v] < 0 else depth[parent[v]] + 1
        orders.append(np.array(list(t.boundary) + order, dtype=np.int64))
        parents.append(np.array([t.n if p < 0 else p for p in parent], dtype=np.int64))
        sizes.append(np.append(t.n_boundary, np.bincount([depth[v] for v in order])[::-1]))
    ns = [t.n for t in trees]
    depths = [len(z) for z in sizes]
    n = sum(ns)
    shift = np.repeat(np.cumsum([0, *ns[:-1]]), ns)
    order = np.concatenate(orders) + shift
    parent = np.concatenate(parents) + shift
    size = np.concatenate(sizes)
    tops = np.cumsum(depths)
    level = np.arange(len(size)) + max(depths) - np.repeat(tops, depths)
    level[tops - depths] = 0
    vertices = order[np.argsort(np.repeat(level, size), kind="stable")]
    slot = np.empty(n + 1, dtype=np.int64)
    slot[vertices] = np.arange(n)
    slot[n] = n
    ps = slot[parent[vertices]]
    bounds = [0, *np.cumsum(np.bincount(level, size)).astype(np.int64).tolist()]
    ps[bounds[-2]:] = n  # the centres'
    degrees = np.append(np.concatenate([t.degrees for t in trees])[vertices], 0.0)
    return vertices, degrees, tuple(
        (lo, hi, ps[lo:hi], len(set(ps[lo:hi].tolist())) == hi - lo)
        for lo, hi in zip(bounds, bounds[1:]))


def extend_columns_oracle(t: BoundaryTree, g: np.ndarray) -> np.ndarray:
    sol = interior_solver_oracle(t)
    out = np.zeros((t.n, g.shape[1]))
    np.add.at(out, sol.boundary_owner, g)
    order = sol.order
    for v in order:
        out[v] *= sol.inv_piv[v]
        p = sol.parent[v]
        if p >= 0:
            out[p] += out[v]
    for v in order[::-1]:
        p = sol.parent[v]
        if p >= 0:
            out[v] += sol.inv_piv[v] * out[p]
    out[np.array(t.boundary, dtype=np.int64), :] = g
    return out


def laplacian_apply_matrix_oracle(t: BoundaryTree, vals: np.ndarray) -> np.ndarray:
    nbr_sum = np.zeros_like(vals)
    np.add.at(nbr_sum, t.edge_u, vals[t.edge_v])
    np.add.at(nbr_sum, t.edge_v, vals[t.edge_u])
    return t.degrees[:, None] * vals - nbr_sum


# -- witness layer ----------------------------------------------------------------
# branch_components, partition_two, partition_k and multiway_test_functions as
# they stood before the vertex masks and the shared preorder, verbatim apart
# from their names; their descent is descend_brute above (which the old
# descent matched) and their subtree check is make_subtree_oracle

Edge = tuple[int, int]
_descend = descend_brute
make_subtree = make_subtree_oracle


def branch_components_oracle(t: BoundaryTree, path: Iterable[int]) -> list[SubtreeRef]:
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


def partition_two_oracle(t: BoundaryTree) -> PartitionCertificate:
    """A one-edge split whose small side holds a guaranteed boundary share.

    The certified part ``H`` satisfies
    ``1/(2(D-1)) <= |H ∩ boundary|/|boundary| <= 1/2``: starting from an
    arbitrary edge, descend into any side holding strictly more than half
    of the boundary; when no side does, the current maximal child works
    because its parent vertex spreads more than half of the boundary over
    at most ``D - 1`` child components.
    """
    allowed = frozenset(range(t.n))
    part, frac, edge = _descend(t, allowed, Fraction(1, 2), enter_at_equal=False)
    d = t.max_degree
    cert = PartitionCertificate(
        tree=t,
        removed_edges=((min(edge), max(edge)),),
        parts=(make_subtree(t, part),),
        fractions=(frac,),
        interval=(Fraction(1, 2 * (d - 1)), Fraction(1, 2)),
    )
    cert.validate()
    return cert


def partition_k_oracle(t: BoundaryTree, k: int) -> PartitionCertificate:
    """Peel off ``k - 1`` disjoint subtrees with balanced boundary shares.

    Each extraction runs the descent with threshold ``1/(k-1)`` inside
    whatever remains (always a connected tree: the extracted part is one
    side of an edge split), so every fraction lands in
    ``[1/((D-1)(k-1)), 1/(k-1)]``.  Unlike the two-way split, a side
    exactly at the threshold is still descended into, otherwise a star
    would surrender half its boundary in one part.
    """
    m = t.n_boundary
    if not 3 <= k <= m:
        raise InfeasibleKError(f"need 3 <= k <= {m}, got {k}")
    d = t.max_degree
    tau = Fraction(1, k - 1)
    remaining = frozenset(range(t.n))
    removed: list[Edge] = []
    parts: list[SubtreeRef] = []
    fractions: list[Fraction] = []
    ports: frozenset[int] = frozenset()
    for _ in range(k - 1):
        part, frac, edge = _descend(
            t, remaining, tau, enter_at_equal=True, ports=ports)
        parts.append(make_subtree(t, part))
        fractions.append(frac)
        removed.append((min(edge), max(edge)))
        remaining -= part
        ports |= {edge[0], edge[1]} & remaining
    cert = PartitionCertificate(
        tree=t,
        removed_edges=tuple(removed),
        parts=tuple(parts),
        fractions=tuple(fractions),
        interval=(Fraction(1, (d - 1) * (k - 1)), tau),
    )
    cert.validate()
    return cert


def multiway_test_functions_oracle(
    t: BoundaryTree,
    cert: PartitionCertificate,
    tol: Tolerances = DEFAULT_TOL,
) -> list[VertexFunction]:
    """One sum-zero function per extracted part, constant on a sub-split.

    Part ``G_j`` is itself split two ways with threshold 1/2 relative to
    its own boundary share; ``f_j`` is ``+|B_2|/|B_j|`` on the first
    piece, ``-|B_1|/|B_j|`` on the second, zero off ``G_j``.  Supports
    are pairwise disjoint by part disjointness.

    Raises:
        PartTooSmallError: some part holds a single boundary vertex, so
            every sum-zero function constant on a sub-split of it has
            zero boundary mass and an unbounded Rayleigh quotient.  Stars
            near ``k = 3`` genuinely hit this; callers treat the bound as
            witness-free there.
    """
    out: list[VertexFunction] = []
    for ref in cert.parts:
        rb = ref.relative_boundary
        if len(rb) < 2:
            raise PartTooSmallError(
                f"part with boundary {rb} cannot carry a sum-zero test function")
        # two-way descent local to the part, against its own boundary
        piece, pfrac, _ = _descend(t, ref.vertices, Fraction(1, 2),
                                   enter_at_equal=False, total=len(rb))
        b1 = pfrac
        b2 = 1 - pfrac
        vals = np.zeros(t.n)
        vals[sorted(piece)] = float(b2)
        vals[sorted(ref.vertices - piece)] = float(-b1)
        f = VertexFunction(t, vals)
        bsum = float(f.boundary_values().sum())
        if abs(bsum) > tol.boundary_sum * t.n_boundary:
            raise InvariantViolationError(f"boundary sum {bsum:.3e} not ~0")
        out.append(f)
    return out


def preorder_oracle(t: BoundaryTree) -> _Preorder:
    """Depth-first preorder of ``t`` from vertex 0, neighbours ascending.

    Built once per tree and shared by the partition descents and
    :func:`branch_components`.
    """
    parent = [-1] * t.n
    order: list[int] = []
    stack = [0]
    while stack:
        x = stack.pop()
        order.append(x)
        for y in reversed(t.neighbors[x]):
            if y != parent[x]:
                parent[y] = x
                stack.append(y)
    tin = [0] * t.n
    for i, x in enumerate(order):
        tin[x] = i
    size = [1] * t.n
    for x in reversed(order[1:]):
        size[parent[x]] += size[x]
    pre = np.array(order, dtype=np.int64)
    return _Preorder(order, pre, tin, [a + b for a, b in zip(tin, size)], parent,
                     t.boundary_pos[pre] >= 0)


def gradient_supports_disjoint_oracle(fns: list[VertexFunction]) -> bool:
    """Do the functions place nonzero gradients on pairwise disjoint edges?

    The combination inequality ``R(Σ b_j f_j) <= max R(f_j)`` needs this;
    it usually holds for peeled parts but an extraction can be forced to
    absorb the port vertex of an earlier cut, so it is checked, not
    assumed.
    """
    if not fns:
        return True
    t = fns[0].tree
    supports = []
    for f in fns:
        d = f.values[t.edge_u] - f.values[t.edge_v]
        supports.append(np.nonzero(d != 0.0)[0])
    for i in range(len(supports)):
        si = set(supports[i].tolist())
        for j in range(i + 1, len(supports)):
            if si & set(supports[j].tolist()):
                return False
    return True


# -- descent, diameter witness and sampler before the integer rewrite ----------------
# partitions._Sides, _pick, _descend, _spine, _diameter_kernel and
# diameter_test_function, and generators.gen_random_tree, verbatim apart
# from their names; the witness takes its components from
# branch_components_oracle above, and the loop decodes its sequence with
# the package's unchanged Prüfer decoder.  partitions.diameter_system,
# the linear system behind the witness's closed-form kernel, follows the
# kernel, its counts also from branch_components_oracle

class SidesOracle:
    """The sides of every edge inside a connected vertex set, O(1) each.

    ``allowed`` is a length-``n`` bool mask.  A side is named by a
    directed edge ``(v, w)``: the component of ``w`` in ``allowed`` after
    deleting ``v``.  Because ``allowed`` is connected, that is
    ``allowed ∩ subtree(w)`` when ``w`` is a child of ``v`` (rooted at
    vertex 0), and ``allowed`` minus ``subtree(v)`` otherwise; either way
    one preorder slice, inside or outside, so its boundary count is a
    difference of prefix sums.
    """

    def __init__(self, t: BoundaryTree, allowed: np.ndarray, ports: frozenset[int]):
        idx = self.idx = _preorder(t)
        self.mask = allowed[idx.pre]  # allowed, in preorder
        # below[i]: boundary vertices of allowed among the first i in preorder
        self.below = np.zeros(len(self.mask) + 1, dtype=np.int64)
        np.cumsum(self.mask & idx.boundary, out=self.below[1:])
        self.held = int(self.below[-1])
        self.port_pos = [idx.tin[p] for p in ports if allowed[p]]

    def _span(self, e: Edge) -> tuple[int, int, bool]:
        """``(lo, hi, inside)``: the side is the slice ``[lo, hi)`` or its complement."""
        v, w = e
        idx = self.idx
        if idx.parent[w] == v:
            return idx.tin[w], idx.tout[w], True
        return idx.tin[v], idx.tout[v], False

    def count(self, e: Edge) -> int:
        lo, hi, inside = self._span(e)
        c = self.below.item(hi) - self.below.item(lo)
        return c if inside else self.held - c

    def touches_port(self, e: Edge) -> bool:
        lo, hi, inside = self._span(e)
        return any((lo <= p < hi) == inside for p in self.port_pos)

    def members(self, e: Edge) -> np.ndarray:
        lo, hi, inside = self._span(e)
        pre, mask = self.idx.pre, self.mask
        if inside:
            return pre[lo:hi][mask[lo:hi]]
        return np.concatenate((pre[:lo][mask[:lo]], pre[hi:][mask[hi:]]))


def pick_oracle(sides: SidesOracle, candidates: list[Edge]) -> tuple[int, Edge]:
    """The side with the most boundary vertices, as ``(count, edge)``.

    Ties prefer sides that avoid the ports (vertices incident to
    previously removed edges: keeping a later part away from them keeps
    the multiway gradients on disjoint edge sets), then the side holding
    the smallest vertex id.
    """
    counts = [sides.count(e) for e in candidates]
    best = max(counts)
    pool = [e for e, c in zip(candidates, counts) if c == best]
    if len(pool) > 1:
        clean = [e for e in pool if not sides.touches_port(e)]
        if clean:
            pool = clean
    if len(pool) > 1:
        return best, min(pool, key=lambda e: int(sides.members(e).min()))
    return best, pool[0]


def descend_oracle(
    t: BoundaryTree,
    allowed: np.ndarray,
    tau: Fraction,
    *,
    enter_at_equal: bool,
    ports: frozenset[int] = frozenset(),
    total: int | None = None,
) -> tuple[np.ndarray, Fraction, Edge]:
    """One balanced-part extraction inside the subtree induced on ``allowed``.

    ``allowed`` is a length-``n`` bool mask and must be connected (all of
    ``V``, a :func:`partition_k` remainder, or a certified part).  Starts
    from the smallest edge inside it, walks toward larger boundary mass
    while a side exceeds ``tau`` (``enter_at_equal`` controls whether a
    side exactly at ``tau`` is still descended into), and returns the
    maximal child strictly below the threshold when the walk stops.  Fractions count
    boundary vertices of ``t`` over ``total`` (default: all of them).
    Descending strictly shrinks the active side, so at most ``n`` steps
    occur.  An extraction costs a few O(n) numpy passes (the mask and one
    prefix sum over the cached preorder, the winning side's slice) and
    O(1) Python work per candidate side; only the winning side is
    gathered.  Returns ``(part vertices, fraction, cut edge)``, the
    vertices as an index array in preorder.
    """
    if total is None:
        total = t.n_boundary
    u0 = int(allowed.argmax())
    v0 = next((w for w in t.neighbors[u0] if allowed[w]), None)
    if v0 is None or not allowed[u0]:
        raise InvariantViolationError("descent needs at least one edge")
    sides = SidesOracle(t, allowed, ports)
    # walk into the heavy side;  v is its entry vertex, u the vertex left behind
    cnt, (u, v) = pick_oracle(sides, [(v0, u0), (u0, v0)])
    edge = (u0, v0)
    steps = 0
    while True:
        frac = Fraction(cnt, total)
        over = (frac >= tau) if enter_at_equal else (frac > tau)
        if not over:
            return sides.members((u, v)), frac, edge
        steps += 1
        if steps > t.n:
            raise InvariantViolationError("descent failed to terminate")
        children = [(v, w) for w in t.neighbors[v] if w != u and allowed[w]]
        if not children:
            raise InvariantViolationError("heavy side cannot be a single vertex")
        cnt, edge = pick_oracle(sides, children)
        u, v = edge


def _spine_oracle(t: BoundaryTree) -> tuple[list[int], list[SubtreeRef], list[int]]:
    """The diameter path, its branch components and their boundary counts."""
    path = list(diameter(t).path)
    comps = branch_components_oracle(t, path)
    return path, comps, [len(ref.relative_boundary) for ref in comps]


def diameter_kernel_oracle(counts: list[int]) -> list[Fraction]:
    """The kernel of :func:`diameter_system_oracle`, exactly, for counts ``n_1 .. n_{L-1}``.

    With ``a_0 = L + Σ k n_k`` and ``S = Σ n_k (L - 2k)``, the vector
    ``a_k = ((L - 2k) a_0 - k S) / L`` solves every equation, and
    ``Σ n_k a_k = S``; ``a_0 >= L > 0``, so it is nonzero.  Returned as
    ``[a_0, .., a_{L-1}]`` divided by its first largest-magnitude entry.
    """
    L = len(counts) + 1
    a0 = L + sum(k * nk for k, nk in enumerate(counts, start=1))
    s = sum(nk * (L - 2 * k) for k, nk in enumerate(counts, start=1))
    # L times the kernel, in integers
    sol = [L * a0] + [(L - 2 * k) * a0 - k * s for k in range(1, L)]
    lead = max(sol, key=abs)
    return [Fraction(x, lead) for x in sol]


def diameter_system_oracle(t: BoundaryTree) -> tuple[np.ndarray, list[int], list[int]]:
    """The homogeneous system tying branch plateau values to the spine.

    For a diameter path ``x_0 .. x_L`` with ``n_k`` boundary vertices
    hanging at ``x_k``, a function constant on each branch with equal
    increments along the spine and zero boundary sum must satisfy, for
    each ``k``::

        (L - 2k) a_0 - k * Σ_i n_i a_i - L a_k = 0

    in the unknowns ``a_0 .. a_{L-1}`` (``a_k`` doubling as the plateau
    on branch ``k``; ``a_0 = f(x_0)``).  ``L - 1`` equations in ``L``
    unknowns, so a nonzero solution always exists; its kernel is
    one-dimensional, spanned by the closed form of
    :func:`diameter_test_function`.  Returns the matrix, the path, and
    the counts ``n_k``, taken from :func:`branch_components_oracle`.
    """
    path, _, counts = _spine_oracle(t)
    L = len(path) - 1
    a = np.zeros((L - 1, L))
    for k in range(1, L):
        a[k - 1, 0] += L - 2 * k
        for i in range(1, L):
            a[k - 1, i] -= k * counts[i - 1]
        a[k - 1, k] -= L
    return a, path, counts


def diameter_test_function_oracle(t: BoundaryTree) -> VertexFunction:
    """A sum-zero function with Rayleigh quotient at most ``2/L``.

    Takes the kernel of :func:`diameter_system_oracle` in closed form, exactly
    in rationals: ``a_0 = L + Σ k n_k``, ``S = Σ n_k (L - 2k)`` and
    ``a_k = ((L - 2k) a_0 - k S)/L``, scaled by its largest-magnitude
    entry.  Then ``f = a_k = a_0 - k g`` on branch ``k`` (``g = (2 a_0 +
    S)/L`` the common spine increment), ``f(x_0) = a_0`` and
    ``f(x_L) = -a_0 - S``.  All gradient lives on the spine, every
    increment equals ``g``, and the endpoint values alone make the
    quotient at most ``2/L``.
    """
    path, comps, counts = _spine_oracle(t)
    L = len(path) - 1
    sol = diameter_kernel_oracle(counts)
    weighted = sum(nk * ak for nk, ak in zip(counts, sol[1:]))

    vals = np.empty(t.n)
    for ref, ak in zip(comps, sol[1:]):
        vals[np.fromiter(ref.vertices, np.intp, len(ref.vertices))] = float(ak)
    vals[path[0]] = float(sol[0])
    vals[path[-1]] = float(-sol[0] - weighted)
    f = VertexFunction(t, vals)

    scale = 1.0 + float(np.abs(vals).max())
    bsum = float(f.boundary_values().sum())
    if abs(bsum) > 1e-9 * scale * t.n_boundary:
        raise InvariantViolationError(f"boundary sum {bsum:.3e} not ~0")
    r = spectra.rayleigh_quotient(f)  # +inf when the boundary values vanish
    # construction guarantees 2/L up to roundoff, independent of bound_slack
    if r > 2.0 / L + 1e-9:
        raise InvariantViolationError(f"diameter quotient {r:.6g} exceeds 2/{L}")
    return f


_PRUFER_DRAW_CAP = 10 ** 6


def _prufer_decode_pairs(seq: list[int], n: int) -> list[Edge]:
    deg = [1] * n
    for s in seq:
        deg[s] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges: list[Edge] = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        deg[s] -= 1
        if deg[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def gen_random_tree_oracle(n: int, max_degree: int, seed: int) -> BoundaryTree:
    """Seeded uniform random tree, rejection-sampled to the degree cap.

    Uniform labelled trees come from random Prüfer sequences; a sequence
    is rejected while some vertex would exceed ``max_degree``.  If the
    cap is so tight that 10^6 draws all fail, falls back to sequential
    attachment onto vertices with spare capacity (biased, but guaranteed
    to terminate).  ``max_degree = 2`` forces a path, built directly as a
    seeded random vertex order.
    """
    rng = random.Random(seed)
    if max_degree == 2:
        perm = list(range(n))
        rng.shuffle(perm)
        return build_tree([(perm[i], perm[i + 1]) for i in range(n - 1)])

    for _ in range(_PRUFER_DRAW_CAP):
        seq = [rng.randrange(n) for _ in range(n - 2)]
        counts = [1] * n
        for s in seq:
            counts[s] += 1
        if max(counts) <= max_degree:
            return build_tree(_prufer_decode_pairs(seq, n))

    edges: list[Edge] = []
    deg = [0] * n
    for v in range(1, n):
        open_slots = [u for u in range(v) if deg[u] < max_degree]
        u = rng.choice(open_slots)
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
    return build_tree(edges)


# -- generators' pair lists -------------------------------------------------------
# each family's list of edge pairs as it stood before the generators handed
# build_tree one int64 array, verbatim apart from their names; the trees go
# through build_tree's pair path

def ball_edges_oracle(d: int, r: int) -> list[Edge]:
    edges: list[Edge] = []
    level = [0]
    nxt = 1
    for depth in range(r):
        new_level = []
        for v in level:
            fanout = d if depth == 0 else d - 1
            for _ in range(fanout):
                edges.append((v, nxt))
                new_level.append(nxt)
                nxt += 1
        level = new_level
    return edges


def gen_refined_oracle(l: int) -> BoundaryTree:
    ball = ball_edges_oracle(3, l)
    nxt = len(ball) + 1
    depth = [0] * nxt
    edges: list[Edge] = []
    for parent, child in ball:
        k = depth[parent]  # the edge down from depth k gets k extra vertices
        depth[child] = k + 1
        chain = [parent, *range(nxt, nxt + k), child]
        nxt += k
        edges.extend(zip(chain, chain[1:]))
    return build_tree(edges)


def gen_path_oracle(length: int) -> BoundaryTree:
    return build_tree([(i, i + 1) for i in range(length)])


def _attach_shape_oracle(edges: list[Edge], root: int, shape: tuple, next_id: int) -> int:
    for child in shape:
        edges.append((root, next_id))
        cid = next_id
        next_id += 1
        next_id = _attach_shape_oracle(edges, cid, child, next_id)
    return next_id


@lru_cache(maxsize=None)
def _rooted_shapes(n: int) -> tuple[tuple, ...]:
    """All rooted tree shapes on ``n`` nodes as canonical nested tuples.

    A shape is the sorted tuple of its child shapes; building every
    (child, rest-of-root) combination and deduplicating the canonical
    forms yields each shape exactly once (1, 1, 2, 4, 9, 20, 48, ... ).
    """
    if n == 1:
        return ((),)
    found = set()
    for k in range(1, n):
        for child in _rooted_shapes(k):
            for rest in _rooted_shapes(n - k):
                found.add(tuple(sorted(rest + (child,))))
    return tuple(sorted(found))


def gen_extremal_middle_oracle(length: int, variant: str, lhat: int | None = None
                               ) -> BoundaryTree:
    """The shape search on pair lists; valid parameters only."""
    mid = length // 2
    if variant == "C":
        brush: tuple = ()
        for _ in range(lhat - 1):
            brush = (brush, brush)
        candidates = ((brush,),)
    else:
        candidates = _rooted_shapes({"A": 3, "B": 7}[variant])
    spine = [(i, i + 1) for i in range(length)]
    for shape in candidates:
        edges = list(spine)
        _attach_shape_oracle(edges, mid, shape, length + 1)
        lam2 = spectra.steklov_eigenvalue_bisect(build_tree(edges), 2)
        if abs(lam2 - 2.0 / length) <= 1e-9:
            return build_tree(edges)
    raise AssertionError(f"no variant-{variant} attachment at L={length} reaches 2/L")


def gen_random_interior3_oracle(n_target: int, max_degree: int, seed: int) -> BoundaryTree:
    rng = random.Random(seed)
    edges: list[Edge] = [(0, 1), (0, 2), (0, 3)]
    leaves = [1, 2, 3]
    n = 4
    while n < n_target:
        idx = rng.randrange(len(leaves))
        v = leaves[idx]
        leaves[idx] = leaves[-1]
        leaves.pop()
        fanout = rng.randint(2, max_degree - 1)
        for _ in range(fanout):
            edges.append((v, n))
            leaves.append(n)
            n += 1
    return build_tree(edges)
