"""Brute-force reference implementations used only by the tests.

Everything here works on a plain ``(n, edges)`` description and leans on
numpy's LAPACK-backed solvers, deliberately sharing no code with the
package: dense Schur complements and ``eigvalsh`` cross-check the
hand-rolled harmonic solver, Jacobi sweep, and bisection routes, and a
breadth-first component counter cross-checks the partition machinery
and, edge by edge, the O(n) optimal split.
The partition descent as it stood before the preorder index (one
component search per candidate side) is the reference for the
package's prefix-sum descent.
A scalar one-vertex-at-a-time pencil count is the reference for the
package's level-by-level inertia count.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

import numpy as np


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


def rayleigh_brute(n: int, edges, values) -> float:
    f = np.asarray(values, float)
    energy = sum((f[u] - f[v]) ** 2 for u, v in edges)
    mass = sum(f[v] ** 2 for v in boundary_brute(n, edges))
    if mass == 0.0:
        return float("inf")
    return energy / mass


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


def diameter_brute(n: int, edges) -> int:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def far(s: int) -> tuple[int, int]:
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        v = int(np.argmax(dist))
        return v, dist[v]

    a, _ = far(0)
    _, d = far(a)
    return d


def count_below_brute(n: int, edges, shift: float) -> int:
    """Negative pivots of ``L - shift * B`` by a scalar leaf-first sweep.

    The reference for the package's level-by-level count: the same
    elimination (peel leaves off a queue in ascending id order; each
    vertex's parent is its smallest-id neighbour still present; a pivot
    below 1e-280 in magnitude counts as -1e-280), one vertex at a time.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    adj = [sorted(a) for a in adj]
    diag = [float(len(a)) - (shift if len(a) == 1 else 0.0) for a in adj]
    rem = [len(a) for a in adj]
    done = [False] * n
    queue = deque(v for v in range(n) if rem[v] <= 1)
    neg = 0
    while queue:
        v = queue.popleft()
        if done[v]:
            continue
        done[v] = True
        d = diag[v]
        if abs(d) < 1e-280:
            d = -1e-280
        if d < 0.0:
            neg += 1
        for w in adj[v]:
            if not done[w]:
                diag[w] -= 1.0 / d
                rem[w] -= 1
                if rem[w] <= 1:
                    queue.append(w)
                break
    assert all(done)
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
