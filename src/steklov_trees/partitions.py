"""Boundary-balanced tree partitions and the test functions built on them.

Everything combinatorial here is exact: the descents compare boundary
counts with their thresholds by cross-multiplying integers, the diameter
kernel is computed in integers, and every fraction a certificate carries
is a :class:`fractions.Fraction`; floats appear only when a finished
construction is evaluated as a vertex function (each value one correctly
rounded integer division).  The guaranteed interval for every produced
boundary fraction is part of the certificate and is checked exactly,
never through floating point.

The balanced-part descents behind :func:`partition_two`,
:func:`partition_k` and the sub-split of :func:`multiway_test_functions`
run on the tree's DFS preorder, derived once per tree from the rooted
index in :mod:`.graph_core`:
inside a connected vertex set, the side of any edge is one preorder
slice or its complement, so a side's boundary count is a difference of
prefix sums.  The vertex set a descent works in is a length-``n`` bool
mask; a descent returns its part as an index array, with which
:func:`partition_k` clears the part from its remainder in place, and
which :func:`.graph_core.make_subtree` turns into the part's sorted id
array (``SubtreeRef.ids``), the one form a part is stored in.  Every
reader of a certified part indexes with that array: the certificate
check, the two-level and multiway functions and the certificate's
JSON.  Each extraction takes O(n) numpy work and O(1) Python work per
candidate side.  The diameter witness reads each vertex's place along the
diameter path off the same preorder (:func:`.graph_core._spine_labels`)
and builds no subtree.
:func:`partition_two_optimal` and :meth:`PartitionCertificate.validate`
share no code with the preorder, nor the validation with
:func:`.graph_core.make_subtree`; they are the independent oracle and
re-derivation; the exhaustive split reads the rooted index (the BFS
order and parents) and runs no search of its own.  Every function that
builds a certificate validates it before returning, so callers need not
validate it again.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import (
    DimensionMismatchError,
    InfeasibleKError,
    InvariantViolationError,
    PartTooSmallError,
)
from .graph_core import (
    BoundaryTree,
    SubtreeRef,
    _is_edge,
    _parent_ids,
    _preorder,
    _rooted_index,
    _spine_labels,
    diameter,
    make_subtree,
)
from .harmonic import VertexFunction
from .spectra import rayleigh_quotient

Edge = tuple[int, int]


@dataclass(frozen=True, eq=False)
class PartitionCertificate:
    """Removed edges plus exact boundary-fraction witnesses for a split.

    ``fractions[j]`` is ``|parts[j] ∩ boundary| / |boundary|`` and must
    lie in the closed ``interval``; ``removed_edges[j]`` cuts ``parts[j]``
    off, so exactly one of its endpoints lies in the part.
    :meth:`validate` re-derives every part's connectivity, boundary and
    fraction from its id array (``SubtreeRef.ids``), the edge list and
    the degrees, and checks disjointness and the cuts, all with vertex
    masks, so a certificate that validates is a complete proof of the
    split; :meth:`to_json_dict` writes the same arrays.
    """

    tree: BoundaryTree
    removed_edges: tuple[Edge, ...]
    parts: tuple[SubtreeRef, ...]
    fractions: tuple[Fraction, ...]
    interval: tuple[Fraction, Fraction]

    def validate(self) -> None:
        t = self.tree
        if not (len(self.parts) == len(self.fractions) == len(self.removed_edges)):
            raise InvariantViolationError("certificate field lengths disagree")
        if len(set(self.removed_edges)) != len(self.removed_edges):
            raise InvariantViolationError("removed edges are not distinct")
        for e in self.removed_edges:
            if not _is_edge(t, e):
                raise InvariantViolationError(f"{e} is not an edge of the tree")
        lo, hi = self.interval
        m = t.n_boundary
        leaf = t.degrees == 1
        if self.parts:
            ids = np.concatenate([ref.ids for ref in self.parts])
            if len(ids) and (ids.min() < 0 or ids.max() >= t.n):
                raise InvariantViolationError(f"part has a vertex outside 0..{t.n - 1}")
            if len(self.parts) > 1 and np.count_nonzero(np.bincount(ids, minlength=t.n) > 1):
                raise InvariantViolationError("parts are not pairwise disjoint")
        for ref, frac, (u, v) in zip(self.parts, self.fractions, self.removed_edges):
            ids = ref.ids
            mask = np.zeros(t.n, dtype=bool)
            mask[ids] = True
            if mask[u] == mask[v]:
                raise InvariantViolationError(f"{(u, v)} does not cut its part off")
            # connectivity and boundary re-derived from the edge list and degrees
            if np.count_nonzero(mask[t.edge_u] & mask[t.edge_v]) != len(ids) - 1:
                raise InvariantViolationError("part does not induce a connected subtree")
            found = tuple(np.flatnonzero(mask & leaf).tolist())
            if found != ref.relative_boundary:
                raise InvariantViolationError(
                    f"declared boundary {ref.relative_boundary} but found {found}")
            true_frac = Fraction(len(found), m)
            if frac != true_frac:
                raise InvariantViolationError(
                    f"declared fraction {frac} but found {true_frac}")
            if not lo <= frac <= hi:
                raise InvariantViolationError(
                    f"fraction {frac} outside [{lo}, {hi}]")

    def to_json_dict(self) -> dict:
        return {
            "removed_edges": [list(e) for e in self.removed_edges],
            "parts": [ref.ids.tolist() for ref in self.parts],
            "fractions": [f"{f.numerator}/{f.denominator}" for f in self.fractions],
            "interval": [f"{b.numerator}/{b.denominator}" for b in self.interval],
        }


# -- descent machinery --------------------------------------------------------------

class _Sides:
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
        (self.mask & idx.boundary).cumsum(out=self.below[1:])
        self.held = self.below.item(-1)
        self.port_pos = [idx.tin[p] for p in ports if allowed[p]]

    def _span(self, e: Edge) -> tuple[int, int, bool]:
        """``(lo, hi, inside)``: the side is the slice ``[lo, hi)`` or its complement."""
        v, w = e
        idx = self.idx
        if idx.parent[w] == v:
            return idx.tin[w], idx.tout[w], True
        return idx.tin[v], idx.tout[v], False

    def touches_port(self, e: Edge) -> bool:
        lo, hi, inside = self._span(e)
        return any((lo <= p < hi) == inside for p in self.port_pos)

    def members(self, e: Edge) -> np.ndarray:
        lo, hi, inside = self._span(e)
        pre, mask = self.idx.pre, self.mask
        if inside:
            return pre[lo:hi][mask[lo:hi]]
        return np.concatenate((pre[:lo][mask[:lo]], pre[hi:][mask[hi:]]))

    def min_id(self, e: Edge) -> int:
        """The smallest vertex of a side, by masked minima over its slices."""
        lo, hi, inside = self._span(e)
        pre, mask, n = self.idx.pre, self.mask, len(self.mask)
        if inside:
            return int(pre[lo:hi].min(where=mask[lo:hi], initial=n))
        return min(int(pre[:lo].min(where=mask[:lo], initial=n)),
                   int(pre[hi:].min(where=mask[hi:], initial=n)))


def _pick(sides: _Sides, candidates: list[Edge]) -> tuple[int, Edge]:
    """The side with the most boundary vertices, as ``(count, edge)``.

    Each count is read straight off the prefix sums.  Ties prefer sides
    that avoid the ports (vertices incident to previously removed edges:
    keeping a later part away from them keeps the multiway gradients on
    disjoint edge sets), then the side holding the smallest vertex id.
    """
    idx, below, held = sides.idx, sides.below, sides.held
    parent, tin, tout = idx.parent, idx.tin, idx.tout
    best = -1
    pool: list[Edge] = []
    for e in candidates:
        v, w = e
        if parent[w] == v:
            c = below.item(tout[w]) - below.item(tin[w])
        else:
            c = held - below.item(tout[v]) + below.item(tin[v])
        if c > best:
            best, pool = c, [e]
        elif c == best:
            pool.append(e)
    if len(pool) > 1:
        clean = [e for e in pool if not sides.touches_port(e)]
        if clean:
            pool = clean
    if len(pool) > 1:
        return best, min(pool, key=sides.min_id)
    return best, pool[0]


def _descend(
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
    gathered.  Each step compares ``count / total`` with ``tau`` in
    integers, by cross-multiplying.  Returns ``(part vertices, fraction,
    cut edge)``, the vertices as an index array in preorder.
    """
    if total is None:
        total = t.n_boundary
    u0 = int(allowed.argmax())
    v0 = next((w for w in t.neighbors[u0] if allowed[w]), None)
    if v0 is None or not allowed[u0]:
        raise InvariantViolationError("descent needs at least one edge")
    sides = _Sides(t, allowed, ports)
    # count / total exceeds p / q exactly when count * q > p * total, and
    # reaches it exactly when count * q > p * total - 1
    q, limit = tau.denominator, tau.numerator * total - (1 if enter_at_equal else 0)
    # walk into the heavy side;  v is its entry vertex, u the vertex left behind
    cnt, (u, v) = _pick(sides, [(v0, u0), (u0, v0)])
    edge = (u0, v0)
    steps = 0
    while cnt * q > limit:
        steps += 1
        if steps > t.n:
            raise InvariantViolationError("descent failed to terminate")
        children = [(v, w) for w in t.neighbors[v] if w != u and allowed[w]]
        if not children:
            raise InvariantViolationError("heavy side cannot be a single vertex")
        cnt, edge = _pick(sides, children)
        u, v = edge
    return sides.members((u, v)), Fraction(cnt, total), edge


def partition_two(t: BoundaryTree) -> PartitionCertificate:
    """A one-edge split whose small side holds a guaranteed boundary share.

    The certified part ``H`` satisfies
    ``1/(2(D-1)) <= |H ∩ boundary|/|boundary| <= 1/2``: starting from an
    arbitrary edge, descend into any side holding strictly more than half
    of the boundary; when no side does, the current maximal child works
    because its parent vertex spreads more than half of the boundary over
    at most ``D - 1`` child components.
    """
    allowed = np.ones(t.n, dtype=bool)
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


def partition_two_optimal(t: BoundaryTree) -> PartitionCertificate:
    """Exhaustive counterpart of :func:`partition_two`.

    Scans all ``n - 1`` edges and keeps the first one (in edge order)
    maximizing the smaller boundary share; by optimality the result is
    never worse than the descent's certified part, which makes this the
    oracle for it.  The part is the side holding at most half of the
    boundary, and at exactly half the side holding vertex 0 (the smaller
    minimum id).  Everything is read off the rooted index (the BFS from
    vertex 0 that :func:`.graph_core.build_tree` stores): one reverse
    pass over its order gives every subtree's boundary count, each
    edge's lower end is the one whose parent is the other, one
    ``argmax`` picks the edge, and one forward pass over the order
    (parents come first) marks the subtree below the cut.
    """
    idx = _rooted_index(t)
    order, parent = idx.order, idx.parent
    below = (t.boundary_pos >= 0).astype(np.int64).tolist()
    for x in reversed(order[1:]):
        below[parent[x]] += below[x]
    m = t.n_boundary
    eu, ev = t.edge_u, t.edge_v
    child = np.where(_parent_ids(t)[ev] == eu, ev, eu)
    held = np.array(below, dtype=np.int64)[child]
    small = np.minimum(held, m - held)
    j = int(small.argmax())  # the first edge of the largest smaller share
    cut = int(child[j])
    inside = [False] * t.n
    inside[cut] = True
    for x in order:
        if inside[parent[x]]:
            inside[x] = True
    # the side below the cut, or the side holding vertex 0 (ties at 1/2 too)
    side = np.array(inside)
    part = side if 2 * below[cut] < m else ~side
    d = t.max_degree
    cert = PartitionCertificate(
        tree=t,
        removed_edges=((int(eu[j]), int(ev[j])),),
        parts=(make_subtree(t, part.nonzero()[0]),),
        fractions=(Fraction(int(small[j]), m),),
        interval=(Fraction(1, 2 * (d - 1)), Fraction(1, 2)),
    )
    cert.validate()
    return cert


def partition_k(t: BoundaryTree, k: int) -> PartitionCertificate:
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
    remaining = np.ones(t.n, dtype=bool)
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
        remaining[part] = False
        ports |= {v for v in edge if remaining[v]}
    cert = PartitionCertificate(
        tree=t,
        removed_edges=tuple(removed),
        parts=tuple(parts),
        fractions=tuple(fractions),
        interval=(Fraction(1, (d - 1) * (k - 1)), tau),
    )
    cert.validate()
    return cert


# -- test functions -----------------------------------------------------------------

def two_level_rayleigh_exact(cert: PartitionCertificate) -> Fraction:
    """Exact Rayleigh quotient of the two-level function: 1/(m β(1-β)).

    The only nonzero gradient sits on the removed edge and equals 1, and
    the boundary mass is ``m β(1-β)`` on the nose.
    """
    beta = cert.fractions[0]
    m = cert.tree.n_boundary
    return Fraction(1) / (m * beta * (1 - beta))


def two_level_test_function(
    t: BoundaryTree,
    cert: PartitionCertificate,
    tol: Tolerances = DEFAULT_TOL,
) -> VertexFunction:
    """``1 - β`` on the certified part, ``-β`` elsewhere.

    β is the part's exact boundary fraction, so the boundary sum vanishes
    by construction and ``R(f) = 1/(m β(1-β)) <= 4(D-1)/m``.
    """
    beta = cert.fractions[0]
    vals = np.full(t.n, float(-beta))
    vals[cert.parts[0].ids] = float(1 - beta)
    f = VertexFunction(t, vals)
    bsum = float(f.boundary_values().sum())
    if abs(bsum) > tol.boundary_sum * t.n_boundary:
        raise InvariantViolationError(f"boundary sum {bsum:.3e} not ~0")
    return f


def multiway_test_functions(
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
        inside = np.zeros(t.n, dtype=bool)
        inside[ref.ids] = True
        # two-way descent local to the part, against its own boundary
        piece, pfrac, _ = _descend(t, inside, Fraction(1, 2),
                                   enter_at_equal=False, total=len(rb))
        b1 = pfrac
        b2 = 1 - pfrac
        vals = np.zeros(t.n)
        vals[inside] = float(-b1)
        vals[piece] = float(b2)
        f = VertexFunction(t, vals)
        bsum = float(f.boundary_values().sum())
        if abs(bsum) > tol.boundary_sum * t.n_boundary:
            raise InvariantViolationError(f"boundary sum {bsum:.3e} not ~0")
        out.append(f)
    return out


def gradient_supports_disjoint(fns: list[VertexFunction]) -> bool:
    """Do the functions place nonzero gradients on pairwise disjoint edges?

    The combination inequality ``R(Σ b_j f_j) <= max R(f_j)`` needs this;
    it usually holds for peeled parts but an extraction can be forced to
    absorb the port vertex of an earlier cut, so it is checked, not
    assumed.  The functions must live on one tree
    (:class:`DimensionMismatchError` otherwise).  One pass counts, per
    edge, the functions with a nonzero gradient there.
    """
    if not fns:
        return True
    t = fns[0].tree
    if any(f.tree is not t for f in fns):
        raise DimensionMismatchError("trial function on a different tree")
    vals = np.array([f.values for f in fns])
    grads = vals[:, t.edge_u] - vals[:, t.edge_v]
    return bool(np.count_nonzero(grads != 0.0, axis=0).max(initial=0) <= 1)


# -- diameter test function ----------------------------------------------------------

def _kernel_ints(counts: list[int]) -> tuple[list[int], int]:
    """``L`` times the diameter kernel in integers, and its lead.

    For a diameter path ``x_0 .. x_L`` with ``n_k`` boundary vertices
    hanging at ``x_k``, a function constant on each branch with equal
    increments along the spine and zero boundary sum must satisfy, for
    ``k = 1 .. L-1``::

        (L - 2k) a_0 - k * Σ_i n_i a_i - L a_k = 0

    in the unknowns ``a_0 .. a_{L-1}`` (``a_k`` the plateau on branch
    ``k``, ``a_0 = f(x_0)``), and that system's kernel is one-dimensional.
    With ``a_0 = L + Σ k n_k`` and ``S = Σ n_k (L - 2k)``, the vector
    ``a_k = ((L - 2k) a_0 - k S) / L`` solves every equation, and
    ``Σ n_k a_k = S``; ``a_0 >= L > 0``, so it is nonzero.  The lead is
    its first largest-magnitude entry.  The vector is negated when the
    lead is negative, so the lead returned is positive and a zero entry
    over it divides to ``0.0``, as its ``Fraction`` converts (``0 / -3``
    is ``-0.0``).
    """
    L = len(counts) + 1
    a0 = L + sum(k * nk for k, nk in enumerate(counts, start=1))
    s = sum(nk * (L - 2 * k) for k, nk in enumerate(counts, start=1))
    sol = [L * a0] + [(L - 2 * k) * a0 - k * s for k in range(1, L)]
    lead = max(sol, key=abs)
    if lead < 0:
        return [-x for x in sol], -lead
    return sol, lead


def diameter_test_function(t: BoundaryTree) -> VertexFunction:
    """A sum-zero function with Rayleigh quotient at most ``2/L``.

    Takes the kernel of the diameter system (:func:`_kernel_ints`) in
    closed form, exactly in rationals: ``a_0 = L + Σ k n_k``,
    ``S = Σ n_k (L - 2k)`` and
    ``a_k = ((L - 2k) a_0 - k S)/L``, scaled by its largest-magnitude
    entry.  Then ``f = a_k = a_0 - k g`` on branch ``k`` (``g = (2 a_0 +
    S)/L`` the common spine increment), ``f(x_0) = a_0`` and
    ``f(x_L) = -a_0 - S``.  All gradient lives on the spine, every
    increment equals ``g``, and the endpoint values alone make the
    quotient at most ``2/L``.  Each vertex takes its value from its spine
    label (:func:`.graph_core._spine_labels`): ``a_k`` on branch ``k``
    and the endpoint values at labels ``0`` and ``L``.
    """
    path = diameter(t).path
    L = len(path) - 1
    labels, counts = _spine_labels(t, path)
    nk = counts[1:L].tolist()
    sol, lead = _kernel_ints(nk)
    end = -sol[0] - sum(c * x for c, x in zip(nk, sol[1:]))
    # an int over a positive int divides correctly rounded, as float(Fraction) does
    vals = np.array([x / lead for x in (*sol, end)])[labels]
    f = VertexFunction(t, vals)

    scale = 1.0 + float(np.abs(vals).max())
    bsum = float(f.boundary_values().sum())
    if abs(bsum) > 1e-9 * scale * t.n_boundary:
        raise InvariantViolationError(f"boundary sum {bsum:.3e} not ~0")
    r = rayleigh_quotient(f)  # +inf when the boundary values vanish
    # construction guarantees 2/L up to roundoff, independent of bound_slack
    if r > 2.0 / L + 1e-9:
        raise InvariantViolationError(f"diameter quotient {r:.6g} exceeds 2/{L}")
    return f
