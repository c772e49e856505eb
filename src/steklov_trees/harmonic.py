"""Discrete harmonic extension and the boundary response matrix.

Conventions.  The graph Laplacian acts by
``(L f)(x) = sum_{y ~ x} (f(x) - f(y))``.  A function is *harmonic* on
the interior if ``(L f)(x) = 0`` there; given boundary data the harmonic
extension exists and is unique because the interior block of the
Laplacian of a tree with boundary is a nonsingular M-matrix.  The normal
derivative at a boundary vertex ``x`` is
``sum_{y ~ x, y interior} (f(x) - f(y))``, which on a tree with
``n >= 3`` coincides with ``(L f)(x)`` since boundary vertices have no
boundary neighbors.

The solver eliminates interior vertices leaf-first along the interior
subtree (Jacobs and Trevisan's no-fill-in elimination of a tree).  Each
elimination touches one parent, all pivots stay positive (the interior
block is diagonally dominant with at least one strict row per pendant
subtree), so the solve is exact Gaussian elimination in a perfect order:
O(n), no fill-in, no iteration.  The order is the one leaf-first
elimination of :mod:`.graph_core`, which runs here on the interior and
in :mod:`.spectra` on the whole tree.  It is found once and then
replayed level by level: all vertices of one height are eliminated in
one numpy step across every right-hand side.  The Laplacian sums
neighbors by one numpy step per neighbor rank.  Both do the
one-at-a-time arithmetic in its order, so their floats are bit-identical
to it.

Trees are solved in batches.  A batch numbers its trees' vertices one
tree after another, runs one elimination over all their interiors (each
tree's peel order merged with the others' by height) and one Laplacian
schedule over all their edges, so a level's step covers that height in
every tree.  :func:`dtn_matrices` assembles the response matrices of a
batch at once, with the identity right-hand sides padded to the widest
boundary, and :func:`.spectra.spectra_from_matrices` extends their
eigenvectors through the same batch.  Each row sees the scalar
operations of its own tree, in their order, on each column, so every
tree's floats are, bit for bit, those it gets alone; :func:`dtn_matrix`,
:func:`harmonic_extension` and :func:`laplacian_apply_matrix` are the
batch of one.  A batch's schedules are built once and kept while its
first tree lives.  The caller bounds the size of a batch: the ``verify``
harness caps its vertex count times its widest boundary at
``verify.BATCH_ENTRIES``.
"""
from __future__ import annotations

import weakref
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import DimensionMismatchError, HarmonicResidualError, InvariantViolationError
from .graph_core import BoundaryTree, _eliminate


@dataclass(frozen=True, eq=False)
class VertexFunction:
    """A real-valued function on all vertices of a tree."""

    tree: BoundaryTree
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.tree.n,):
            raise InvariantViolationError(
                f"expected {self.tree.n} values, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise InvariantViolationError("non-finite value in vertex function")
        object.__setattr__(self, "values", vals)

    def boundary_values(self) -> np.ndarray:
        return self.values[self.tree._boundary_ids]  # ascending ids


@dataclass(frozen=True, eq=False)
class BoundaryFunction:
    """A real-valued function on the boundary, ordered by ascending vertex id."""

    tree: BoundaryTree
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.tree.n_boundary,):
            raise InvariantViolationError(
                f"expected {self.tree.n_boundary} values, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise InvariantViolationError("non-finite value in boundary function")
        object.__setattr__(self, "values", vals)


def laplacian_apply(f: VertexFunction) -> VertexFunction:
    """Apply the graph Laplacian: ``(L f)(x) = deg(x) f(x) - sum_{y~x} f(y)``."""
    return VertexFunction(f.tree, laplacian_apply_matrix(f.tree, f.values))


def normal_derivative(f: VertexFunction) -> BoundaryFunction:
    """Normal derivative on the boundary.

    Equals the Laplacian restricted to boundary vertices: a boundary
    vertex has degree one and its single neighbor is interior.
    """
    lap = laplacian_apply(f)
    return BoundaryFunction(f.tree, lap.values[f.tree._boundary_ids])


# a set of rows: a slice where consecutive, so that indexing makes no copy
_Rows = slice | np.ndarray


@dataclass(frozen=True, eq=False)
class _OrderedAdds:
    """``out[dst[i]] += blk[src[i]]`` for ``i = 0, 1, ...`` in a few numpy steps.

    Each target receives its terms one at a time in the given order, so
    the sums are bit-identical to a scalar loop over ``i``.  A round adds
    one term to each of a set of distinct targets; a run adds all the
    terms of one target by a single ``np.add.accumulate``, which is
    sequential.
    """

    rounds: tuple[tuple[_Rows, _Rows], ...]
    runs: tuple[tuple[int, _Rows], ...]

    def __call__(self, out: np.ndarray, blk: np.ndarray) -> None:
        for tgt, rows in self.rounds:
            out[tgt] += blk[rows]
        for tgt, rows in self.runs:
            acc = np.concatenate((out[tgt:tgt + 1], blk[rows]))
            np.add.accumulate(acc, axis=0, out=acc)
            out[tgt] = acc[-1]


def _as_index(ids: list[int]) -> _Rows:
    """Row ids as a slice when they are consecutive and ascending (no gather)."""
    if ids == list(range(ids[0], ids[0] + len(ids))):
        return slice(ids[0], ids[0] + len(ids))
    return np.array(ids, dtype=np.int64)


def _ordered_adds(dst: np.ndarray, src: np.ndarray) -> _OrderedAdds:
    """Schedule ``out[dst[i]] += blk[src[i]]`` in order, in the fewest steps.

    Round ``j`` adds the ``j``-th term of every target; a target with
    more terms than there are rounds gets a run of its own instead.  The
    number of rounds minimizes the steps, counting a run as two (it
    copies its target's terms once more), so a star is one run, not one
    round per leaf.
    """
    by_dst = np.argsort(dst, kind="stable")
    d = dst[by_dst]
    new = np.ones(len(d), dtype=bool)
    np.not_equal(d[1:], d[:-1], out=new[1:])
    rank = np.empty(len(d), dtype=np.int64)  # earlier terms of the same target
    rank[by_dst] = np.arange(len(d)) - np.flatnonzero(new)[np.cumsum(new) - 1]
    sizes = np.bincount(dst)
    # longer[r]: targets with more than r terms
    longer = np.append(np.cumsum(np.bincount(sizes)[:0:-1])[::-1], 0)
    n_rounds = int(np.argmin(np.arange(len(longer)) + 2 * longer))
    in_run = sizes[dst] > n_rounds
    # by round, then by target, so that a round's targets ascend
    light = np.flatnonzero(~in_run)
    light = light[np.lexsort((dst[light], rank[light]))]
    stops = np.cumsum(np.bincount(rank[light], minlength=n_rounds)).tolist()
    rounds = tuple((_as_index(dst[light[a:b]].tolist()), src[light[a:b]])
                   for a, b in zip([0, *stops], stops))
    runs = []
    if in_run.any():
        heavy = by_dst[in_run[by_dst]]  # by target, each target's terms in order
        targets = np.flatnonzero(sizes > n_rounds)
        stops = np.cumsum(sizes[targets]).tolist()
        runs = [(tgt, _as_index(src[heavy[a:b]].tolist()))
                for tgt, a, b in zip(targets.tolist(), [0, *stops], stops)]
    return _OrderedAdds(rounds, tuple(runs))


# one level of the elimination: the slots [start, stop) of its vertices
# and the rounds (parent slots, child slots) that add the rows of those
# that are not roots into their parents' rows, one round per rank among
# siblings (a single round when the parents are distinct); slot sets are
# slices where consecutive
_Level = tuple[int, int, tuple[tuple[_Rows, _Rows], ...]]


@dataclass(frozen=True, eq=False)
class _InteriorSolver:
    """Elimination schedule of the interior blocks; reusable across right-hand sides.

    ``vertices[s]`` is the interior vertex in slot ``s`` of the
    elimination, ``inv_piv[s, 0]`` the reciprocal of its positive pivot.
    ``back`` lists, for the back substitution, each level's non-root
    slots ``[start, stop)`` with their parents' slots, top level first.
    ``rhs`` adds each boundary vertex's data into the slot of its unique
    interior neighbour, in boundary order, which is how Dirichlet data
    enters the right-hand side.
    """

    vertices: np.ndarray
    inv_piv: np.ndarray
    levels: tuple[_Level, ...]
    back: tuple[tuple[int, int, _Rows], ...]
    rhs: _OrderedAdds


@dataclass(frozen=True, eq=False)
class _Batch:
    """Trees side by side, with the schedules of their interior solve and Laplacian.

    Vertex ``v`` of the ``i``-th tree is ``vertex_stops[i] + v``, and its
    boundary takes the rows ``[row_stops[i], row_stops[i + 1])`` of the
    batch's boundary data, in ascending vertex id.  ``boundary`` and
    ``interior`` list the vertices of each kind, tree by tree;
    ``interior_starts`` is where each tree's interior begins in the
    latter.  Holds no reference to its trees.
    """

    vertex_stops: list[int]
    row_stops: list[int]
    boundary: np.ndarray
    interior: np.ndarray
    interior_starts: np.ndarray
    degrees: np.ndarray
    solver: _InteriorSolver
    neighbor_adds: _OrderedAdds

    def stack(self, blocks: Iterable[np.ndarray]) -> np.ndarray:
        """Each tree's ``(m_i, k_i)`` boundary block in its rows, zero-padded to the widest."""
        blocks = list(blocks)
        if len(blocks) == 1:
            return blocks[0]
        g = np.zeros((len(self.boundary), max(b.shape[1] for b in blocks)))
        for b, lo, hi in zip(blocks, self.row_stops, self.row_stops[1:]):
            g[lo:hi, :b.shape[1]] = b
        return g


def _interior_solver(trees: Sequence[BoundaryTree], is_boundary: np.ndarray,
                     owner: np.ndarray, degrees: np.ndarray) -> _InteriorSolver:
    """The interiors' leaf-first elimination, with its pivots and rounds.

    ``owner`` is each boundary vertex's one neighbour, which is interior.
    Every vertex follows all its children, so one pass in slot order gives
    each its pivot and updates its parent's, in elimination order; each
    tree's pivots are those of its own elimination.
    """
    order, parents, peel_levels = _eliminate(
        trees, is_boundary, degrees - np.bincount(owner, minlength=len(degrees)))
    sink = len(order)
    piv = [*degrees[order].astype(np.float64).tolist(), 0.0]  # and the sink
    inv_piv = []
    for s, p in enumerate(parents.tolist()):
        if not piv[s] > 0.0:
            raise InvariantViolationError(f"interior pivot {piv[s]} is not positive")
        inv_piv.append(1.0 / piv[s])
        piv[p] -= inv_piv[-1]
    levels, back = [], []
    for start, stop, ps, _ in peel_levels:
        ps = ps.tolist()
        inner = stop - ps.count(sink)  # roots come last, and add into no row
        ps = ps[:inner - start]
        if not ps:
            levels.append((start, stop, ()))
            continue
        idx = _as_index(ps)
        if len(set(ps)) == len(ps):
            rounds = ((idx, slice(start, inner)),)
        else:
            # round j adds each parent's j-th child on this level, in slot order
            rank: dict[int, int] = {}
            by_round: dict[int, list[tuple[int, int]]] = {}
            for s, p in enumerate(ps, start):
                j = rank[p] = rank.get(p, -1) + 1
                by_round.setdefault(j, []).append((p, s))
            rounds = tuple(tuple(map(np.array, zip(*pairs))) for pairs in by_round.values())
        levels.append((start, stop, rounds))
        back.append((start, inner, idx))
    slot = np.empty(len(degrees), dtype=np.int64)
    slot[order] = np.arange(len(order))
    return _InteriorSolver(
        vertices=order,
        inv_piv=np.array(inv_piv)[:, None],
        levels=tuple(levels),
        back=tuple(reversed(back)),
        rhs=_ordered_adds(slot[owner], np.arange(len(owner))),
    )


def _build_batch(trees: Sequence[BoundaryTree]) -> _Batch:
    """Number ``trees`` one after another and schedule their solve and Laplacian."""
    vertex_stops = [0, *np.cumsum([t.n for t in trees]).tolist()]
    row_stops = [0, *np.cumsum([t.n_boundary for t in trees]).tolist()]
    is_boundary = np.concatenate([t.boundary_pos >= 0 for t in trees])
    degrees = np.concatenate([t.degrees for t in trees])
    # each boundary vertex's one neighbour, which is interior
    owner = np.array([t.neighbors[v][0] + off for t, off in zip(trees, vertex_stops)
                      for v in t.boundary], dtype=np.int64)
    solver = _interior_solver(trees, is_boundary, owner, degrees)
    shift = np.repeat(vertex_stops[:-1], [len(t.edge_u) for t in trees])
    eu = np.concatenate([t.edge_u for t in trees]) + shift
    ev = np.concatenate([t.edge_v for t in trees]) + shift
    interior = np.flatnonzero(~is_boundary)
    return _Batch(
        vertex_stops=vertex_stops,
        row_stops=row_stops,
        boundary=np.flatnonzero(is_boundary),
        interior=interior,
        interior_starts=np.searchsorted(interior, vertex_stops[:-1]),
        degrees=degrees,
        solver=solver,
        # each vertex takes its neighbours above it, then those below it,
        # each ascending: the order of one scatter-add over the sorted edge
        # list from the ``edge_u`` ends, then one from the ``edge_v`` ends
        neighbor_adds=_ordered_adds(np.concatenate((eu, ev)), np.concatenate((ev, eu))),
    )


# the last batch built with each tree first in it: weak references to its
# trees, and the batch
_BATCHES: weakref.WeakKeyDictionary[
    BoundaryTree, tuple[tuple[weakref.ref, ...], _Batch]] = weakref.WeakKeyDictionary()


def _batch(trees: Sequence[BoundaryTree]) -> _Batch:
    """The batch of ``trees``, in order, kept for as long as its first tree lives.

    So the batch of one tree is cached per tree, and the batch that
    assembled some response matrices is found again to extend their
    eigenvectors.
    """
    kept = _BATCHES.get(trees[0])
    if kept is not None and len(kept[0]) == len(trees) and all(
            ref() is t for ref, t in zip(kept[0], trees)):
        return kept[1]
    b = _build_batch(trees)
    _BATCHES[trees[0]] = tuple(map(weakref.ref, trees)), b
    return b


def _extend(b: _Batch, g: np.ndarray) -> np.ndarray:
    """Harmonic extension of boundary data, vectorized over columns and trees.

    ``g`` has one row per boundary vertex of the batch and one column per
    right-hand side; returns one row per vertex.  Works on one row per
    interior slot, one numpy step per level: the rows hold the right-hand
    side, then the forward-eliminated values, then the solution, which is
    scattered back to vertex order.  Every entry is the same float, bit
    for bit, as eliminating one vertex of one tree at a time: each step
    does a row's scalar operations, in their order, on each column.
    """
    sol = b.solver
    w = np.zeros((len(sol.vertices), g.shape[1]))
    sol.rhs(w, g)
    for start, stop, rounds in sol.levels:
        blk = w[start:stop]
        blk *= sol.inv_piv[start:stop]
        for parents, children in rounds:
            w[parents] += w[children]
    for start, stop, parents in sol.back:
        w[start:stop] += sol.inv_piv[start:stop] * w[parents]
    out = np.empty((b.vertex_stops[-1], g.shape[1]))
    out[sol.vertices] = w
    out[b.boundary] = g
    return out


def _laplacian(b: _Batch, vals: np.ndarray) -> np.ndarray:
    """Laplacian of an ``(n,)`` vector, or of each column of an ``(n, k)`` array."""
    nbr_sum = np.zeros_like(vals)
    b.neighbor_adds(nbr_sum, vals)
    out = b.degrees.reshape((-1,) + (1,) * (vals.ndim - 1)) * vals
    out -= nbr_sum
    return out


def harmonic_extension(
    t: BoundaryTree,
    g: BoundaryFunction | np.ndarray,
    tol: Tolerances = DEFAULT_TOL,
) -> VertexFunction:
    """The unique function agreeing with ``g`` on the boundary and harmonic inside.

    The interior residual is re-checked after the solve against
    ``tol.residual * (1 + max|g|)``; failure signals a solver bug, not a
    property of the input, and raises :class:`HarmonicResidualError`.
    A :class:`BoundaryFunction` on another tree, or an array whose shape
    is not ``(|boundary|,)``, raises :class:`DimensionMismatchError`.
    """
    if isinstance(g, BoundaryFunction):
        if g.tree is not t:
            raise DimensionMismatchError("boundary function on a different tree")
        gv = g.values
    else:
        gv = np.asarray(g, dtype=np.float64)
        if gv.shape != (t.n_boundary,):
            raise DimensionMismatchError(
                f"boundary data must have length {t.n_boundary}, got shape {gv.shape}")
    out = _extend(_batch((t,)), gv.reshape(-1, 1))[:, 0]
    f = VertexFunction(t, out)
    res = laplacian_apply(f).values[np.array(t.interior, dtype=np.int64)]
    limit = tol.residual * (1.0 + float(np.abs(gv).max(initial=0.0)))
    worst = float(np.abs(res).max(initial=0.0))
    if not worst <= limit:  # a NaN residual fails too
        raise HarmonicResidualError(
            f"interior residual {worst:.3e} exceeds {limit:.3e}")
    return f


@dataclass(frozen=True, eq=False)
class DtnMatrix:
    """Boundary response matrix: boundary data -> normal derivative.

    Row/column ``i`` corresponds to ``tree.boundary[i]``.  The matrix is
    symmetric, has zero row sums (constants are harmonic with zero flux),
    and is positive semidefinite with spectrum in [0, 1]; symmetry and
    row sums are verified at assembly, the spectral facts where spectra
    are computed.
    """

    tree: BoundaryTree
    entries: np.ndarray

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def validate(self, tol: Tolerances = DEFAULT_TOL) -> None:
        m = self.entries
        scale = 1.0 + float(np.abs(m).max(initial=0.0))
        asym = float(np.abs(m - m.T).max(initial=0.0))
        # written so that a NaN fails: every comparison with NaN is false
        if not asym <= tol.symmetry * scale:
            raise InvariantViolationError(f"response matrix asymmetry {asym:.3e}")
        rows = float(np.abs(m.sum(axis=1)).max(initial=0.0))
        if not rows <= tol.symmetry * scale:
            raise InvariantViolationError(f"response matrix row sums {rows:.3e}")


def dtn_matrices(trees: Sequence[BoundaryTree],
                 tol: Tolerances = DEFAULT_TOL) -> list[DtnMatrix]:
    """Assemble the boundary response matrix of each tree, as one batch.

    Column ``j`` of a tree's matrix is the normal derivative of the
    harmonic extension of its ``j``-th boundary indicator.  The trees sit
    side by side: one leaf-first elimination of all their interiors
    solves every tree's identity right-hand side at once, padded to the
    largest boundary, one numpy step per level, and the Laplacian of all
    of them is one more pass.  Each tree's matrix is its own boundary rows
    and first ``m`` columns, and equals, bit for bit, the one assembled
    alone.  Each matrix's interior residual is checked and it is
    validated; the first tree to fail raises, so a caller that must know
    which tree failed reruns the trees one at a time.
    """
    trees = tuple(trees)
    if not trees:
        return []
    b = _batch(trees)
    lap = _laplacian(b, _extend(b, b.stack(np.eye(t.n_boundary) for t in trees)))
    inner = lap[b.interior]
    worst = np.maximum.reduceat(np.abs(inner, out=inner).max(axis=1), b.interior_starts)
    del inner
    rows = lap[b.boundary]
    mats = []
    for t, res, lo, hi in zip(trees, worst.tolist(), b.row_stops, b.row_stops[1:]):
        if not res <= tol.residual:
            raise HarmonicResidualError(f"interior residual {res:.3e} in response assembly")
        mat = DtnMatrix(t, np.ascontiguousarray(rows[lo:hi, :hi - lo]))
        mat.validate(tol)
        mats.append(mat)
    return mats


def dtn_matrix(t: BoundaryTree, tol: Tolerances = DEFAULT_TOL) -> DtnMatrix:
    """Assemble the boundary response matrix of one tree: the batch of one."""
    return dtn_matrices((t,), tol)[0]


def laplacian_apply_matrix(t: BoundaryTree, vals: np.ndarray) -> np.ndarray:
    """Laplacian of an ``(n,)`` vector, or of each column of an ``(n, k)`` array."""
    return _laplacian(_batch((t,)), vals)
