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

The solver eliminates interior vertices from the leaves of the interior
subtree toward its centre (Jacobs and Trevisan's no-fill-in elimination
of a tree).  Each elimination touches one parent, all pivots stay
positive (the interior block is diagonally dominant with at least one
strict row per pendant subtree), so the solve is exact Gaussian
elimination in a perfect order: O(n), no fill-in, no iteration.  The
order is the layers of :func:`.graph_core._centre_layers`, deepest
first, the schedule :mod:`.spectra` counts along on the whole tree.  It
is found once and then replayed level by level: a layer is eliminated
across every right-hand side by a scaling and one ordered scatter-add
(``np.add.at``, which adds each entry's terms one at a time in index
order) of its rows into its parents' rows.  The Laplacian sums
neighbours by two such scatter-adds over the edge list.  Both do the
one-at-a-time arithmetic in its order, so their floats are bit-identical
to it.

Trees are solved in batches.  A batch numbers its trees' vertices one
tree after another, runs one elimination over all their interiors (their
layers aligned at the deepest) and one Laplacian over all their edges,
so one step takes a layer of every tree.  :func:`dtn_matrices`
assembles the response matrices of a batch at once, with the identity
right-hand sides padded to the widest boundary, and
:func:`.spectra.spectra_from_matrices` extends their eigenvectors through
the same batch.  Each row sees the scalar operations of its own tree, in
their order, on each column, so every tree's floats are, bit for bit,
those it gets alone; :func:`dtn_matrix`, :func:`harmonic_extension` and
:func:`laplacian_apply_matrix` are the batch of one.  A batch's schedule
is built once and kept while its first tree lives.  The caller bounds a
batch's size: the ``verify`` harness caps its vertex count times its
widest boundary at ``verify.BATCH_ENTRIES``.
"""
from __future__ import annotations

import weakref
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import DimensionMismatchError, HarmonicResidualError, InvariantViolationError
from .graph_core import BoundaryTree, _centre_layers


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


def _add_rows(out: np.ndarray, dst: np.ndarray, blk: np.ndarray) -> None:
    """``out[dst[i]] += blk[i]`` for ``i = 0, 1, ...``, in that order.

    ``np.add.at`` adds the terms of each entry one at a time in index
    order, so every sum is bit-identical to the scalar loop over ``i``.
    It runs on the flattened rows of ``out``, which must be C-contiguous
    (allocate it with ``np.zeros(shape)``, not ``np.zeros_like``): the
    flattening of any other layout is a copy, which would take the sums
    and drop them.
    """
    if not out.flags.c_contiguous:
        raise ValueError("the rows to add into must be C-contiguous")
    k = out[:1].size
    idx = (dst[:, None] * k + np.arange(k)).reshape(-1)
    np.add.at(out.reshape(-1), idx, blk.reshape(-1))


@dataclass(frozen=True, eq=False)
class _InteriorSolver:
    """Elimination schedule of the interior blocks; reusable across right-hand sides.

    ``vertices[s]`` is the interior vertex in slot ``s`` of the
    elimination, ``inv_piv[s, 0]`` the reciprocal of its positive pivot.
    ``levels`` are the trees' layers from their centres, deepest first:
    level ``(start, stop, inner, parents)`` holds the slots
    ``[start, stop)``, of which the trees' centres, which have no parent,
    take ``[inner, stop)``; ``parents`` are the slots of the others'
    parents.  ``rhs`` is the slot of each boundary vertex's unique
    interior neighbour, in boundary order, into which its Dirichlet data
    enters the right-hand side.
    """

    vertices: np.ndarray
    inv_piv: np.ndarray
    levels: tuple[tuple[int, int, int, np.ndarray], ...]
    rhs: np.ndarray


@dataclass(frozen=True, eq=False)
class _Batch:
    """Trees side by side, with the schedule of their interior solve and their edges.

    Vertex ``v`` of the ``i``-th tree is ``vertex_stops[i] + v``, and its
    boundary takes the rows ``[row_stops[i], row_stops[i + 1])`` of the
    batch's boundary data, in ascending vertex id.  ``boundary`` and
    ``interior`` list the vertices of each kind, tree by tree;
    ``interior_starts`` is where each tree's interior begins in the
    latter.  ``edge_u`` and ``edge_v`` are the trees' sorted edge lists,
    one after another.  Holds no reference to its trees.
    """

    vertex_stops: list[int]
    row_stops: list[int]
    boundary: np.ndarray
    interior: np.ndarray
    interior_starts: np.ndarray
    degrees: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    solver: _InteriorSolver

    def stack(self, blocks: Iterable[np.ndarray]) -> np.ndarray:
        """Each tree's ``(m_i, k_i)`` boundary block in its rows, zero-padded to the widest."""
        blocks = list(blocks)
        if len(blocks) == 1:
            return blocks[0]
        g = np.zeros((len(self.boundary), max(b.shape[1] for b in blocks)))
        for b, lo, hi in zip(blocks, self.row_stops, self.row_stops[1:]):
            g[lo:hi, :b.shape[1]] = b
        return g


def _interior_solver(trees: Sequence[BoundaryTree], vertex_stops: list[int],
                     boundary: np.ndarray, degrees: np.ndarray) -> _InteriorSolver:
    """The interiors' elimination from each tree's centre, with its pivots.

    Each tree takes the layers of :func:`.graph_core._centre_layers`,
    deepest first, aligned at the bottom: level ``j`` of the batch holds
    every tree's ``j``-th layer, tree by tree, with the trees' centres
    last.  Every vertex's children lie on lower levels, so a level's
    pivots are final when it is reached, and subtracting their
    reciprocals from their parents' in slot order gives each tree the
    pivots of its own one-vertex-at-a-time elimination.
    """
    layers = [_centre_layers(t) for t in trees]
    sizes = [len(lay.order) for lay in layers]
    n_layers = [len(lay.stops) for lay in layers]
    ends = np.cumsum(sizes)
    verts = np.concatenate([lay.order + a for lay, a in zip(layers, vertex_stops)])
    parent = np.concatenate([lay.parent + a for lay, a in zip(layers, vertex_stops)])
    # each slot's layer within its tree, from the stops of all the layers
    stops = np.concatenate([lay.stops for lay in layers]) + np.repeat(ends - sizes, n_layers)
    layer = (np.searchsorted(stops, np.arange(ends[-1]), side="right")
             - np.repeat(np.cumsum(n_layers) - n_layers, sizes))
    # twice the layer, and one more at the centre: sorted stably, every
    # centre comes last in its level
    key = 2 * layer
    centres = ends - 1
    key[centres] += 1
    by_level = np.argsort(key, kind="stable")
    order = verts[by_level]
    sink = len(order)
    slot = np.full(vertex_stops[-1] + 1, sink, dtype=np.int64)
    slot[order] = np.arange(sink)
    parent[verts[centres]] = vertex_stops[-1]  # to the sink's slot
    parents = slot[parent[order]]
    level_stops = np.cumsum(np.bincount(layer)).tolist()
    inners = np.array(level_stops) - np.bincount(layer[centres], minlength=len(level_stops))
    levels = tuple((start, stop, inner, parents[start:inner]) for start, stop, inner in
                   zip([0, *level_stops], level_stops, inners.tolist()))
    piv = degrees[order].astype(np.float64)
    inv_piv = np.empty((sink, 1))
    for start, stop, inner, ps in levels:
        d = piv[start:stop]
        bad = np.flatnonzero(~(d > 0.0))  # a NaN pivot is bad too
        if len(bad):
            raise InvariantViolationError(f"interior pivot {float(d[bad[0]])} is not positive")
        np.divide(1.0, d, out=inv_piv[start:stop, 0])
        np.subtract.at(piv, ps, inv_piv[start:inner, 0])
    return _InteriorSolver(
        vertices=order,
        inv_piv=inv_piv,
        levels=levels,
        rhs=slot[parent[boundary]],
    )


def _build_batch(trees: Sequence[BoundaryTree]) -> _Batch:
    """Number ``trees`` one after another and schedule their interior solve."""
    vertex_stops = [0, *np.cumsum([t.n for t in trees]).tolist()]
    row_stops = [0, *np.cumsum([t.n_boundary for t in trees]).tolist()]
    is_boundary = np.concatenate([t.boundary_pos >= 0 for t in trees])
    degrees = np.concatenate([t.degrees for t in trees])
    boundary = np.flatnonzero(is_boundary)
    shift = np.repeat(vertex_stops[:-1], [len(t.edge_u) for t in trees])
    interior = np.flatnonzero(~is_boundary)
    return _Batch(
        vertex_stops=vertex_stops,
        row_stops=row_stops,
        boundary=boundary,
        interior=interior,
        interior_starts=np.searchsorted(interior, vertex_stops[:-1]),
        degrees=degrees,
        edge_u=np.concatenate([t.edge_u for t in trees]) + shift,
        edge_v=np.concatenate([t.edge_v for t in trees]) + shift,
        solver=_interior_solver(trees, vertex_stops, boundary, degrees),
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
    interior slot, a few numpy steps per level: the rows hold the
    right-hand side, then the forward-eliminated values, then the
    solution, which is scattered back to vertex order.  Every entry is
    the same float, bit for bit, as eliminating one vertex of one tree at
    a time: each step does a row's scalar operations, in their order, on
    each column.
    """
    sol = b.solver
    w = np.zeros((len(sol.vertices), g.shape[1]))
    _add_rows(w, sol.rhs, g)
    for start, stop, inner, parents in sol.levels:
        w[start:stop] *= sol.inv_piv[start:stop]
        _add_rows(w, parents, w[start:inner])
    for start, _, inner, parents in reversed(sol.levels):
        w[start:inner] += sol.inv_piv[start:inner] * w[parents]
    out = np.empty((b.vertex_stops[-1], g.shape[1]))
    out[sol.vertices] = w
    out[b.boundary] = g
    return out


def _laplacian(b: _Batch, vals: np.ndarray) -> np.ndarray:
    """Laplacian of an ``(n,)`` vector, or of each column of an ``(n, k)`` array.

    Each vertex sums its neighbours above it, then those below it, each
    ascending: one scatter-add over the sorted edge list into the
    ``edge_u`` ends, then one into the ``edge_v`` ends.
    """
    nbr_sum = np.zeros(vals.shape, vals.dtype)
    _add_rows(nbr_sum, b.edge_u, vals[b.edge_v])
    _add_rows(nbr_sum, b.edge_v, vals[b.edge_u])
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
    side by side: one elimination of all their interiors from the centres
    solves every tree's identity right-hand side at once, padded to the
    largest boundary, a few numpy steps per level, and the Laplacian of
    all of them is one more pass.  Each tree's matrix is its own boundary rows
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
