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
elimination in a perfect order: O(n), no fill-in, no iteration.
:func:`_schedule` numbers the levels of :func:`.graph_core._centre_layers`
into slots, and :func:`_eliminate` is the one pivot recurrence along
them: swept from level 1 it gives the solve's pivots, and from level 0,
with the boundary's pivots ``1 - s``, :mod:`.spectra`'s pencil count.
The solve is then replayed level by level: a layer is eliminated
across every right-hand side by a scaling and one ordered scatter-add
(``np.add.at``, which adds each entry's terms one at a time in index
order) of its rows into its parents' rows.  The Laplacian sums
neighbours by two such scatter-adds over the edge list.  Both do the
one-at-a-time arithmetic in its order, so their floats are bit-identical
to it.

Trees are solved in batches.  A batch numbers its trees' vertices one
tree after another, runs one elimination over all of them (their
boundaries first, then their layers aligned at the top, so that every
centre is in the last level) and one Laplacian over all their edges, so
one step takes a layer of every tree.  :func:`dtn_matrices`
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
from typing import NamedTuple

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
    and drop them.  Pass ``blk`` as a copy, not as a view of ``out``:
    numpy meets the overlap by copying the whole of ``out`` on every
    call.  The sums are the same either way when, as in the
    elimination, ``dst`` lies outside the block's own rows.
    """
    if not out.flags.c_contiguous:
        raise ValueError("the rows to add into must be C-contiguous")
    k = out[:1].size
    idx = (dst[:, None] * k + np.arange(k)).reshape(-1)
    np.add.at(out.reshape(-1), idx, blk.reshape(-1))


# one level of an elimination: the slots [start, stop) of its vertices, the
# slots of their parents, and whether those parents are all distinct
_Level = tuple[int, int, np.ndarray, bool]


class _Schedule(NamedTuple):
    """The elimination of trees side by side: slots, and the levels that fill them.

    ``vertices[s]`` is the batch vertex in slot ``s`` and ``degrees[s]``
    its degree, as a float.  ``levels[0]`` is the boundary, and the last
    level holds the trees' centres, whose parent is the sink slot
    ``len(vertices)``: the last of ``degrees``, 0.
    """

    vertices: np.ndarray
    degrees: np.ndarray
    levels: tuple[_Level, ...]


def _schedule(trees: Sequence[BoundaryTree]) -> _Schedule:
    """The one elimination schedule of ``trees``, numbered one tree after another.

    Level 0 is the boundary, slots ``[0, m)``, tree by tree in ascending
    id.  The interior layers of :func:`.graph_core._centre_layers`
    follow, deepest first and aligned at the top, so the last level holds
    every centre, with the sink ``n`` as its parent.  A level lists its
    trees in turn, each layer in search order, so a vertex's interior
    children sit one level below it, in the order its tree alone meets
    them.  An interior level's parent slots never decrease (the search
    meets children in their parents' order), so they are distinct where
    they strictly increase: one ``reduceat`` flags every level but the
    boundary's, whose unsorted parents are counted.
    """
    layers = [_centre_layers(t) for t in trees]
    sizes = [t.n for t in trees]
    depths = [len(lay.sizes) for lay in layers]
    n = sum(sizes)
    shift = np.repeat(np.cumsum([0, *sizes[:-1]]), sizes)
    order = np.concatenate([lay.order for lay in layers]) + shift
    parent = np.concatenate([lay.parent for lay in layers]) + shift
    # each tree's levels in the batch: the boundary's 0, the others' at the top
    size = np.concatenate([lay.sizes for lay in layers])
    tops = np.cumsum(depths)
    level = np.arange(len(size)) + max(depths) - np.repeat(tops, depths)
    level[tops - depths] = 0
    vertices = order[np.argsort(np.repeat(level, size), kind="stable")]
    slot = np.empty(n + 1, dtype=np.int64)
    slot[vertices] = np.arange(n)
    slot[n] = n
    parents = slot[parent[vertices]]
    bounds = [0, *np.cumsum(np.bincount(level, size)).astype(np.int64).tolist()]
    # the centres', ``t.n`` in their own tree: the sink
    parents[bounds[-2]:] = n
    # a slot whose parent is the one before's, within its level
    repeat = np.append(False, parents[1:] == parents[:-1])
    repeat[bounds[:-1]] = False
    distinct = (~np.logical_or.reduceat(repeat, bounds[:-1])).tolist()
    distinct[0] = bool(np.bincount(parents[:bounds[1]]).max() == 1)
    degrees = np.append(np.concatenate([t.degrees for t in trees])[vertices], 0.0)
    return _Schedule(vertices, degrees, tuple(
        (lo, hi, parents[lo:hi], d) for lo, hi, d in zip(bounds, bounds[1:], distinct)))


def _eliminate(diag: np.ndarray, levels: Sequence[_Level], tiny: float) -> None:
    """The pivots of the elimination along ``levels``, in place in ``diag``.

    ``diag`` holds each slot's diagonal entry, then the sink's.  A slot's
    pivot is final when its level is reached; below ``tiny`` in magnitude
    it is clamped to ``-tiny`` (``tiny = 0`` clamps none), and its
    reciprocal is subtracted from its parent's.  ``np.subtract.at`` takes
    each parent's terms one at a time in slot order, bit for bit as one
    vertex at a time; where a level's parents are distinct, fancy
    indexing does the same arithmetic at a fraction of its cost.
    """
    for start, stop, parents, distinct in levels:
        d = diag[start:stop]
        if tiny:
            d[np.abs(d) < tiny] = -tiny
        if distinct:
            diag[parents] -= 1.0 / d
        else:
            np.subtract.at(diag, parents, 1.0 / d)


@dataclass(frozen=True, eq=False)
class _Batch:
    """Trees side by side, with the schedule of their elimination and their edges.

    Vertex ``v`` of the ``i``-th tree is ``vertex_stops[i] + v``, and its
    boundary, in ascending vertex id, takes the rows
    ``[row_stops[i], row_stops[i + 1])`` of the batch's boundary data and
    the same slots of its schedule.  ``boundary`` and ``interior`` list
    the vertices of each kind, tree by tree; ``interior_starts`` is where
    each tree's interior begins in the latter.  ``edge_u`` and ``edge_v``
    are the trees' sorted edge lists, one after another.  ``inv_piv`` is
    the column of the reciprocals of the interior solve's pivots, by
    slot.  Holds no reference to its trees.
    """

    vertex_stops: list[int]
    row_stops: list[int]
    boundary: np.ndarray
    interior: np.ndarray
    interior_starts: np.ndarray
    degrees: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    schedule: _Schedule
    inv_piv: np.ndarray

    def stack(self, blocks: Iterable[np.ndarray]) -> np.ndarray:
        """Each tree's ``(m_i, k_i)`` boundary block in its rows, zero-padded to the widest."""
        blocks = list(blocks)
        if len(blocks) == 1:
            return blocks[0]
        g = np.zeros((len(self.boundary), max(b.shape[1] for b in blocks)))
        for b, lo, hi in zip(blocks, self.row_stops, self.row_stops[1:]):
            g[lo:hi, :b.shape[1]] = b
        return g


def _build_batch(trees: Sequence[BoundaryTree]) -> _Batch:
    """Number ``trees`` one after another and schedule their interior solve.

    Its pivots are the schedule swept from level 1.  The first
    non-positive one in slot order is the first its tree alone meets,
    with the same value: it depends only on the slots before it.
    """
    vertex_stops = [0, *np.cumsum([t.n for t in trees]).tolist()]
    row_stops = [0, *np.cumsum([t.n_boundary for t in trees]).tolist()]
    degrees = np.concatenate([t.degrees for t in trees])
    shift = np.repeat(vertex_stops[:-1], [len(t.edge_u) for t in trees])
    interior = np.flatnonzero(np.concatenate([t.boundary_pos < 0 for t in trees]))
    schedule = _schedule(trees)
    n, m = vertex_stops[-1], row_stops[-1]
    diag = schedule.degrees.copy()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _eliminate(diag, schedule.levels[1:], 0.0)
    bad = np.flatnonzero(~(diag[m:n] > 0.0))  # a NaN pivot is bad too
    if len(bad):
        raise InvariantViolationError(f"interior pivot {float(diag[m + bad[0]])} is not positive")
    return _Batch(
        vertex_stops=vertex_stops,
        row_stops=row_stops,
        boundary=schedule.vertices[:m],
        interior=interior,
        interior_starts=np.searchsorted(interior, vertex_stops[:-1]),
        degrees=degrees,
        edge_u=np.concatenate([t.edge_u for t in trees]) + shift,
        edge_v=np.concatenate([t.edge_v for t in trees]) + shift,
        schedule=schedule,
        inv_piv=(1.0 / diag[:n])[:, None],
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
    slot, a few numpy steps per level: the boundary's rows hold ``g``,
    which level 0 adds into its parents' rows; the interior's hold the
    right-hand side, then the forward-eliminated values, then the
    solution (the centres' as soon as they are scaled), and all are
    scattered back to vertex order.  Every entry is the same float, bit
    for bit, as eliminating one vertex of one tree at a time: each step
    does a row's scalar operations, in their order, on each column.
    """
    s = b.schedule
    inv = b.inv_piv
    (_, m, parents, _), *levels, (lo, hi, _, _) = s.levels
    w = np.zeros((len(s.vertices), g.shape[1]))
    w[:m] = g
    _add_rows(w, parents, g)
    for start, stop, parents, _ in levels:
        w[start:stop] *= inv[start:stop]
        _add_rows(w, parents, w[start:stop].copy())
    w[lo:hi] *= inv[lo:hi]  # the centres
    for start, stop, parents, _ in reversed(levels):
        w[start:stop] += inv[start:stop] * w[parents]
    out = np.empty_like(w)
    out[s.vertices] = w
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
