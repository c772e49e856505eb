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
subtree.  Each elimination touches one parent, all pivots stay positive
(the interior block is diagonally dominant with at least one strict row
per pendant subtree), so the solve is exact Gaussian elimination in a
perfect order: O(n), no fill-in, no iteration.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import HarmonicResidualError, InvariantViolationError
from .graph_core import BoundaryTree, per_tree_cache


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
        return self.values[np.array(self.tree.boundary, dtype=np.int64)]


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
    t = f.tree
    vals = f.values
    nbr_sum = np.zeros(t.n)
    np.add.at(nbr_sum, t.edge_u, vals[t.edge_v])
    np.add.at(nbr_sum, t.edge_v, vals[t.edge_u])
    return VertexFunction(t, t.degrees * vals - nbr_sum)


def normal_derivative(f: VertexFunction) -> BoundaryFunction:
    """Normal derivative on the boundary.

    Equals the Laplacian restricted to boundary vertices: a boundary
    vertex has degree one and its single neighbor is interior.
    """
    lap = laplacian_apply(f)
    return BoundaryFunction(f.tree, lap.values[np.array(f.tree.boundary)])


@dataclass(frozen=True, eq=False)
class _InteriorSolver:
    """Elimination data for the interior block; reusable across right-hand sides.

    ``order`` eliminates interior vertices leaf-first along the interior
    subtree; ``parent[v]`` is the one un-eliminated interior neighbor at
    the time ``v`` is eliminated (-1 for the last vertex), and
    ``inv_piv[v]`` is the reciprocal of the positive pivot.
    ``boundary_owner`` maps each boundary vertex to its unique interior
    neighbor, which is how Dirichlet data enters the right-hand side.
    """

    order: np.ndarray
    parent: np.ndarray
    inv_piv: np.ndarray
    boundary_owner: np.ndarray


@per_tree_cache
def _interior_solver(t: BoundaryTree) -> _InteriorSolver:
    n = t.n
    interior = t.degrees > 1
    # count of interior neighbors, interior vertices only
    rem = np.zeros(n, dtype=np.int64)
    for v in t.interior:
        rem[v] = sum(1 for w in t.neighbors[v] if interior[w])

    piv = t.degrees.astype(np.float64).copy()
    parent = np.full(n, -1, dtype=np.int64)
    inv_piv = np.zeros(n)
    eliminated = np.zeros(n, dtype=bool)
    order: list[int] = []
    dq = deque(v for v in t.interior if rem[v] <= 1)
    while dq:
        v = dq.popleft()
        if eliminated[v]:
            continue
        eliminated[v] = True
        order.append(v)
        assert piv[v] > 0.0, "interior pivot must stay positive"
        inv_piv[v] = 1.0 / piv[v]
        p = -1
        for w in t.neighbors[v]:
            if interior[w] and not eliminated[w]:
                p = w
                break
        if p >= 0:
            parent[v] = p
            piv[p] -= inv_piv[v]
            rem[p] -= 1
            if rem[p] <= 1:
                dq.append(p)
    assert len(order) == len(t.interior), "interior elimination must be complete"

    boundary_owner = np.array(
        [t.neighbors[b][0] for b in t.boundary], dtype=np.int64)
    return _InteriorSolver(
        order=np.array(order, dtype=np.int64),
        parent=parent,
        inv_piv=inv_piv,
        boundary_owner=boundary_owner,
    )


def _extend_columns(t: BoundaryTree, g: np.ndarray) -> np.ndarray:
    """Harmonic extension of boundary data, vectorized over columns.

    ``g`` has shape ``(m, k)`` with one column per right-hand side;
    returns ``(n, k)``.  Interior rows of the one output array hold the
    right-hand side, then the forward-eliminated values, then the
    solution.
    """
    sol = _interior_solver(t)
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


def harmonic_extension(
    t: BoundaryTree,
    g: BoundaryFunction | np.ndarray,
    tol: Tolerances = DEFAULT_TOL,
) -> VertexFunction:
    """The unique function agreeing with ``g`` on the boundary and harmonic inside.

    The interior residual is re-checked after the solve against
    ``tol.residual * (1 + max|g|)``; failure signals a solver bug, not a
    property of the input, and raises :class:`HarmonicResidualError`.
    """
    if isinstance(g, BoundaryFunction):
        gv = g.values
    else:
        gv = np.asarray(g, dtype=np.float64)
        if gv.shape != (t.n_boundary,):
            raise InvariantViolationError(
                f"boundary data must have length {t.n_boundary}")
    out = _extend_columns(t, gv.reshape(-1, 1))[:, 0]
    f = VertexFunction(t, out)
    res = laplacian_apply(f).values[np.array(t.interior, dtype=np.int64)]
    limit = tol.residual * (1.0 + float(np.abs(gv).max(initial=0.0)))
    worst = float(np.abs(res).max(initial=0.0))
    if worst > limit:
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

    def apply(self, g: np.ndarray) -> np.ndarray:
        return self.entries @ g

    def validate(self, tol: Tolerances = DEFAULT_TOL) -> None:
        m = self.entries
        scale = 1.0 + float(np.abs(m).max(initial=0.0))
        asym = float(np.abs(m - m.T).max(initial=0.0))
        if asym > tol.symmetry * scale:
            raise InvariantViolationError(f"response matrix asymmetry {asym:.3e}")
        rows = float(np.abs(m.sum(axis=1)).max(initial=0.0))
        if rows > tol.symmetry * scale:
            raise InvariantViolationError(f"response matrix row sums {rows:.3e}")


def dtn_matrix(t: BoundaryTree, tol: Tolerances = DEFAULT_TOL) -> DtnMatrix:
    """Assemble the boundary response matrix column by column.

    Column ``j`` is the normal derivative of the harmonic extension of
    the ``j``-th boundary indicator; all extensions are solved in one
    vectorized elimination pass.
    """
    m = t.n_boundary
    ext = _extend_columns(t, np.eye(m))
    bidx = np.array(t.boundary, dtype=np.int64)
    res = laplacian_apply_matrix(t, ext)
    interior_res = float(np.abs(res[np.array(t.interior)]).max(initial=0.0))
    if interior_res > tol.residual:
        raise HarmonicResidualError(
            f"interior residual {interior_res:.3e} in response assembly")
    mat = DtnMatrix(t, res[bidx, :])
    mat.validate(tol)
    return mat


def laplacian_apply_matrix(t: BoundaryTree, vals: np.ndarray) -> np.ndarray:
    """Laplacian applied to each column of an ``(n, k)`` array."""
    nbr_sum = np.zeros_like(vals)
    np.add.at(nbr_sum, t.edge_u, vals[t.edge_v])
    np.add.at(nbr_sum, t.edge_v, vals[t.edge_u])
    return t.degrees[:, None] * vals - nbr_sum
