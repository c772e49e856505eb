"""Steklov spectra: LAPACK primary route, tree-pencil certifier, Rayleigh tools.

Two routes compute eigenvalues here, sharing no code so that each can
certify the other:

* :func:`eigendecompose_symmetric` -- LAPACK ``eigh`` on the dense
  boundary response matrix (the primary route; also yields eigenvectors);
* :func:`steklov_eigenvalue_bisect` -- the certifier: bisection on the
  inertia of the sparse pencil ``L - t B`` over the whole tree, where
  ``B`` is the boundary indicator.  Since the interior block of ``L`` is
  positive definite, Haynsworth's inertia additivity makes the negative
  pivot count of ``L - t B`` equal the number of Steklov eigenvalues
  below ``t``; a tree admits a perfect elimination order (Jacobs and
  Trevisan's diagonalization of a tree), so each count is O(n) with no
  fill-in and touches neither the dense matrix nor its assembly.  This
  route also scales to trees whose boundary is far too large for a
  dense matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import (
    BadIndexError,
    DimensionMismatchError,
    InvariantViolationError,
    NotOrthogonalError,
    NotSymmetricError,
    ZeroFunctionError,
)
from .graph_core import BoundaryTree, per_tree_cache
from .harmonic import (
    VertexFunction,
    _extend_columns,
    dtn_matrix,
    laplacian_apply_matrix,
)

# dense route above this boundary size would dominate runtime; bisect instead
DENSE_BOUNDARY_LIMIT = 220


def _require_symmetric(m: np.ndarray, tol: float) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {a.shape}")
    scale = 1.0 + float(np.abs(a).max(initial=0.0))
    dev = float(np.abs(a - a.T).max(initial=0.0))
    if dev > tol * scale:
        raise NotSymmetricError(f"asymmetry {dev:.3e} exceeds {tol:.1e}")
    return (a + a.T) / 2.0


def eigendecompose_symmetric(
    m: np.ndarray,
    *,
    sym_tol: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix (LAPACK ``eigh``).

    Returns ``(w, Q)`` with eigenvalues ascending and ``Q``'s columns the
    matching orthonormal eigenvectors, each signed so its largest-magnitude
    entry is positive.  :class:`NotSymmetricError` if ``m`` is not square
    or not symmetric within ``sym_tol`` relative to its largest entry.
    """
    w, q = np.linalg.eigh(_require_symmetric(m, sym_tol))
    lead = np.abs(q).argmax(axis=0)
    q[:, q[lead, np.arange(q.shape[1])] < 0.0] *= -1.0
    return w, q


def eigenvalue_oracle(m: np.ndarray, k: int) -> float:
    """The k-th smallest eigenvalue (1-based) of a symmetric matrix, by LAPACK.

    No longer an independent route and not called by the package: the
    dense spectrum is certified by :func:`steklov_eigenvalue_bisect`.
    The name stays because the benchmark's per-layer metrics
    (``spectra.eigenvalue_oracle.*`` in ``BENCHMARK.json``) refer to it.
    """
    w = np.linalg.eigvalsh(_require_symmetric(m, 1e-8))
    if not 1 <= k <= len(w):
        raise BadIndexError(f"index {k} outside 1..{len(w)}")
    return float(w[k - 1])


# -- sparse pencil bisection ------------------------------------------------------

@per_tree_cache
def _full_peel_order(t: BoundaryTree) -> tuple[np.ndarray, np.ndarray]:
    """Leaf-first elimination order of the whole tree with parents."""
    n = t.n
    rem = t.degrees.copy()
    parent = np.full(n, -1, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    order: list[int] = []
    from collections import deque

    dq = deque(v for v in range(n) if rem[v] <= 1)
    while dq:
        v = dq.popleft()
        if done[v]:
            continue
        done[v] = True
        order.append(v)
        p = -1
        for w in t.neighbors[v]:
            if not done[w]:
                p = w
                break
        if p >= 0:
            parent[v] = p
            rem[p] -= 1
            if rem[p] <= 1:
                dq.append(p)
    assert len(order) == n
    return np.array(order, dtype=np.int64), parent


def _steklov_count_below(t: BoundaryTree, shift: float) -> int:
    """Number of Steklov eigenvalues below ``shift``.

    Counts negative pivots of the tree-ordered factorization of
    ``L - shift * B``; the positive-definite interior block contributes
    none, so the count equals the inertia of the boundary response
    matrix shifted by ``shift``.
    """
    order, parent = _full_peel_order(t)
    deg = t.degrees
    is_b = t.boundary_pos >= 0
    diag = deg.astype(np.float64).copy()
    diag[is_b] -= shift
    neg = 0
    # scalar recurrence: clamping a vanished pivot perturbs one diagonal
    # entry by ~1e-280 and cannot overflow (no outer-product growth here,
    # unlike a dense triangular factorization)
    tiny = 1e-280
    dlist = diag  # local alias; loop below is the hot path
    for v in order:
        d = dlist[v]
        if abs(d) < tiny:
            d = -tiny
        if d < 0.0:
            neg += 1
        p = parent[v]
        if p >= 0:
            dlist[p] -= 1.0 / d
    return neg


def steklov_eigenvalue_bisect(
    t: BoundaryTree,
    k: int,
    *,
    abs_tol: float = 1e-12,
) -> float:
    """The k-th smallest Steklov eigenvalue straight from the tree.

    Inertia bisection on the pencil ``L - t B``; each inertia count is a
    single O(n) pass, so this handles trees whose boundary is far beyond
    dense reach.  The spectrum lies in [0, 1], which brackets the search.
    """
    m = t.n_boundary
    if not 1 <= k <= m:
        raise BadIndexError(f"index {k} outside 1..{m}")
    lo = -1e-9
    hi = 1.0 + 1e-9
    assert _steklov_count_below(t, lo) == 0
    while hi - lo > abs_tol:
        mid = 0.5 * (lo + hi)
        if _steklov_count_below(t, mid) >= k:
            hi = mid
        else:
            lo = mid
    return max(0.0, 0.5 * (lo + hi))


# -- spectra ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SteklovSpectrum:
    """Full Steklov spectrum of a tree.

    ``eigenvalues`` are ascending with multiplicity; column ``j`` of
    ``boundary_basis`` is the boundary eigenvector for
    ``eigenvalues[j]`` (ordered like ``tree.boundary``), and
    ``extensions[:, j]`` is its harmonic extension to all vertices.
    """

    tree: BoundaryTree
    eigenvalues: np.ndarray
    boundary_basis: np.ndarray
    extensions: np.ndarray

    @property
    def lambda2(self) -> float:
        return float(self.eigenvalues[1])

    def eigenvalue(self, k: int) -> float:
        """1-based: ``eigenvalue(1)`` is the trivial zero."""
        if not 1 <= k <= len(self.eigenvalues):
            raise BadIndexError(f"index {k} outside 1..{len(self.eigenvalues)}")
        return float(self.eigenvalues[k - 1])

    def eigenfunction(self, k: int) -> VertexFunction:
        if not 1 <= k <= len(self.eigenvalues):
            raise BadIndexError(f"index {k} outside 1..{len(self.eigenvalues)}")
        return VertexFunction(self.tree, self.extensions[:, k - 1].copy())


def _check_spectrum(
    t: BoundaryTree,
    w: np.ndarray,
    q: np.ndarray,
    ext: np.ndarray,
    tol: Tolerances,
) -> None:
    m = t.n_boundary
    if abs(float(w[0])) > tol.psd_slack:
        raise InvariantViolationError(f"lowest eigenvalue {w[0]:.3e} not ~0")
    if m >= 2 and float(w[1]) <= 0.0:
        raise InvariantViolationError("second eigenvalue must be positive")
    if float(w[-1]) > 1.0 + tol.psd_slack:
        raise InvariantViolationError(f"top eigenvalue {w[-1]} above 1")
    # eigen-equation residual: normal derivative == lambda * boundary values
    lap = laplacian_apply_matrix(t, ext)
    interior_res = float(np.abs(lap[np.array(t.interior)]).max(initial=0.0))
    # residuals formed in place: two (m, m) buffers bound the extra memory
    res = lap[np.array(t.boundary, dtype=np.int64), :]
    buf = np.multiply(q, w)
    res -= buf
    eig_res = float(np.abs(res, out=res).max(initial=0.0))
    if interior_res > tol.eigen_residual or eig_res > tol.eigen_residual:
        raise InvariantViolationError(
            f"eigenpair residuals {interior_res:.3e}/{eig_res:.3e} too large")
    # orthonormality of the boundary basis
    gram = np.matmul(q.T, q, out=buf)
    gram.flat[::m + 1] -= 1.0
    gram_dev = float(np.abs(gram, out=gram).max(initial=0.0))
    if gram_dev > tol.orthogonality:
        raise InvariantViolationError(f"eigenbasis orthonormality off by {gram_dev:.3e}")


def steklov_spectrum(t: BoundaryTree, tol: Tolerances = DEFAULT_TOL) -> SteklovSpectrum:
    """Assemble the boundary response matrix and diagonalize it (primary route).

    Validates the spectral invariants before returning: eigenvalues in
    ``[-psd_slack, 1 + psd_slack]``, a single ~0 bottom eigenvalue with a
    positive second one, eigenfunctions harmonic inside with normal
    derivative ``lambda * f`` on the boundary, and an orthonormal
    boundary basis.
    """
    mat = dtn_matrix(t, tol)
    w, q = eigendecompose_symmetric(mat.entries)
    ext = _extend_columns(t, q)
    _check_spectrum(t, w, q, ext, tol)
    return SteklovSpectrum(tree=t, eigenvalues=w, boundary_basis=q, extensions=ext)


def steklov_lambda(
    t: BoundaryTree,
    k: int,
    *,
    spectrum: SteklovSpectrum | None = None,
    method: str = "auto",
) -> float:
    """The k-th smallest Steklov eigenvalue via the cheapest sound route.

    ``method`` is one of ``auto`` (dense below DENSE_BOUNDARY_LIMIT,
    bisection above), ``dense``, or ``bisect``.
    """
    if spectrum is not None:
        return spectrum.eigenvalue(k)
    if method == "dense" or (method == "auto" and t.n_boundary <= DENSE_BOUNDARY_LIMIT):
        return steklov_spectrum(t).eigenvalue(k)
    if method in ("auto", "bisect"):
        return steklov_eigenvalue_bisect(t, k)
    raise ValueError(f"unknown method {method!r}")


# -- Rayleigh quotients and variational sampling ----------------------------------

def rayleigh_quotient(f: VertexFunction) -> float:
    """Edge energy over boundary mass.

    ``+inf`` when the boundary restriction vanishes but the function does
    not; :class:`ZeroFunctionError` for the zero function.  Constants
    return 0.
    """
    t = f.tree
    vals = f.values
    if not np.any(vals):
        raise ZeroFunctionError("Rayleigh quotient of the zero function")
    diffs = vals[t.edge_u] - vals[t.edge_v]
    num = float(diffs @ diffs)
    bvals = f.boundary_values()
    den = float(bvals @ bvals)
    if den == 0.0:
        return float("inf")
    return num / den


def _halton(index: int, base: int) -> float:
    out = 0.0
    frac = 1.0 / base
    i = index
    while i > 0:
        out += (i % base) * frac
        i //= base
        frac /= base
    return out


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
           67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131)


def _coefficient_samples(dim: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy directions in [-1, 1]^dim.

    Halton points (prime bases) mapped to the cube, with the coordinate
    directions prepended so single-function quotients are always probed.
    """
    if dim > len(_PRIMES):
        raise DimensionMismatchError(f"sampling supports up to {len(_PRIMES)} dims")
    rows = [np.eye(dim)[j] for j in range(dim)]
    i = 1
    while len(rows) < count:
        pt = np.array([_halton(i, _PRIMES[d]) for d in range(dim)])
        c = 2.0 * pt - 1.0
        if float(np.abs(c).max()) > 1e-6:
            rows.append(c)
        i += 1
    return np.array(rows[:count])


def variational_upper_check(
    t: BoundaryTree,
    trial_family: list[VertexFunction],
    k: int,
    *,
    samples: int = 256,
    tol: Tolerances = DEFAULT_TOL,
    spectrum: SteklovSpectrum | None = None,
) -> bool:
    """Check ``lambda_k <= max R(f)`` over a sampled span of the trial family.

    The family must contain ``k - 1`` functions, each boundary-sum-zero
    within ``tol.boundary_sum`` (:class:`NotOrthogonalError` otherwise),
    and must span ``k - 1`` dimensions (:class:`DimensionMismatchError`).
    Coefficients come from a fixed low-discrepancy grid, so the check is
    deterministic.
    """
    if len(trial_family) != k - 1:
        raise DimensionMismatchError(
            f"need {k - 1} trial functions for lambda_{k}, got {len(trial_family)}")
    vecs = []
    for f in trial_family:
        if f.tree is not t:
            raise DimensionMismatchError("trial function on a different tree")
        bsum = float(f.boundary_values().sum())
        scale = 1.0 + float(np.abs(f.values).max())
        if abs(bsum) > tol.boundary_sum * scale:
            raise NotOrthogonalError(f"boundary sum {bsum:.3e} not ~0")
        vecs.append(f.values)
    basis = np.array(vecs)  # (k-1, n)
    gram = basis @ basis.T
    gw, _ = eigendecompose_symmetric(gram)
    if float(gw[0]) <= 1e-12 * max(1.0, float(gw[-1])):
        raise DimensionMismatchError("trial family is numerically dependent")

    lam_k = steklov_lambda(t, k, spectrum=spectrum)
    worst = 0.0
    for c in _coefficient_samples(k - 1, samples):
        g = VertexFunction(t, c @ basis)
        worst = max(worst, rayleigh_quotient(g))
    return lam_k <= worst + tol.bound_slack
