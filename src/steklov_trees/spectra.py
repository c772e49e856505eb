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
  Trevisan's diagonalization of a tree), so each count has no fill-in
  and touches neither the dense matrix nor its assembly.  This route
  also scales to trees whose boundary is far too large for a dense
  matrix.

Each count is one leaf-to-root sweep over the levels of the leaf-first
elimination of :mod:`.graph_core`, which runs here on the whole tree
and in :mod:`.harmonic` on the interior: O(n) work in O(height) numpy
steps.  Bushy trees have a few dozen levels even at n = 8000; path-like
trees, with about n/2 levels, are the slow case.  The sweep does the scalar elimination's
arithmetic in the scalar order, so counts are bit-identical to it.
Counts are memoized per tree on their shift, the bisection's only memo:
a repeated bisection walks its memoized probes again to the same float.

The Rayleigh tools check a trial family against ``lambda_k`` by the
min-max principle: :func:`variational_upper_check` takes the exact
maximum of the Rayleigh quotient over the family's span, the top
eigenvalue of a ``(k-1) x (k-1)`` pencil, rather than a sample of it.
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
from .graph_core import BoundaryTree, _eliminate, _Level, per_tree_cache
from .harmonic import (
    DtnMatrix,
    VertexFunction,
    _extend_columns,
    dtn_matrix,
    laplacian_apply_matrix,
)

# dense route above this boundary size would dominate runtime; bisect instead
DENSE_BOUNDARY_LIMIT = 220
# largest asymmetry a dense eigensolve accepts, relative to the largest entry
_SYM_TOL = 1e-8


def _require_symmetric(m: np.ndarray, tol: float) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {a.shape}")
    scale = 1.0 + float(np.abs(a).max(initial=0.0))
    dev = float(np.abs(a - a.T).max(initial=0.0))
    if dev > tol * scale:
        raise NotSymmetricError(f"asymmetry {dev:.3e} exceeds {tol:.1e}")
    return (a + a.T) / 2.0


def eigendecompose_symmetric(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix (LAPACK ``eigh``).

    Returns ``(w, Q)`` with eigenvalues ascending and ``Q``'s columns the
    matching orthonormal eigenvectors, each signed so its largest-magnitude
    entry is positive.  :class:`NotSymmetricError` if ``m`` is not square
    or not symmetric within ``_SYM_TOL`` relative to its largest entry.
    """
    w, q = np.linalg.eigh(_require_symmetric(m, _SYM_TOL))
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
    w = np.linalg.eigvalsh(_require_symmetric(m, _SYM_TOL))
    if not 1 <= k <= len(w):
        raise BadIndexError(f"index {k} outside 1..{len(w)}")
    return float(w[k - 1])


# -- sparse pencil bisection ------------------------------------------------------

# a pivot this small counts as vanished and is clamped to -_TINY: that
# perturbs one diagonal entry by ~1e-280 and cannot overflow (no
# outer-product growth here, unlike a dense triangular factorization)
_TINY = 1e-280


@per_tree_cache
def _peel_levels(t: BoundaryTree) -> tuple[np.ndarray, np.ndarray, tuple[_Level, ...]]:
    """The whole tree's elimination levels, with degrees and boundary mask by slot."""
    peel, _, levels = _eliminate(t, np.zeros(t.n, dtype=bool), t.degrees)
    return t.degrees[peel].astype(np.float64), t.boundary_pos[peel] >= 0, levels


def _pencil_pivots(t: BoundaryTree, shift: float, clamp: bool) -> np.ndarray:
    """Pivots of the tree-ordered factorization of ``L - shift * B``, by slot."""
    degrees, boundary, levels = _peel_levels(t)
    n = t.n
    diag = np.empty(n + 1)  # slot n absorbs the root's (discarded) update
    diag[:n] = degrees
    diag[:n][boundary] -= shift
    for start, stop, ps, distinct in levels:
        # only children update a vertex, so its slot holds its pivot by now
        d = diag[start:stop]
        if clamp:
            d[np.abs(d) < _TINY] = -_TINY
        if distinct:
            # one update per parent: fancy indexing does the same
            # arithmetic as ufunc.at, at a fraction of its cost
            diag[ps] -= 1.0 / d
        else:
            # ufunc.at applies repeated parents in order: each parent sees
            # its children's updates in peel order, as a scalar sweep would
            np.subtract.at(diag, ps, 1.0 / d)
    return diag[:n]


def _steklov_count_below(t: BoundaryTree, shift: float) -> int:
    """Number of Steklov eigenvalues below ``shift``.

    Counts negative pivots of the tree-ordered factorization of
    ``L - shift * B``; the positive-definite interior block contributes
    none, so the count equals the inertia of the boundary response
    matrix shifted by ``shift``.  One leaf-to-root sweep over the peel
    levels: O(n) work in O(height) numpy steps.

    A pivot vanishes only at special shifts (within rounding of an
    eigenvalue of the pencil on the subtree below it, e.g. path(4) at
    1/2), so the sweep first runs without the clamp.  If some pivot came
    out below ``_TINY`` (every later value may then be inf or nan), it
    runs again with the clamp; otherwise the clamp would not have changed
    a bit.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        pivots = _pencil_pivots(t, shift, clamp=False)
        vanished = bool(np.any(np.abs(pivots) < _TINY))
    if vanished:
        pivots = _pencil_pivots(t, shift, clamp=True)
    return int(np.count_nonzero(pivots < 0.0))


@per_tree_cache
def _count_memo(t: BoundaryTree) -> dict[float, int]:
    """Pencil counts for one tree, keyed on the shift.

    Bisections for different ``k`` start from the same bracket, so they
    probe the same first midpoints; each shift is counted once.
    """
    return {}


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
    Counts are memoized per tree on their shift, so bisections for
    several ``k`` share their probes and a repeated one counts nothing.
    """
    m = t.n_boundary
    if not 1 <= k <= m:
        raise BadIndexError(f"index {k} outside 1..{m}")
    counts = _count_memo(t)

    def count(shift: float) -> int:
        try:
            return counts[shift]
        except KeyError:
            c = counts[shift] = _steklov_count_below(t, shift)
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


def _spectrum_from_matrix(mat: DtnMatrix, tol: Tolerances) -> SteklovSpectrum:
    """Diagonalize an assembled response matrix and check the spectral invariants."""
    t = mat.tree
    w, q = eigendecompose_symmetric(mat.entries)
    ext = _extend_columns(t, q)
    _check_spectrum(t, w, q, ext, tol)
    return SteklovSpectrum(tree=t, eigenvalues=w, boundary_basis=q, extensions=ext)


def steklov_spectrum(t: BoundaryTree, tol: Tolerances = DEFAULT_TOL) -> SteklovSpectrum:
    """Assemble the boundary response matrix and diagonalize it (primary route).

    Validates the spectral invariants before returning: eigenvalues in
    ``[-psd_slack, 1 + psd_slack]``, a single ~0 bottom eigenvalue with a
    positive second one, eigenfunctions harmonic inside with normal
    derivative ``lambda * f`` on the boundary, and an orthonormal
    boundary basis.
    """
    return _spectrum_from_matrix(dtn_matrix(t, tol), tol)


def steklov_lambda(
    t: BoundaryTree,
    k: int,
    *,
    spectrum: SteklovSpectrum | None = None,
) -> float:
    """The k-th smallest Steklov eigenvalue via the cheapest sound route.

    Read off ``spectrum`` when given; otherwise dense up to
    ``DENSE_BOUNDARY_LIMIT`` boundary vertices, bisection above.
    """
    if spectrum is not None:
        return spectrum.eigenvalue(k)
    if t.n_boundary <= DENSE_BOUNDARY_LIMIT:
        return steklov_spectrum(t).eigenvalue(k)
    return steklov_eigenvalue_bisect(t, k)


# -- Rayleigh quotients and the variational check --------------------------------

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


def _span_rayleigh_max(t: BoundaryTree, basis: np.ndarray) -> float:
    """Maximum of the Rayleigh quotient over the row span of ``basis``.

    ``R(c . basis) = c^T E c / c^T B c`` with ``E`` the Gram matrix of edge
    differences and ``B`` that of boundary values, so the maximum is the
    top eigenvalue of the pencil ``(E, B)``: whiten ``B`` by its
    eigendecomposition and take the top eigenvalue of the whitened ``E``.
    For linearly independent, boundary-sum-zero rows, no nonzero
    combination is constant, so ``E`` is positive definite on the span and
    a direction in which ``B`` (numerically) vanishes has ``R = +inf``.
    """
    diffs = basis[:, t.edge_u] - basis[:, t.edge_v]
    bvals = basis[:, np.array(t.boundary, dtype=np.int64)]
    w, v = np.linalg.eigh(bvals @ bvals.T)
    if float(w[0]) <= 1e-12 * float(w[-1]):
        return float("inf")
    white = (v / np.sqrt(w)).T @ diffs
    return float(np.linalg.eigvalsh(white @ white.T)[-1])


def variational_upper_check(
    t: BoundaryTree,
    trial_family: list[VertexFunction],
    k: int,
    *,
    tol: Tolerances = DEFAULT_TOL,
    spectrum: SteklovSpectrum | None = None,
) -> bool:
    """Check ``lambda_k <= max R(f)`` over the span of the trial family.

    The family must contain ``k - 1`` functions on ``t``, each
    boundary-sum-zero within ``tol.boundary_sum``
    (:class:`NotOrthogonalError` otherwise), and must span ``k - 1``
    dimensions (:class:`DimensionMismatchError`).  The maximum over the
    span is the top eigenvalue of a ``(k-1) x (k-1)`` pencil (``+inf``
    when some combination vanishes on the boundary), solved for directly
    rather than sampled, so it is exact up to rounding.
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
    gw = np.linalg.eigvalsh(basis @ basis.T)
    if float(gw[0]) <= 1e-12 * max(1.0, float(gw[-1])):
        raise DimensionMismatchError("trial family is numerically dependent")

    lam_k = steklov_lambda(t, k, spectrum=spectrum)
    return lam_k <= _span_rayleigh_max(t, basis) + tol.bound_slack
