"""Steklov spectra: LAPACK primary route, tree-pencil certifier, Rayleigh tools.

Two routes compute eigenvalues here, sharing no code so that each can
certify the other:

* :func:`eigendecompose_symmetric` -- LAPACK ``eigh`` on the dense
  boundary response matrix (the primary route; also yields eigenvectors).
  :func:`spectra_from_matrices` runs it on each matrix of a batch of
  trees and extends all their eigenvectors in one batched harmonic solve
  (:mod:`.harmonic`), bit for bit as each tree alone;
  :func:`steklov_spectrum` is the batch of one;
* the certifier: inertia counts of the sparse pencil ``L - t B`` over
  the whole tree, where ``B`` is the boundary indicator.  Since the
  interior block of ``L`` is positive definite, Haynsworth's inertia
  additivity makes the negative pivot count of ``L - t B`` equal the
  number of Steklov eigenvalues below ``t``; a tree admits a perfect
  elimination order (Jacobs and Trevisan's diagonalization of a tree),
  so each count has no fill-in and touches neither the dense matrix nor
  its assembly.  It serves in two ways.  :func:`steklov_eigenvalue_bisect`
  finds ``lambda_k`` by bisection, which also scales to trees whose
  boundary is far too large for a dense matrix; :func:`steklov_lambda`
  takes it at every size unless handed a spectrum, so no BLAS build or
  thread count moves a ``lambda_k`` that ``bounds`` or ``sweep`` print.
  Counts at given shifts, :func:`_steklov_count_below`, certify a known
  ``lambda_k``: since the count does not decrease as the shift grows,
  ``count(x - delta) < k <= count(x + delta)`` puts the count's k-th
  eigenvalue within ``delta`` of ``x``, in two counts (Demmel, Dhillon
  and Ren, *ETNA* 3 (1995)); the ``verify`` harness certifies the dense
  spectrum this way.

Each count is one sweep from the boundary to the tree's centre over the
layers of :func:`.graph_core._centre_layers`, which :mod:`.harmonic`
solves along too: O(n) work in ``(L + 1) // 2 + 1`` numpy steps for
diameter L, a few dozen for bushy trees even at n = 8000 and about n/2
for path-like ones, the slow case.  Each parent takes its children's
updates in slot order, bit for bit as one vertex at a time.
Counts are memoized per tree on their shift, the bisection's only memo:
a repeated bisection walks its memoized probes again to the same float.

The bisection returns the float of the plain halving loop, but counts
few of its midpoints.  The float count does not decrease as the shift
grows (the lemma at :func:`steklov_eigenvalue_bisect`), so a midpoint at
or below a shift counted below ``k``, or at or above one counted at
``k`` or more, is decided without a count.  Laguerre steps on
``log|det(L - s B)|``, whose two derivatives one more pass over the same
levels reads off a count's pivots, find such a bracket a few ``abs_tol``
wide in a handful of counts; the replay of the loop then counts only the
midpoints inside it.

The Rayleigh tools check a trial family against ``lambda_k`` by the
min-max principle: :func:`variational_upper_check` takes the exact
maximum of the Rayleigh quotient over the family's span, the top
eigenvalue of a ``(k-1) x (k-1)`` pencil, rather than a sample of it.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import (
    BadIndexError,
    BadParamsError,
    DimensionMismatchError,
    InvariantViolationError,
    NotOrthogonalError,
    NotSymmetricError,
    ZeroFunctionError,
)
from .graph_core import BoundaryTree, _centre_layers, per_tree_cache
from .harmonic import DtnMatrix, VertexFunction, _batch, _extend, _laplacian, dtn_matrix

# the ``spectrum`` command prints the whole dense spectrum up to this
# boundary size and bisects the first few eigenvalues above it
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
# estimator probes per bisection; past this the replay counts what is left
_MAX_PROBES = 64


# one level of the count's sweep: the slots [start, stop) of its vertices,
# the slots of their parents, and whether those parents are all distinct
_Level = tuple[int, int, np.ndarray, bool]


@per_tree_cache
def _pencil_levels(t: BoundaryTree) -> tuple[np.ndarray, tuple[_Level, ...]]:
    """The whole tree's elimination levels, with degrees by slot.

    The boundary fills slots ``[0, m)`` in ascending order (checked
    against ``boundary_pos``), one level; then each interior layer of
    :func:`.graph_core._centre_layers` is a level, the centre's parent
    slot the sink ``n``.  A layer's parent slots never decrease (the
    search lists children in their parents' order), so they are distinct
    when they strictly increase: one ``reduceat`` flags every layer, and
    the levels take a fixed number of numpy calls.
    """
    lay = _centre_layers(t)
    n, m = t.n, t.n_boundary
    by_slot = np.concatenate((t._boundary_ids, lay.order))
    slot = np.append(t.boundary_pos, n)
    slot[lay.order] = np.arange(m, n)
    if not np.array_equal(slot[by_slot], np.arange(n)):
        raise InvariantViolationError("the boundary does not fill the first slots in order")
    parent_slot = slot[lay.parent[by_slot]]
    bounds = [0, m, *(m + s for s in lay.stops)]
    # a slot whose parent is the one before's, within its level
    repeat = np.append(False, parent_slot[1:] == parent_slot[:-1])
    repeat[bounds[:-1]] = False
    distinct = (~np.logical_or.reduceat(repeat, bounds[:-1])).tolist()
    distinct[0] = bool(np.bincount(parent_slot[:m]).max() == 1)  # the boundary's, unsorted
    levels = tuple((a, b, parent_slot[a:b], d)
                   for a, b, d in zip(bounds, bounds[1:], distinct))
    return t.degrees[by_slot].astype(np.float64), levels


def _pencil_pivots(t: BoundaryTree, shift: float, clamp: bool) -> np.ndarray:
    """Pivots of the tree-ordered factorization of ``L - shift * B``, by slot."""
    degrees, levels = _pencil_levels(t)
    n = t.n
    diag = np.empty(n + 1)  # slot n absorbs the root's (discarded) update
    diag[:n] = degrees
    diag[:t.n_boundary] = 1.0 - shift  # boundary vertices have degree 1
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
            # its children's updates in slot order, as a scalar sweep would
            np.subtract.at(diag, ps, 1.0 / d)
    return diag[:n]


@dataclass(eq=False)
class _Counts:
    """Pencil counts of one tree by shift, and the pivots of its latest counts."""

    by_shift: dict[float, int] = field(default_factory=dict)
    pivots: dict[float, np.ndarray] = field(default_factory=dict)


@per_tree_cache
def _counts(t: BoundaryTree) -> _Counts:
    """The tree's count memo, the bisection's only memo.

    Bisections for different ``k`` share their probes, and each shift is
    counted once; a repeated bisection walks its memoized probes again to
    the same float.
    """
    return _Counts()


def _steklov_count_below(t: BoundaryTree, shift: float) -> int:
    """Number of Steklov eigenvalues below ``shift``.

    Counts negative pivots of the tree-ordered factorization of
    ``L - shift * B``; the positive-definite interior block contributes
    none, so the count equals the inertia of the boundary response
    matrix shifted by ``shift``.  One sweep over :func:`_pencil_levels`:
    O(n) work in one numpy step per level.

    A pivot vanishes only at special shifts (within rounding of an
    eigenvalue of the pencil on the subtree below it, e.g. path(4) at
    1/2), so the sweep first runs without the clamp.  If some pivot came
    out below ``_TINY`` (every later value may then be inf or nan), it
    runs again with the clamp; otherwise the clamp would not have changed
    a bit.  The pivots of the tree's last two counts stay in its memo for
    :func:`_log_det_derivatives`.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        pivots = _pencil_pivots(t, shift, clamp=False)
    neg = np.count_nonzero(pivots <= -_TINY)
    # a pivot vanished iff it is in (-_TINY, _TINY), between the two counts;
    # if none did, the first count is the negatives (NaN is in neither)
    if np.count_nonzero(pivots < _TINY) != neg:
        pivots = _pencil_pivots(t, shift, clamp=True)
        neg = np.count_nonzero(pivots < 0.0)
    recent = _counts(t).pivots
    recent[shift] = pivots
    if len(recent) > 2:
        del recent[next(iter(recent))]
    return int(neg)


@per_tree_cache
def _boundary_children(t: BoundaryTree) -> np.ndarray:
    """How many boundary vertices hang from each slot (the sink included)."""
    _, levels = _pencil_levels(t)
    return np.bincount(levels[0][2], minlength=t.n + 1).astype(np.float64)


def _log_det_derivatives(t: BoundaryTree, pivots: np.ndarray) -> tuple[float, float]:
    """``G = F'`` and ``H = -F''`` for ``F(s) = log|det(L - s B)|``, from one count's pivots.

    ``det(L - s B)`` is ``det(L_II)`` times the product of ``lambda_j - s``
    over the Steklov eigenvalues, so ``G`` is the sum of ``1/(s - lambda_j)``
    and ``H`` the sum of their squares.  ``F`` is also the sum of the
    log-pivots ``log|d_i|``: with ``d' = -1`` and ``d'' = 0`` at a leaf
    and, above it, ``d_p' = sum of d_c' / d_c**2`` and
    ``d_p'' = sum of (d_c'' - 2 d_c'**2 / d_c) / d_c**2`` over the children,
    ``G`` is the sum of ``d'/d`` and ``H`` that of ``(d'/d)**2 - d''/d``.
    Every leaf is a boundary vertex with pivot ``1 - s``, so the first
    level goes in bulk; one pass over the other levels reads the pivots
    the count made.  Only the estimator reads these, so neither their
    rounding nor the order of their sums matters; they are non-finite
    near a vanished pivot.
    """
    _, levels = _pencil_levels(t)
    n, m = t.n, t.n_boundary
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = 1.0 / pivots
        inv2 = inv * inv
        r = float(inv[0])
        leaves = _boundary_children(t)
        d1 = leaves * (-r * r)
        d2 = leaves * (-2.0 * r * r * r)
        for start, stop, ps, distinct in levels[1:]:
            c1 = d1[start:stop]
            c2 = d2[start:stop] - 2.0 * c1 * c1 * inv[start:stop]
            w = inv2[start:stop]
            if distinct:
                d1[ps] += c1 * w
                d2[ps] += c2 * w
            else:
                np.add.at(d1, ps, c1 * w)
                np.add.at(d2, ps, c2 * w)
        g = d1[m:n] * inv[m:]
        return (float(g.sum()) - m * r,
                float(g @ g) + m * r * r - float(d2[m:n] @ inv[m:]))


def _laguerre(
    t: BoundaryTree, s: float, pivots: np.ndarray, up: bool, mu: int,
) -> tuple[float, int]:
    """Laguerre's estimate, from ``s``, of the nearest eigenvalue above or below it.

    For a polynomial with real roots, Laguerre's point lies between ``s``
    and the nearest root on its side, and converges to it cubically
    (Li and Zeng, *SIAM J. Sci. Comput.* 15 (1994), for the tridiagonal
    eigenproblem).  The multiplicity ``nu = G**2 / H``, rounded and held
    to ``1..mu``, keeps the rate on a multiple eigenvalue; it is returned
    with the point.  ``(nan, 0)`` when the derivatives are not finite or
    an eigenvalue on the other side is nearer.
    """
    g, h = _log_det_derivatives(t, pivots)
    if not (math.isfinite(g) and math.isfinite(h) and h > 0.0) or (g < 0.0) != up:
        return math.nan, 0
    m = t.n_boundary
    nu = min(max(round(g * g / h), 1), mu)
    root = math.sqrt(max(0.0, (m - nu) / nu * (m * h - g * g)))
    return s - m / (g - root if up else g + root), nu


def _narrow(
    t: BoundaryTree, k: int, abs_tol: float, count: Callable[[float], int],
    a: float, ca: int, b: float, cb: int,
) -> tuple[float, float]:
    """Narrow a certified bracket ``a < lambda_k <= b`` by estimates.

    ``count(a) < k <= count(b)`` holds throughout, since every probe is
    counted.  A Laguerre step starts from an end with fresh pivots when
    ``lambda_k`` is that end's nearest eigenvalue inward
    (``count(a) = k - 1`` or ``count(b) = k``), or, once the bracket is
    narrower than a quarter of ``b`` and the last probe left its end's
    count unchanged (a cluster, perhaps), when the cluster of ``nu``
    eigenvalues it aims at holds ``lambda_k``.  Otherwise a probe splits
    the bracket where the counts put ``lambda_k``: the count grows about
    linearly from 0 and across a narrow bracket, and as a power of the
    shift across a wide one.  When a step moves less than ``1e-4`` of its
    point ``x`` (Laguerre converges cubically), ``x`` is certified by
    counts at ``x -+ delta``, with ``delta = abs_tol/8``, growing fourfold
    while ``x`` proves to sit on the wrong side of ``lambda_k``, and
    dropped once past ``abs_tol``.  Stops at width ``2 abs_tol`` or after
    ``_MAX_PROBES`` counts: a poor estimate costs counts, never bits.
    """
    recent = _counts(t).pivots
    x = None  # a converged estimate under certification
    delta = 0.125 * abs_tol
    stalled = False  # the last probe's count equalled its end's
    for _ in range(_MAX_PROBES):
        if b - a <= 2.0 * abs_tol:
            break
        p = None
        if x is not None and delta <= abs_tol:
            if a < x - delta:
                p = x - delta
            elif x + delta < b:
                p = x + delta
        narrow = b - a <= 0.25 * b
        if p is None:
            x = None
            for s, up in ((a, True), (b, False)):
                near = ca == k - 1 if up else cb == k
                if s not in recent or not (near or narrow and stalled):
                    continue
                q, nu = _laguerre(t, s, recent[s], up, cb - ca)
                # the step aims at a cluster of nu eigenvalues, which must
                # hold lambda_k
                if math.isnan(q) or (ca + nu < k if up else cb - nu >= k):
                    continue
                # past the far end, the estimate puts lambda_k at it
                q = min(q, b) if up else max(q, a)
                if abs(q - s) <= max(0.0625 * abs_tol, 1e-4 * abs(q)) or q in (a, b):
                    x, delta = q, 0.125 * abs_tol
                else:
                    p = q
                break
            if x is not None:
                continue
        if p is None:
            if a <= 0.0:
                p = b * min(max((k - 0.5) / cb, 1 / 64), 0.5)
            elif narrow or ca == 0:
                theta = (k - 0.5 - ca) / (cb - ca)
                p = a + (b - a) * min(max(theta, 0.25), 0.75)
            else:
                theta = math.log((k - 0.5) / ca) / math.log(cb / ca)
                p = a * (b / a) ** min(max(theta, 0.25), 0.75)
            if not a < p < b:
                p = 0.5 * (a + b)
        c = count(p)
        stalled = c == (ca if c < k else cb)
        if c < k:
            a, ca = p, c
            if x is not None and p > x:
                delta *= 4.0
        else:
            b, cb = p, c
            if x is not None and p < x:
                delta *= 4.0
    return a, b


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
    The result is, bit for bit, the float of the plain loop: halve
    ``[lo, hi]`` at ``mid = (lo + hi)/2`` while ``hi - lo > abs_tol``,
    moving ``hi`` to ``mid`` when ``count(mid) >= k`` and ``lo``
    otherwise.  First :func:`_narrow` finds a bracket ``a < lambda_k <= b``
    with ``count(a) < k <= count(b)``, where ``a`` is a counted shift and
    so is ``b``, unless it is still ``hi``, which no midpoint reaches;
    then the loop is replayed, and a midpoint ``<= a`` moves ``lo``, one
    ``>= b`` moves ``hi``, and only one inside ``(a, b)`` is counted.
    The replay also ends when a midpoint equals ``lo`` or ``hi``: below
    the float spacing the plain loop would spin forever.
    :class:`BadParamsError` unless ``abs_tol`` is finite and positive.

    *The count does not decrease as the shift grows*, bit for bit, which
    makes the replay's decisions those of the loop (the argument Demmel,
    Dhillon and Ren give for Sturm counts, *ETNA* 3 (1995)), for any order
    in which each vertex follows its children and each parent subtracts
    their reciprocals in a fixed order, as the sweep's slots do.  Work in the
    clamped elimination: it has no zero pivot, and it agrees bit for bit
    with the unclamped one whenever no pivot vanished, which is when the
    count reads the latter.  Take shifts ``s1 < s2``.  By induction up the
    elimination, a subtree's negative count grows, or it stays equal and
    either its root pivot keeps its sign and does not increase, or the
    pivot goes from negative to non-negative.  At a leaf the pivot
    ``fl(1 - s)`` does not increase, and the count grows if it turns
    negative.  At a parent, if a child's count grew, the parent's cannot
    fall: it stays equal only when the children's grew by exactly one and
    the parent's own pivot went from negative to non-negative, the second
    case.  Otherwise each child is in one of the two cases, so each
    reciprocal ``fl(1/d_c)`` does not decrease, and the parent's pivot,
    ``fl(deg - sum of fl(1/d_c))`` subtracted in a fixed order, does not
    increase, since IEEE rounding and the clamp are monotone; the count
    grows if that pivot turns negative.

    Counts are memoized per tree on their shift, so bisections for
    several ``k`` share their probes, a repeated one counts nothing, and
    the memo's tightest bracket for ``k`` is where the estimator starts.
    """
    m = t.n_boundary
    if not 1 <= k <= m:
        raise BadIndexError(f"index {k} outside 1..{m}")
    if not 0.0 < abs_tol < math.inf:
        raise BadParamsError(f"abs_tol must be finite and positive, got {abs_tol}")
    counts = _counts(t).by_shift

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
    # the tightest bracket the memo already certifies
    a, ca, b, cb = lo, 0, hi, m
    for s, c in counts.items():
        if c < k:
            if s > a:
                a, ca = s, c
        elif s < b:
            b, cb = s, c
    a, b = _narrow(t, k, abs_tol, count, a, ca, b, cb)
    while hi - lo > abs_tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid <= a or (mid < b and count(mid) < k):
            lo = mid
        else:
            hi = mid
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
    lap: np.ndarray,
    tol: Tolerances,
) -> None:
    """The spectral invariants of ``(w, q)``, with ``lap`` the Laplacian of its extensions."""
    m = t.n_boundary
    # each test is written so that a NaN fails: every comparison with NaN is false
    if not abs(float(w[0])) <= tol.psd_slack:
        raise InvariantViolationError(f"lowest eigenvalue {w[0]:.3e} not ~0")
    if m >= 2 and not float(w[1]) > 0.0:
        raise InvariantViolationError("second eigenvalue must be positive")
    if not float(w[-1]) <= 1.0 + tol.psd_slack:
        raise InvariantViolationError(f"top eigenvalue {w[-1]} above 1")
    # eigen-equation residual: normal derivative == lambda * boundary values
    interior_res = float(np.abs(lap[np.array(t.interior)]).max(initial=0.0))
    # residuals formed in place: two (m, m) buffers bound the extra memory
    res = lap[t._boundary_ids, :]
    buf = np.multiply(q, w)
    res -= buf
    eig_res = float(np.abs(res, out=res).max(initial=0.0))
    if not (interior_res <= tol.eigen_residual and eig_res <= tol.eigen_residual):
        raise InvariantViolationError(
            f"eigenpair residuals {interior_res:.3e}/{eig_res:.3e} too large")
    # orthonormality of the boundary basis
    gram = np.matmul(q.T, q, out=buf)
    gram.flat[::m + 1] -= 1.0
    gram_dev = float(np.abs(gram, out=gram).max(initial=0.0))
    if not gram_dev <= tol.orthogonality:
        raise InvariantViolationError(f"eigenbasis orthonormality off by {gram_dev:.3e}")


def spectra_from_matrices(mats: Sequence[DtnMatrix],
                          tol: Tolerances = DEFAULT_TOL) -> list[SteklovSpectrum]:
    """Diagonalize assembled response matrices and check their spectral invariants.

    ``eigh`` runs on each matrix; then the eigenvectors of all of them
    are extended as one batch of trees, the batch that assembled the
    matrices when they came from one :func:`.harmonic.dtn_matrices` call,
    and one Laplacian pass gives every eigenpair's residual.  Each tree's
    extensions equal, bit for bit, those computed alone, and every check
    runs on the tree's own slice.  The first tree to fail a check raises.
    """
    if not mats:
        return []
    trees = tuple(mat.tree for mat in mats)
    pairs = [eigendecompose_symmetric(mat.entries) for mat in mats]
    b = _batch(trees)
    ext = _extend(b, b.stack(q for _, q in pairs))
    lap = _laplacian(b, ext)
    out = []
    for t, (w, q), lo, hi in zip(trees, pairs, b.vertex_stops, b.vertex_stops[1:]):
        m = t.n_boundary
        _check_spectrum(t, w, q, lap[lo:hi, :m], tol)
        out.append(SteklovSpectrum(tree=t, eigenvalues=w, boundary_basis=q,
                                   extensions=np.ascontiguousarray(ext[lo:hi, :m])))
    return out


def steklov_spectrum(t: BoundaryTree, tol: Tolerances = DEFAULT_TOL) -> SteklovSpectrum:
    """Assemble the boundary response matrix and diagonalize it (primary route).

    The batch of one of :func:`spectra_from_matrices`.  Validates the
    spectral invariants before returning: eigenvalues in
    ``[-psd_slack, 1 + psd_slack]``, a single ~0 bottom eigenvalue with a
    positive second one, eigenfunctions harmonic inside with normal
    derivative ``lambda * f`` on the boundary, and an orthonormal
    boundary basis.
    """
    return spectra_from_matrices([dtn_matrix(t, tol)], tol)[0]


def steklov_lambda(
    t: BoundaryTree,
    k: int,
    *,
    spectrum: SteklovSpectrum | None = None,
) -> float:
    """The k-th smallest Steklov eigenvalue.

    Read off ``spectrum`` when given; otherwise found by
    :func:`steklov_eigenvalue_bisect` at every size, so the float is
    the same whatever the BLAS and however large the tree.
    """
    if spectrum is not None:
        return spectrum.eigenvalue(k)
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
    bvals = basis[:, t._boundary_ids]
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
