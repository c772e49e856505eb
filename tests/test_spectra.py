from __future__ import annotations

import dataclasses
import gc
import math
import os
import random
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from steklov_trees import (
    BadIndexError,
    DimensionMismatchError,
    InvariantViolationError,
    NotOrthogonalError,
    NotSymmetricError,
    PartTooSmallError,
    VertexFunction,
    ZeroFunctionError,
    build_tree,
    dtn_matrix,
    eigendecompose_symmetric,
    gen_ball,
    gen_path,
    gen_random_tree,
    gradient_supports_disjoint,
    multiway_test_functions,
    partition_k,
    rayleigh_quotient,
    steklov_eigenvalue_bisect,
    steklov_lambda,
    steklov_spectrum,
    variational_upper_check,
)
from steklov_trees import spectra
from steklov_trees.generators import generate_family
from steklov_trees.graph_core import _centre_layers, diameter
from steklov_trees.harmonic import _batch, laplacian_apply_matrix

from _oracle import (
    bisect_oracle,
    count_below_brute,
    laplacian_brute,
    pencil_levels_oracle,
    pencil_pivots_oracle,
    steklov_eigs_brute,
)
from conftest import (
    BALL32_EDGES,
    CATERPILLAR_EDGES,
    K13_EDGES,
    PATH4_EDGES,
    STAR5_EDGES,
    shapes,
)

# trees on which an unpivoted dense LDL^T inertia count broke down
# mid-bisection (a probe landing on an eigenvalue of a leading minor)
REGRESSION_TREES = (
    (17, 3, 2322766164027676882),
    (11, 6, 4990170066205005668),
)


def _sym(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


# -- primary eigensolver (LAPACK wrapper) ------------------------------------------
#
# The test_jacobi_* names predate the LAPACK primary; they now pin the
# wrapper's contract: ascending order, the sign convention, the eigen-equation,
# orthonormality, and rejection of asymmetric input.

def _assert_eigen_contract(m: np.ndarray, w: np.ndarray, q: np.ndarray) -> None:
    n = m.shape[0]
    assert w.shape == (n,) and q.shape == (n, n)
    assert np.all(np.diff(w) >= 0)
    for j in range(n):
        col = q[:, j]
        assert col[np.argmax(np.abs(col))] > 0
    scale = 1.0 + np.abs(m).max()
    np.testing.assert_allclose(m @ q, q * w, atol=1e-12 * n * scale)
    np.testing.assert_allclose(q.T @ q, np.eye(n), atol=1e-12 * n)


def test_jacobi_diagonal_is_exact():
    w, q = eigendecompose_symmetric(np.diag([3.0, -1.0, 2.0]))
    np.testing.assert_array_equal(w, [-1.0, 2.0, 3.0])
    np.testing.assert_array_equal(q, np.eye(3)[:, [1, 2, 0]])


def test_jacobi_2x2_closed_form():
    a, b, c = 2.0, 1.5, -1.0
    m = np.array([[a, b], [b, c]])
    half = 0.5 * (a + c)
    rad = np.hypot(0.5 * (a - c), b)
    w, q = eigendecompose_symmetric(m)
    np.testing.assert_allclose(w, [half - rad, half + rad], rtol=1e-15)
    _assert_eigen_contract(m, w, q)


def test_eigendecompose_one_by_one():
    w, q = eigendecompose_symmetric(np.array([[-2.5]]))
    np.testing.assert_array_equal(w, [-2.5])
    np.testing.assert_array_equal(q, [[1.0]])


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21, 34])
def test_jacobi_matches_lapack(n):
    m = _sym(n, seed=n)
    w, q = eigendecompose_symmetric(m)
    np.testing.assert_allclose(w, np.linalg.eigvalsh(m), rtol=1e-12, atol=1e-12)
    _assert_eigen_contract(m, w, q)


def test_jacobi_sign_convention_and_order():
    m = _sym(9, seed=123)
    w, q = eigendecompose_symmetric(m)
    _assert_eigen_contract(m, w, q)
    # flipping the input's sign reverses the order but keeps the convention
    w2, q2 = eigendecompose_symmetric(-m)
    np.testing.assert_allclose(w2, -w[::-1], atol=1e-12)
    _assert_eigen_contract(-m, w2, q2)


def test_jacobi_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        eigendecompose_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(NotSymmetricError):
        eigendecompose_symmetric(np.ones((2, 3)))


@given(n=st.integers(1, 16), seed=st.integers(0, 2**32))
def test_jacobi_agrees_with_lapack_property(n, seed):
    m = _sym(n, seed)
    w, q = eigendecompose_symmetric(m)
    np.testing.assert_allclose(w, np.linalg.eigvalsh(m), rtol=1e-12, atol=1e-12)
    _assert_eigen_contract(m, w, q)


def test_eigenvalue_oracle_is_a_lapack_lookup():
    from steklov_trees.spectra import eigenvalue_oracle

    m = _sym(5, seed=8)
    want = np.linalg.eigvalsh(m)
    assert [eigenvalue_oracle(m, k) for k in range(1, 6)] == list(want)
    for k in (0, 6):
        with pytest.raises(BadIndexError):
            eigenvalue_oracle(m, k)
    with pytest.raises(NotSymmetricError):
        eigenvalue_oracle(np.array([[0.0, 1.0], [2.0, 0.0]]), 1)


# -- pencil certifier against LAPACK ---------------------------------------------------
#
# The test_oracle_* tests check the certifier that the harness and acceptance
# criterion 8 use as their reference, each against ``eigvalsh`` of the
# assembled response matrix.

def _tree_with_boundary(m: int, seed: int):
    """A random tree with exactly ``m`` boundary vertices (``m >= 2``).

    Starts from the path on three vertices; each step adds one boundary
    vertex, either by hanging a leaf on an interior vertex or by giving a
    leaf two children.
    """
    rng = random.Random(seed)
    edges = [(0, 1), (1, 2)]
    deg = [1, 2, 1]
    for _ in range(m - 2):
        leaves = [v for v, d in enumerate(deg) if d == 1]
        inner = [v for v, d in enumerate(deg) if d > 1]
        if rng.random() < 0.5:
            hosts = [rng.choice(inner)]
        else:
            leaf = rng.choice(leaves)
            hosts = [leaf, leaf]
        for h in hosts:
            edges.append((h, len(deg)))
            deg[h] += 1
            deg.append(1)
    t = build_tree(edges)
    assert t.n_boundary == m
    return t


def _assert_pencil_matches_lapack(t, abs_tol: float = 1e-9) -> None:
    want = np.linalg.eigvalsh(dtn_matrix(t).entries)
    for k in range(1, t.n_boundary + 1):
        assert steklov_eigenvalue_bisect(t, k) == pytest.approx(want[k - 1], abs=abs_tol)


@pytest.mark.parametrize("n", [2, 4, 7, 12, 20])
def test_oracle_matches_lapack(n):
    # ``n`` is the boundary size
    _assert_pencil_matches_lapack(_tree_with_boundary(n, seed=100 + n))


def test_oracle_index_validation(star5):
    for k in (0, 6, -1):
        with pytest.raises(BadIndexError):
            steklov_eigenvalue_bisect(star5, k)


def test_oracle_probe_on_leading_minor_eigenvalue(path4):
    # lambda_2 = 1/2 is bisection's first probe, and at shift 1/2 the pivots
    # of both neighbours of the end vertices vanish exactly
    assert steklov_eigenvalue_bisect(path4, 2) == pytest.approx(0.5, abs=1e-11)
    _assert_pencil_matches_lapack(path4)


@pytest.mark.parametrize("n,cap,seed", REGRESSION_TREES)
def test_oracle_breakdown_regression(n, cap, seed):
    _assert_pencil_matches_lapack(gen_random_tree(n, cap, seed), abs_tol=1e-8)


def test_oracle_repeated_eigenvalues(star5):
    want = np.linalg.eigvalsh(dtn_matrix(star5).entries)
    np.testing.assert_allclose(want, [0.0, 1.0, 1.0, 1.0, 1.0], atol=1e-12)
    assert steklov_eigenvalue_bisect(star5, 1) == pytest.approx(0.0, abs=1e-9)
    for k in range(2, 6):
        assert steklov_eigenvalue_bisect(star5, k) == pytest.approx(1.0, abs=1e-9)


# -- sparse pencil bisection -----------------------------------------------------------

def test_bisect_ball32(ball32):
    assert steklov_eigenvalue_bisect(ball32, 2) == pytest.approx(1 / 3, abs=1e-11)
    assert steklov_eigenvalue_bisect(ball32, 1) == pytest.approx(0.0, abs=1e-11)
    assert steklov_eigenvalue_bisect(ball32, 6) == pytest.approx(1.0, abs=1e-11)


def test_bisect_index_validation(ball32):
    with pytest.raises(BadIndexError):
        steklov_eigenvalue_bisect(ball32, 0)
    with pytest.raises(BadIndexError):
        steklov_eigenvalue_bisect(ball32, 7)


@given(n=st.integers(5, 50), cap=st.integers(2, 6), seed=st.integers(0, 2**32),
       knudge=st.integers(0, 3))
def test_bisect_agrees_with_dense(n, cap, seed, knudge):
    t = gen_random_tree(n, cap, seed)
    k = 1 + (knudge * (t.n_boundary - 1)) // 3
    spec = steklov_spectrum(t)
    assert steklov_eigenvalue_bisect(t, k) == pytest.approx(
        spec.eigenvalue(k), abs=1e-9)


def test_bisect_large_ball_fast():
    t = gen_ball(4, 5)  # 972 boundary vertices, far past the dense limit
    lam = steklov_eigenvalue_bisect(t, 2)
    assert lam == pytest.approx(1.0 / sum(3**k for k in range(5)), abs=1e-10)


# -- level-synchronous inertia count and the bisection memo --------------------------

@given(n=st.integers(3, 60), cap=st.integers(2, 6), seed=st.integers(0, 2**32),
       shift=st.floats(-0.5, 1.5))
def test_count_matches_scalar_reference(n, cap, seed, shift):
    t = gen_random_tree(n, cap, seed)
    assert spectra._steklov_count_below(t, shift) == count_below_brute(t.n, t.edges, shift)


@pytest.mark.parametrize("name,shift", [
    ("path4", 0.5), ("star5", 1.0), ("ball32", 1 / 3), ("ball32", 1.0)])
def test_count_matches_scalar_reference_where_pivots_vanish(name, shift, request):
    # shifts on eigenvalues: path4 at 1/2, star5 at 1 and ball32 at 1 zero
    # pivots exactly (they take the clamp); the float nearest 1/3 on ball32
    # comes within rounding of it
    t = request.getfixturevalue(name)
    assert spectra._steklov_count_below(t, shift) == count_below_brute(t.n, t.edges, shift)


# trees on which some count at a LAPACK eigenvalue (or a float next to it)
# changes when each parent takes its children's updates in reverse slot
# order: the first six hits of a seeded search (random.Random(23), n from
# 5 to 40, caps 3 to 6) over gen_random_tree, then four found for the
# leaf-first peel order that are sensitive in this order too
ORDER_SENSITIVE_TREES = (
    (23, 3, 73343450),
    (35, 6, 2902213635),
    (32, 3, 2439584845),
    (22, 5, 3524721521),
    (34, 4, 1109899118),
    (38, 4, 2966145322),
    (7, 6, 3877110562),
    (18, 6, 1869226390),
    (23, 3, 4009128249),
    (23, 4, 1542614728),
)


@pytest.mark.parametrize("n,cap,seed", ORDER_SENSITIVE_TREES)
def test_count_matches_scalar_reference_at_eigenvalues(n, cap, seed):
    # pivots within rounding of zero: only the scalar order of operations
    # reproduces the reference count bit for bit
    t = gen_random_tree(n, cap, seed)
    for lam in steklov_eigs_brute(t.n, t.edges):
        for shift in (np.nextafter(lam, -1.0), lam, np.nextafter(lam, 2.0)):
            want = count_below_brute(t.n, t.edges, shift)
            assert spectra._steklov_count_below(t, shift) == want


@given(t=shapes)
def test_peel_schedule_matches_the_whole_tree_peel(t):
    # the schedule from the centre, against one built a vertex at a time
    degrees, levels = spectra._pencil_levels(t)
    want_degrees, want_boundary, want_levels = pencil_levels_oracle(t)
    assert degrees.tobytes() == want_degrees.tobytes()
    # the boundary fills the first m slots, so the sweep needs no mask
    assert want_boundary.tobytes() == (np.arange(t.n) < t.n_boundary).tobytes()
    assert len(levels) == len(want_levels)
    for (a, b, ps, distinct), (wa, wb, wps, wdistinct) in zip(levels, want_levels):
        assert (a, b, distinct) == (wa, wb, wdistinct)
        assert ps.tobytes() == wps.tobytes()


@given(t=shapes, seed=st.integers(0, 2**31))
def test_pencil_pivot_bytes_match_the_whole_tree_peel(t, seed):
    # every pivot bit, not just the count: at random shifts, and at and
    # next to LAPACK eigenvalues, where pivots come within rounding of zero
    rng = np.random.default_rng(seed)
    lam = np.linalg.eigvalsh(dtn_matrix(t).entries)
    shifts = list(rng.uniform(-0.5, 1.5, 3))
    for x in lam[[1, rng.integers(len(lam)), -1]]:
        shifts += [np.nextafter(x, -1.0), x, np.nextafter(x, 2.0)]
    for shift in shifts:
        for clamp in (False, True):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                got = spectra._pencil_pivots(t, shift, clamp)
                want = pencil_pivots_oracle(t, shift, clamp)
            assert got.tobytes() == want.tobytes()


def _level_count_trees():
    yield gen_path(2000)
    yield generate_family({"family": "EXTREMAL_MIDDLE", "L": 2000, "variant": "B"})
    yield gen_ball(3, 9)
    yield generate_family({"family": "REFINED", "l": 8})


def _assert_centre_level_counts(t):
    # from the centre, the whole tree takes the peel's (L + 1) // 2 + 1
    # levels and the interior one fewer; from vertex 0 a path would take L + 1
    half = (diameter(t).length + 1) // 2
    assert len(spectra._pencil_levels(t)[1]) == half + 1
    assert len(_centre_layers(t).stops) == half
    assert len(_batch((t,)).solver.levels) == half


@pytest.mark.parametrize("t", _level_count_trees(), ids=["path-2000", "extremal-B-2000",
                                                          "ball-3-9", "refined-8"])
def test_schedules_have_the_peel_level_count(t):
    _assert_centre_level_counts(t)


@given(t=shapes)
def test_shape_schedules_have_the_peel_level_count(t):
    _assert_centre_level_counts(t)


# each decision the count makes on its unclamped pivots: whether a pivot
# vanished and, if none did, how many are negative
_CRAFTED_PIVOTS = (-0.0, 0.0, spectra._TINY, -spectra._TINY, spectra._TINY / 2,
                   -spectra._TINY / 2, math.nan, -math.nan, math.inf, -math.inf,
                   5e-324, -5e-324, 1.0, -1.0, 2.5e-280, -2.5e-280)


def test_count_decides_vanished_pivots_as_the_absolute_test(path4, monkeypatch):
    clamped = np.array([-1.0, 2.0, -3.0, 4.0, 5.0])  # the rerun's pivots: 2 negative
    rng = np.random.default_rng(5)
    cases = [np.array([x]) for x in _CRAFTED_PIVOTS]
    cases += [rng.choice(_CRAFTED_PIVOTS, size=int(rng.integers(1, 8))) for _ in range(400)]
    for i, p in enumerate(cases):
        monkeypatch.setattr(spectra, "_pencil_pivots",
                            lambda t, shift, clamp, p=p: clamped if clamp else p)
        # the decision and the count as they stood before the folded test
        with np.errstate(invalid="ignore"):
            vanished = bool(np.any(np.abs(p) < spectra._TINY))
        want = 2 if vanished else int(np.count_nonzero(p < 0.0))
        assert spectra._steklov_count_below(path4, 0.25 + i) == want, p


@given(n=st.integers(3, 40), cap=st.integers(2, 6), seed=st.integers(0, 2**32),
       shift=st.floats(-0.5, 1.5))
def test_count_matches_dense_inertia(n, cap, seed, shift):
    t = gen_random_tree(n, cap, seed)
    assume(np.abs(steklov_eigs_brute(t.n, t.edges) - shift).min() >= 1e-6)
    pencil = laplacian_brute(t.n, t.edges)
    pencil[t.boundary, t.boundary] -= shift
    want = int(np.count_nonzero(np.linalg.eigvalsh(pencil) < 0.0))
    assert spectra._steklov_count_below(t, shift) == want


def test_count_reruns_with_the_clamp_only_where_a_pivot_vanishes(path4, monkeypatch):
    # path4 at 1/2 zeroes a pivot: the unclamped sweep is discarded, without
    # a divide-by-zero warning escaping, and the clamped sweep counts
    clamps = []
    pivots = spectra._pencil_pivots
    monkeypatch.setattr(spectra, "_pencil_pivots",
                        lambda t, shift, clamp: clamps.append(clamp) or pivots(t, shift, clamp))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spectra._steklov_count_below(path4, 0.5) == count_below_brute(
            path4.n, path4.edges, 0.5)
    assert clamps == [False, True]
    clamps.clear()
    spectra._steklov_count_below(path4, 0.3)
    assert clamps == [False]


def test_bisect_memo_returns_identical_float(monkeypatch):
    t = gen_ball(3, 4)
    passes = []
    count = spectra._steklov_count_below
    monkeypatch.setattr(spectra, "_steklov_count_below",
                        lambda t, shift: passes.append(shift) or count(t, shift))
    first = steklov_eigenvalue_bisect(t, 2)
    n_first = len(passes)
    assert n_first > 0
    # a repeated bisection walks its memoized probes to the same float
    assert steklov_eigenvalue_bisect(t, 2).hex() == first.hex()
    assert len(passes) == n_first
    # a coarser tolerance bisects again; its probes are the first ones of
    # the 1e-12 search, whose counts the per-tree count memo already holds
    again = steklov_eigenvalue_bisect(t, 2, abs_tol=1e-10)
    assert again is not first and abs(again - first) <= 1e-10
    assert len(passes) == n_first
    # lambda_3 = lambda_2 on this ball: the k = 3 search probes the same shifts
    assert steklov_eigenvalue_bisect(t, 3) == first
    assert len(passes) == n_first
    # lambda_4 is larger: the k = 4 search shares only its first probes
    steklov_eigenvalue_bisect(t, 4)
    assert n_first < len(passes) < 2 * n_first
    assert len(set(passes)) == len(passes)


def test_bisect_memo_dies_with_its_tree():
    t = gen_ball(3, 4)
    steklov_eigenvalue_bisect(t, 2)
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is None


def test_bisect_start_check_raises_without_assert(ball32, monkeypatch):
    # a real check, not an ``assert``: it also runs under ``python -O``
    monkeypatch.setattr(spectra, "_steklov_count_below", lambda t, shift: 1)
    with pytest.raises(InvariantViolationError):
        steklov_eigenvalue_bisect(ball32, 2)


def test_peel_check_raises_on_a_cycle(ball32):
    # bypasses build_tree's validation: a triangle has no boundary, so the
    # diameter that finds the centre has no boundary ends
    cyc = dataclasses.replace(
        ball32, n=3, degrees=np.array([2, 2, 2]), neighbors=((1, 2), (0, 2), (0, 1)),
        boundary_pos=np.full(3, -1))
    with pytest.raises(InvariantViolationError):
        spectra._steklov_count_below(cyc, 0.5)


def test_peel_check_raises_when_the_boundary_is_not_peeled_first(ball32):
    # the sweep writes the boundary's diagonal as the first m slots: a
    # boundary out of step with its positions is refused, not misread
    shuffled = dataclasses.replace(ball32, boundary=tuple(reversed(ball32.boundary)))
    with pytest.raises(InvariantViolationError, match="first slots"):
        spectra._steklov_count_below(shuffled, 0.5)


def test_count_check_raises_when_the_interior_is_disconnected(ball32):
    # bypasses build_tree's validation: two interior parts, 0-1 and 2; the
    # search from the centre, vertex 0, never reaches vertex 2
    forest = dataclasses.replace(
        ball32, n=7, degrees=np.array([2, 2, 2, 1, 1, 1, 1]),
        neighbors=((1, 3), (0, 4), (5, 6), (0,), (1,), (2,), (2,)),
        boundary=(3, 4, 5, 6), interior=(0, 1, 2),
        boundary_pos=np.array([-1, -1, -1, 0, 1, 2, 3]))
    with pytest.raises(InvariantViolationError, match="reached 2 of 3"):
        spectra._steklov_count_below(forest, 0.5)


# -- the replay from count-certified brackets ------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


def _relabelled(t, seed: int):
    """``t`` with its vertex ids permuted: the same tree, another peel order."""
    perm = np.random.default_rng(seed).permutation(t.n)
    return build_tree([(int(perm[u]), int(perm[v])) for u, v in t.edges])


relabelled = st.builds(
    _relabelled,
    st.one_of(st.builds(gen_ball, st.integers(3, 5), st.integers(1, 3)),
              st.builds(gen_path, st.integers(2, 40))),
    st.integers(0, 2**32 - 1))


def _sampled_ks(m: int) -> list[int]:
    return list(range(1, m + 1)) if m <= 12 else sorted({1, 2, 3, m // 3, m // 2, m - 1, m})


def _assert_replay_matches_the_plain_loop(t, ks) -> None:
    # both tolerances and every k share the tree's one count memo
    for abs_tol in (1e-12, 1e-10):
        for k in ks:
            got = steklov_eigenvalue_bisect(t, k, abs_tol=abs_tol)
            assert got.hex() == bisect_oracle(t, k, abs_tol=abs_tol).hex(), (k, abs_tol)


@given(t=st.one_of(shapes, relabelled), descending=st.booleans())
def test_replay_returns_the_plain_bisection_bits(t, descending):
    ks = _sampled_ks(t.n_boundary)
    _assert_replay_matches_the_plain_loop(t, ks[::-1] if descending else ks)


def _star(legs: int) -> tuple:
    return tuple((0, i) for i in range(1, legs + 1))


def _path(length: int) -> tuple:
    return tuple((i, i + 1) for i in range(length))


# shifts of the plain loop land on eigenvalues of subtrees of these trees,
# where pivots vanish: path(4) at 1/2, and stars and ball32 at 1
VANISHING_PIVOT_EDGES = [PATH4_EDGES, STAR5_EDGES, K13_EDGES, BALL32_EDGES, CATERPILLAR_EDGES,
                         *(_star(j) for j in (2, 7, 12)), *(_path(j) for j in (3, 8, 13))]


@pytest.mark.parametrize("edges", VANISHING_PIVOT_EDGES)
@pytest.mark.parametrize("descending", [False, True])
def test_replay_matches_where_pivots_vanish(edges, descending):
    t = build_tree(edges)
    ks = list(range(1, t.n_boundary + 1))
    _assert_replay_matches_the_plain_loop(t, ks[::-1] if descending else ks)


@given(t=shapes)
def test_count_is_monotone_in_the_shift(t):
    # the replay's premise: a shift above one counted at >= k also counts
    # >= k, bit for bit, also at and next to eigenvalues, where pivots vanish
    lam = np.linalg.eigvalsh(dtn_matrix(t).entries)
    grid = {float(x) for x in np.linspace(-0.25, 1.25, 31)}
    for x in lam:
        grid |= {float(np.nextafter(x, -1.0)), float(x), float(np.nextafter(x, 2.0))}
    counts = [spectra._steklov_count_below(t, s) for s in sorted(grid)]
    assert counts == sorted(counts)


def test_replay_counts_a_fraction_of_the_plain_loop(monkeypatch):
    # counts, not times, so the check is deterministic: 13 against 74 at
    # the time of writing
    t = gen_ball(3, 8)
    passes = []
    count = spectra._steklov_count_below
    monkeypatch.setattr(spectra, "_steklov_count_below",
                        lambda t, shift: passes.append(shift) or count(t, shift))
    for k in (2, 3, 5):
        bisect_oracle(t, k)
    plain = len(set(passes))
    passes.clear()
    for k in (2, 3, 5):
        steklov_eigenvalue_bisect(t, k)
    assert len(passes) <= plain // 4


def _bisect_in_child(abs_tol: str) -> subprocess.CompletedProcess:
    # a child process, so that a bisection that never ends fails on the
    # timeout instead of hanging the suite
    code = ("from steklov_trees import BadParamsError, gen_ball, steklov_eigenvalue_bisect\n"
            "try:\n"
            f"    print(steklov_eigenvalue_bisect(gen_ball(3, 2), 2, abs_tol={abs_tol}).hex())\n"
            "except BadParamsError as exc:\n"
            "    print('BadParamsError', exc)\n")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})


@pytest.mark.parametrize("abs_tol", ["0.0", "-1.0", "float('nan')", "float('inf')"])
def test_bisect_rejects_a_tolerance_that_is_not_finite_and_positive(abs_tol):
    out = _bisect_in_child(abs_tol)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("BadParamsError abs_tol must be finite and positive")


def test_bisect_below_float_spacing_ends_at_adjacent_floats():
    out = _bisect_in_child("1e-300")
    assert out.returncode == 0, out.stderr
    got = float.fromhex(out.stdout.strip())
    assert abs(got - 1 / 3) <= 2 * np.spacing(1 / 3)


# -- assembled spectra -----------------------------------------------------------------

def test_spectrum_ball32_frozen(ball32):
    spec = steklov_spectrum(ball32)
    np.testing.assert_allclose(
        spec.eigenvalues, [0.0, 1 / 3, 1 / 3, 1.0, 1.0, 1.0], atol=1e-9)
    assert spec.lambda2 == pytest.approx(1 / 3, abs=1e-12)


def test_spectrum_star_frozen(star5):
    spec = steklov_spectrum(star5)
    np.testing.assert_allclose(spec.eigenvalues, [0.0] + [1.0] * 4, atol=1e-12)


def test_spectrum_path_frozen(path4):
    spec = steklov_spectrum(path4)
    np.testing.assert_allclose(spec.eigenvalues, [0.0, 0.5], atol=1e-12)


def test_spectrum_indexing(ball32):
    spec = steklov_spectrum(ball32)
    assert spec.eigenvalue(1) == pytest.approx(0.0, abs=1e-12)
    assert spec.eigenvalue(6) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(BadIndexError):
        spec.eigenvalue(0)
    with pytest.raises(BadIndexError):
        spec.eigenfunction(7)


def test_eigenfunctions_satisfy_steklov_equations(caterpillar):
    spec = steklov_spectrum(caterpillar)
    from steklov_trees import laplacian_apply, normal_derivative

    for k in range(1, caterpillar.n_boundary + 1):
        f = spec.eigenfunction(k)
        lam = spec.eigenvalue(k)
        interior = laplacian_apply(f).values[list(caterpillar.interior)]
        assert np.abs(interior).max() < 1e-9
        flux = normal_derivative(f).values
        np.testing.assert_allclose(flux, lam * f.boundary_values(), atol=1e-9)


@given(n=st.integers(5, 45), cap=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_spectrum_matches_brute_force(n, cap, seed):
    t = gen_random_tree(n, cap, seed)
    spec = steklov_spectrum(t)
    np.testing.assert_allclose(
        spec.eigenvalues, steklov_eigs_brute(t.n, t.edges), atol=1e-9)


def test_steklov_lambda_routes_agree(ball32):
    spec = steklov_spectrum(ball32)
    for k in (1, 2, 6):
        alone = steklov_lambda(ball32, k)  # no spectrum given: bisected, at any size
        bis = steklov_eigenvalue_bisect(ball32, k)
        cached = steklov_lambda(ball32, k, spectrum=spec)
        assert alone == pytest.approx(bis, abs=1e-9)
        assert cached == pytest.approx(alone, abs=1e-12)


# -- Rayleigh quotients ----------------------------------------------------------------

def test_rayleigh_constants_are_zero(ball32):
    assert rayleigh_quotient(VertexFunction(ball32, np.full(10, 3.0))) == 0.0


def test_rayleigh_path_linear(path4):
    f = VertexFunction(path4, [0.0, 1.0, 2.0, 3.0, 4.0])
    assert rayleigh_quotient(f) == pytest.approx(4.0 / 16.0, rel=1e-15)


def test_rayleigh_zero_and_interior_support(ball32):
    with pytest.raises(ZeroFunctionError):
        rayleigh_quotient(VertexFunction(ball32, np.zeros(10)))
    vals = np.zeros(10)
    vals[0] = 1.0  # interior bump, zero on the boundary
    assert rayleigh_quotient(VertexFunction(ball32, vals)) == float("inf")


@given(n=st.integers(5, 40), cap=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_rayleigh_bounds_lambda2(n, cap, seed):
    # variational principle: any boundary-mean-zero function bounds lambda_2
    t = gen_random_tree(n, cap, seed)
    rng = np.random.default_rng(seed % 2**31)
    vals = rng.standard_normal(t.n)
    bidx = list(t.boundary)
    vals[bidx] -= np.mean(vals[bidx])
    if not np.any(np.abs(vals[bidx]) > 1e-9):
        vals[bidx[0]] += 1.0
        vals[bidx[1]] -= 1.0
    lam2 = steklov_spectrum(t).lambda2
    assert lam2 <= rayleigh_quotient(VertexFunction(t, vals)) + 1e-8


# -- exact variational check ------------------------------------------------------------

def test_variational_check_ball32_k3(ball32):
    cert = partition_k(ball32, 3)
    fns = multiway_test_functions(ball32, cert)
    assert variational_upper_check(ball32, fns, 3) is True


def test_variational_check_validation(ball32):
    ones = VertexFunction(ball32, np.ones(10))
    with pytest.raises(DimensionMismatchError):
        variational_upper_check(ball32, [ones], 3)
    with pytest.raises(NotOrthogonalError):
        variational_upper_check(ball32, [ones, ones], 3)
    vals = np.zeros(10)
    vals[4], vals[5] = 1.0, -1.0
    f = VertexFunction(ball32, vals)
    with pytest.raises(DimensionMismatchError):
        # same function twice: rank 1, not 2
        variational_upper_check(ball32, [f, f], 3)


def test_variational_check_path_diameter_function(path4):
    from steklov_trees import diameter_test_function

    f = diameter_test_function(path4)
    assert rayleigh_quotient(f) == pytest.approx(0.5, abs=1e-12)
    assert variational_upper_check(path4, [f], 2) is True


def _span_max(fns: list[VertexFunction]) -> float:
    return spectra._span_rayleigh_max(fns[0].tree, np.array([f.values for f in fns]))


def test_span_max_of_disjoint_family_is_best_member(ball32):
    # about one random multiway family in seven has disjoint gradients
    rng = random.Random(4)
    trees = [ball32] + [gen_random_tree(rng.randint(6, 50), rng.randint(3, 6),
                                        rng.randrange(2**32)) for _ in range(150)]
    checked = 0
    for i, t in enumerate(trees):
        k = 3 + i % 3
        if t.n_boundary < k:
            continue
        try:
            fns = multiway_test_functions(t, partition_k(t, k))
        except PartTooSmallError:
            continue
        if gradient_supports_disjoint(fns):
            best = max(rayleigh_quotient(f) for f in fns)
            assert _span_max(fns) == pytest.approx(best, rel=1e-12)
            checked += 1
    assert checked >= 10


def test_span_max_bounds_random_directions():
    t = gen_random_tree(40, 4, 2024)
    rng = np.random.default_rng(7)
    basis = rng.standard_normal((4, t.n))
    bidx = np.array(t.boundary)
    basis[:, bidx] -= basis[:, bidx].mean(axis=1, keepdims=True)
    fns = [VertexFunction(t, row) for row in basis]
    top = _span_max(fns)
    coeffs = rng.standard_normal((10_000, 4))
    vals = coeffs @ basis
    diffs = vals[:, t.edge_u] - vals[:, t.edge_v]
    quotients = (diffs * diffs).sum(axis=1) / (vals[:, bidx] ** 2).sum(axis=1)
    assert quotients.max() <= top * (1 + 1e-12)
    for f in fns:
        assert rayleigh_quotient(f) <= top * (1 + 1e-12)


def test_span_max_is_infinite_when_a_combination_vanishes_on_the_boundary(ball32):
    g = np.zeros(10)
    g[[4, 5]], g[[6, 7]] = 1.0, -1.0
    bump = g.copy()
    bump[0] = 1.0  # same boundary values, different interior
    fns = [VertexFunction(ball32, g), VertexFunction(ball32, bump)]
    assert _span_max(fns) == float("inf")
    assert variational_upper_check(ball32, fns, 3) is True


def test_variational_check_takes_more_than_32_functions():
    leaves = 40
    t = build_tree([(0, j) for j in range(1, leaves + 1)])
    k = 35
    fns = []
    for j in range(2, k + 1):
        vals = np.zeros(t.n)
        vals[j], vals[1] = 1.0, -1.0
        fns.append(VertexFunction(t, vals))
    # a star's spectrum is 0 and then 1; every combination has R = 1
    assert _span_max(fns) == pytest.approx(1.0, rel=1e-12)
    assert variational_upper_check(t, fns, k) is True


# -- non-finite spectra ---------------------------------------------------------

def _poison(what: str, w, q, lap, t):
    if what == "lowest":
        w[0] = np.nan
    elif what == "second":
        w[1] = np.nan
    elif what == "top":
        w[-1] = np.nan
    elif what == "interior":
        lap[t.interior[0], 1] = np.nan
    else:
        q[0, 1] = np.nan


@pytest.mark.parametrize("what,match", [
    ("lowest", "lowest eigenvalue"), ("second", "second eigenvalue"),
    ("top", "top eigenvalue"), ("interior", "eigenpair residuals"),
    ("basis", "eigenpair residuals"),
])
def test_spectrum_check_fails_on_nan(what, match):
    # every comparison with NaN is false, so each check is written to fail on it
    t = build_tree(BALL32_EDGES)
    s = steklov_spectrum(t)
    w, q = s.eigenvalues.copy(), s.boundary_basis.copy()
    lap = laplacian_apply_matrix(t, s.extensions)
    spectra._check_spectrum(t, w, q, lap, spectra.DEFAULT_TOL)  # healthy
    _poison(what, w, q, lap, t)
    with pytest.raises(InvariantViolationError, match=match):
        spectra._check_spectrum(t, w, q, lap, spectra.DEFAULT_TOL)
