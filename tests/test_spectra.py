from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steklov_trees import (
    BadIndexError,
    DimensionMismatchError,
    NotOrthogonalError,
    NotSymmetricError,
    VertexFunction,
    ZeroFunctionError,
    build_tree,
    dtn_matrix,
    eigendecompose_symmetric,
    gen_ball,
    gen_path,
    gen_random_tree,
    multiway_test_functions,
    partition_k,
    rayleigh_quotient,
    steklov_eigenvalue_bisect,
    steklov_lambda,
    steklov_spectrum,
    variational_upper_check,
)

from _oracle import steklov_eigs_brute

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
        dense = steklov_lambda(ball32, k, method="dense")
        bis = steklov_lambda(ball32, k, method="bisect")
        cached = steklov_lambda(ball32, k, spectrum=spec)
        assert dense == pytest.approx(bis, abs=1e-9)
        assert cached == pytest.approx(dense, abs=1e-12)
    with pytest.raises(ValueError):
        steklov_lambda(ball32, 2, method="qr")


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


# -- sampled variational check -----------------------------------------------------------

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
