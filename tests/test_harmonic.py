from __future__ import annotations

import dataclasses
import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from steklov_trees import (
    BoundaryFunction,
    DimensionMismatchError,
    HarmonicResidualError,
    InvariantViolationError,
    VertexFunction,
    build_tree,
    dtn_matrix,
    gen_ball,
    gen_random_tree,
    harmonic_extension,
    laplacian_apply,
    normal_derivative,
)
from steklov_trees import harmonic
from steklov_trees.harmonic import DtnMatrix, _batch, _extend, laplacian_apply_matrix
from steklov_trees.spectra import eigendecompose_symmetric

from _oracle import (
    dtn_brute,
    extend_columns_oracle,
    harmonic_extension_brute,
    interior_solver_oracle,
    laplacian_apply_matrix_oracle,
    laplacian_brute,
)
from conftest import shapes

RTOL = 1e-12


# -- vertex/boundary function containers -------------------------------------------

def test_vertex_function_validation(path4):
    f = VertexFunction(path4, [0.0, 1.0, 2.0, 3.0, 4.0])
    assert f.boundary_values().tolist() == [0.0, 4.0]
    with pytest.raises(InvariantViolationError):
        VertexFunction(path4, [1.0, 2.0])
    with pytest.raises(InvariantViolationError):
        VertexFunction(path4, [0.0, np.nan, 0.0, 0.0, 0.0])


def test_boundary_function_validation(star5):
    BoundaryFunction(star5, np.ones(5))
    with pytest.raises(InvariantViolationError):
        BoundaryFunction(star5, np.ones(6))
    with pytest.raises(InvariantViolationError):
        BoundaryFunction(star5, [np.inf] * 5)


# -- Laplacian and normal derivative ------------------------------------------------

def test_laplacian_matches_matrix(ball32):
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(ball32.n)
    got = laplacian_apply(VertexFunction(ball32, vals)).values
    want = laplacian_brute(ball32.n, ball32.edges) @ vals
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=1e-14)


def test_normal_derivative_path(path4):
    # linear function on a path is harmonic; flux is the edge increment
    f = VertexFunction(path4, [0.0, 1.0, 2.0, 3.0, 4.0])
    nd = normal_derivative(f)
    np.testing.assert_allclose(nd.values, [-1.0, 1.0], rtol=RTOL)


# -- harmonic extension --------------------------------------------------------------

def test_extension_path_is_linear(path4):
    f = harmonic_extension(path4, np.array([0.0, 1.0]))
    np.testing.assert_allclose(f.values, [0.0, 0.25, 0.5, 0.75, 1.0], rtol=RTOL, atol=1e-15)


def test_extension_star_is_mean(star5):
    g = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    f = harmonic_extension(star5, g)
    assert f.values[0] == pytest.approx(3.0, rel=RTOL)
    np.testing.assert_allclose(f.boundary_values(), g, rtol=RTOL)


def test_extension_constant_stays_constant(ball32):
    f = harmonic_extension(ball32, np.full(6, 2.5))
    np.testing.assert_allclose(f.values, 2.5, rtol=RTOL)


def test_extension_rejects_bad_shape(ball32):
    # an input fault, like boundary data of another tree, not a package fault
    for g in (np.ones(5), np.ones(7), np.ones((6, 1))):
        with pytest.raises(DimensionMismatchError, match="length 6"):
            harmonic_extension(ball32, g)


def test_extension_rejects_boundary_data_of_another_tree(ball32):
    g = BoundaryFunction(gen_ball(3, 1), np.array([1.0, 2.0, 3.0]))
    # three boundary vertices, as on gen_ball(3, 1), then six
    for t in (build_tree([(0, 1), (1, 2), (2, 3), (2, 4)]), ball32):
        with pytest.raises(DimensionMismatchError, match="different tree"):
            harmonic_extension(t, g)
    np.testing.assert_allclose(harmonic_extension(g.tree, g).values, [2.0, 1.0, 2.0, 3.0])


@given(
    n=st.integers(4, 45),
    cap=st.integers(2, 6),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_extension_matches_dense_solve(n, cap, seed, data):
    t = gen_random_tree(n, cap, seed)
    g = data.draw(arrays(np.float64, (t.n_boundary,),
                         elements=st.floats(-10, 10, allow_nan=False)))
    f = harmonic_extension(t, g)
    want = harmonic_extension_brute(t.n, t.edges, g)
    np.testing.assert_allclose(f.values, want, rtol=1e-10, atol=1e-10)
    # maximum principle: interior values within the boundary range
    assert f.values.min() >= g.min() - 1e-10
    assert f.values.max() <= g.max() + 1e-10


@given(n=st.integers(4, 45), cap=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_extension_interior_residual_zero(n, cap, seed):
    t = gen_random_tree(n, cap, seed)
    rng = np.random.default_rng(seed % 2**31)
    f = harmonic_extension(t, rng.standard_normal(t.n_boundary))
    res = laplacian_apply(f).values[list(t.interior)]
    assert np.abs(res).max() < 1e-9


# -- boundary response matrix ---------------------------------------------------------

def test_dtn_ball32_frozen(ball32):
    # same-branch leaves couple at -7/18, cross-branch at -1/18
    got = dtn_matrix(ball32).entries * 18.0
    want = np.full((6, 6), -1.0)
    for i in range(6):
        want[i, i] = 11.0
    for a, b in ((0, 1), (2, 3), (4, 5)):
        want[a, b] = want[b, a] = -7.0
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_dtn_star_frozen(star5):
    got = dtn_matrix(star5).entries
    want = (np.eye(5) - np.full((5, 5), 0.2))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)


def test_dtn_path_frozen(path4):
    got = dtn_matrix(path4).entries
    np.testing.assert_allclose(got, [[0.25, -0.25], [-0.25, 0.25]], rtol=1e-12)


def test_dtn_apply(ball32):
    # the response to boundary data is the matrix product
    mat = dtn_matrix(ball32)
    assert mat.size == 6
    g = np.arange(6.0)
    flux = normal_derivative(harmonic_extension(ball32, g)).values
    np.testing.assert_allclose(flux, mat.entries @ g, rtol=RTOL, atol=1e-14)


def test_dtn_validate_catches_tampering(ball32):
    mat = dtn_matrix(ball32)
    bad = mat.entries.copy()
    bad[0, 1] += 1e-3
    with pytest.raises(InvariantViolationError):
        type(mat)(ball32, bad).validate()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_dtn_validate_rejects_non_finite_entries(value):
    # every comparison with NaN is false, so each check is written to fail on it
    one = dtn_matrix(gen_ball(3, 2)).entries.copy()
    one[2, 2] = value
    with np.errstate(invalid="ignore"):  # inf - inf
        with pytest.raises(InvariantViolationError, match="asymmetry nan"):
            DtnMatrix(gen_ball(3, 2), np.full((6, 6), value)).validate()
        with pytest.raises(InvariantViolationError):
            DtnMatrix(gen_ball(3, 2), one).validate()


def test_a_nan_residual_fails_the_assembly_and_the_extension(ball32, monkeypatch):
    real_extend = harmonic._extend
    monkeypatch.setattr(harmonic, "_extend", lambda b, g: np.full_like(real_extend(b, g), np.nan))
    with pytest.raises(HarmonicResidualError, match="interior residual nan"):
        harmonic.dtn_matrices([ball32])
    monkeypatch.undo()
    # a VertexFunction holds no NaN, so the extension's residual comes in patched
    monkeypatch.setattr(harmonic, "laplacian_apply",
                        lambda f: SimpleNamespace(values=np.full(f.tree.n, np.nan)))
    with pytest.raises(HarmonicResidualError, match="interior residual nan"):
        harmonic_extension(ball32, np.ones(ball32.n_boundary))


@given(n=st.integers(4, 45), cap=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_dtn_matches_schur_complement(n, cap, seed):
    t = gen_random_tree(n, cap, seed)
    got = dtn_matrix(t).entries
    bnd, want = dtn_brute(t.n, t.edges)
    assert list(t.boundary) == bnd
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)


@given(n=st.integers(4, 45), cap=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_dtn_flux_is_matrix_times_data(n, cap, seed):
    t = gen_random_tree(n, cap, seed)
    mat = dtn_matrix(t)
    rng = np.random.default_rng(seed % 2**31)
    g = rng.standard_normal(t.n_boundary)
    flux = normal_derivative(harmonic_extension(t, g)).values
    np.testing.assert_allclose(flux, mat.entries @ g, rtol=1e-9, atol=1e-10)


def test_interior_pivot_check_raises_without_assert():
    # a real check, not an ``assert``: a tree whose degrees understate the
    # root's five interior children drives the root's pivot to 2 - 5/2
    t = gen_ball(5, 2)
    broken = dataclasses.replace(t, degrees=np.minimum(t.degrees, 2))
    with pytest.raises(InvariantViolationError, match="pivot"):
        dtn_matrix(broken)


def test_interior_elimination_check_raises_on_a_cycle(ball32):
    # bypasses build_tree's validation: an interior triangle has no leaf,
    # so the diameter that finds the elimination's centre has no boundary ends
    cyc = dataclasses.replace(
        ball32, n=3, degrees=np.array([2, 2, 2]), neighbors=((1, 2), (0, 2), (0, 1)),
        boundary=(), interior=(0, 1, 2), boundary_pos=np.full(3, -1))
    with pytest.raises(InvariantViolationError, match="diameter path"):
        dtn_matrix(cyc)


# -- level schedule against the one-vertex-at-a-time elimination -----------------------

def _same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    # tobytes, not array_equal: -0.0 == 0.0, but their bits differ
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@given(t=shapes, seed=st.integers(0, 2**31), k=st.integers(1, 5))
def test_extension_and_laplacian_bytes_match_the_scalar_elimination(t, seed, k):
    m = t.n_boundary
    _, q = eigendecompose_symmetric(dtn_matrix(t).entries)
    rng = np.random.default_rng(seed)
    for g in (np.eye(m), rng.standard_normal((m, k)), q, -q):
        ext = _extend(_batch((t,)), g)
        _same_bytes(ext, extend_columns_oracle(t, g))
        _same_bytes(laplacian_apply_matrix(t, ext), laplacian_apply_matrix_oracle(t, ext))
    # one column, through the public entry points
    g = -q[:, rng.integers(m)]
    f = harmonic_extension(t, g)
    want = extend_columns_oracle(t, g[:, None])[:, 0]
    _same_bytes(f.values, want)
    lap = laplacian_apply_matrix_oracle(t, want[:, None])[:, 0]
    _same_bytes(laplacian_apply(f).values, lap)
    _same_bytes(normal_derivative(f).values, lap[list(t.boundary)])


@given(t=shapes)
def test_interior_order_and_pivot_bytes_match_the_scalar_elimination(t):
    sol = _batch((t,)).solver
    want = interior_solver_oracle(t)
    _same_bytes(sol.vertices, want.order)
    _same_bytes(sol.inv_piv[:, 0], want.inv_piv[want.order])


def test_interior_height_order_check_raises_without_assert(ball32):
    # a real check, not an ``assert``: in a forest of two interior parts the
    # search from the centre, vertex 0, never reaches the second part's
    # lone vertex
    forest = dataclasses.replace(
        ball32, n=7, degrees=np.array([2, 2, 2, 1, 1, 1, 1]),
        neighbors=((1, 3), (0, 4), (5, 6), (0,), (1,), (2,), (2,)),
        boundary=(3, 4, 5, 6), interior=(0, 1, 2),
        boundary_pos=np.array([-1, -1, -1, 0, 1, 2, 3]))
    with pytest.raises(InvariantViolationError, match="reached 2 of 3"):
        dtn_matrix(forest)


def test_interior_schedule_dies_with_its_tree():
    t, other = gen_ball(3, 4), gen_ball(3, 2)
    b = _batch((t,))
    assert _batch((t,)) is b
    pair = _batch((t, other))
    assert _batch((t, other)) is pair and _batch((other, t)) is not pair
    refs = weakref.ref(t), weakref.ref(b), weakref.ref(pair)
    del t, b, pair
    gc.collect()
    assert [r() for r in refs] == [None, None, None]
