from __future__ import annotations

import gc
import hashlib
import json
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steklov_trees import (
    DimensionMismatchError,
    InfeasibleKError,
    InvariantViolationError,
    PartitionCertificate,
    PartTooSmallError,
    SubtreeRef,
    VertexFunction,
    build_tree,
    diameter,
    diameter_test_function,
    gen_ball,
    gen_random_tree,
    gradient_supports_disjoint,
    multiway_test_functions,
    partition_k,
    partition_two,
    partition_two_optimal,
    rayleigh_quotient,
    steklov_spectrum,
    two_level_rayleigh_exact,
    two_level_test_function,
)
from steklov_trees import graph_core, partitions
from steklov_trees.generators import generate_family
from steklov_trees.partitions import _kernel_ints

from conftest import shapes
from _oracle import (
    best_split_brute,
    best_split_edge_brute,
    boundary_fraction_brute,
    branch_components_oracle,
    descend_brute,
    descend_oracle,
    diameter_system_oracle,
    diameter_test_function_oracle,
    gradient_supports_disjoint_oracle,
    multiway_test_functions_oracle,
    partition_k_oracle,
    partition_two_oracle,
    preorder_oracle,
)

STAR4_EDGES = ((0, 1), (0, 2), (0, 3), (0, 4))


# -- two-way split -----------------------------------------------------------------

def test_partition_two_star4():
    t = build_tree(STAR4_EDGES)
    cert = partition_two(t)
    assert cert.fractions == (Fraction(1, 4),)
    assert cert.interval == (Fraction(1, 6), Fraction(1, 2))
    assert cert.parts[0].size == 1


def test_partition_two_ball32(ball32):
    cert = partition_two(ball32)
    assert cert.fractions == (Fraction(1, 3),)
    assert cert.parts[0].vertices == frozenset({2, 6, 7})
    assert cert.removed_edges == ((0, 2),)
    cert.validate()


def test_partition_two_path(path4):
    cert = partition_two(path4)
    assert cert.fractions == (Fraction(1, 2),)
    assert cert.interval == (Fraction(1, 2), Fraction(1, 2))  # D = 2


def test_certificate_json(ball32):
    obj = partition_two(ball32).to_json_dict()
    assert obj["fractions"] == ["1/3"]
    assert obj["interval"] == ["1/4", "1/2"]
    assert obj["parts"] == [[2, 6, 7]]
    assert obj["removed_edges"] == [[0, 2]]


def test_certificate_validate_catches_tampering(ball32):
    good = partition_two(ball32)
    bad = PartitionCertificate(
        tree=ball32,
        removed_edges=good.removed_edges,
        parts=good.parts,
        fractions=(Fraction(1, 2),),  # doctored
        interval=good.interval,
    )
    with pytest.raises(InvariantViolationError):
        bad.validate()
    not_edge = PartitionCertificate(
        tree=ball32,
        removed_edges=((4, 5),),
        parts=good.parts,
        fractions=good.fractions,
        interval=good.interval,
    )
    with pytest.raises(InvariantViolationError):
        not_edge.validate()
    # a part whose stored boundary is not its own, with the fraction to match
    part = good.parts[0]
    wrong_boundary = PartitionCertificate(
        tree=ball32,
        removed_edges=good.removed_edges,
        parts=(SubtreeRef(ball32, part.ids, (4, 5, 6)),),
        fractions=(Fraction(1, 2),),
        interval=good.interval,
    )
    with pytest.raises(InvariantViolationError, match="declared boundary"):
        wrong_boundary.validate()
    # an edge of the tree that does not cut the part {2, 6, 7} off
    uncut = PartitionCertificate(
        tree=ball32,
        removed_edges=((0, 1),),
        parts=good.parts,
        fractions=good.fractions,
        interval=good.interval,
    )
    with pytest.raises(InvariantViolationError, match="does not cut"):
        uncut.validate()
    # a disconnected part, {4, 6}: cut off by (1, 4), with its true fraction
    # 2/6 inside the interval, it fails only the connectivity re-derivation
    disconnected = PartitionCertificate(
        tree=ball32,
        removed_edges=((1, 4),),
        parts=(SubtreeRef(ball32, np.array([4, 6]), (4, 6)),),
        fractions=(Fraction(1, 3),),
        interval=good.interval,
    )
    with pytest.raises(InvariantViolationError, match="connected"):
        disconnected.validate()
    # a part naming a vertex the tree does not have
    outside = PartitionCertificate(
        tree=ball32,
        removed_edges=((1, 4),),
        parts=(SubtreeRef(ball32, np.array([4, 10]), (4,)),),
        fractions=(Fraction(1, 6),),
        interval=(Fraction(1, 6), Fraction(1, 2)),
    )
    with pytest.raises(InvariantViolationError, match="outside"):
        outside.validate()
    # a negative id, which an index mask would read as a vertex from the end
    negative = PartitionCertificate(
        tree=ball32,
        removed_edges=((1, 4),),
        parts=(SubtreeRef(ball32, np.array([-1, 4]), (4,)),),
        fractions=(Fraction(1, 6),),
        interval=(Fraction(1, 6), Fraction(1, 2)),
    )
    with pytest.raises(InvariantViolationError, match="outside"):
        negative.validate()
    # the same part twice, each cut off by its own edge
    overlap = PartitionCertificate(
        tree=ball32,
        removed_edges=((0, 2), (2, 6)),
        parts=(part, part),
        fractions=(Fraction(1, 3), Fraction(1, 3)),
        interval=(Fraction(1, 6), Fraction(1, 2)),
    )
    with pytest.raises(InvariantViolationError, match="not pairwise disjoint"):
        overlap.validate()
    # the part {2, 6, 7} with one of its ids twice: two edges for four ids
    repeated = PartitionCertificate(
        tree=ball32,
        removed_edges=good.removed_edges,
        parts=(SubtreeRef(ball32, np.array([2, 6, 6, 7]), part.relative_boundary),),
        fractions=good.fractions,
        interval=good.interval,
    )
    with pytest.raises(InvariantViolationError, match="connected"):
        repeated.validate()


@given(n=st.integers(4, 50), cap=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_partition_two_certified_interval(n, cap, seed):
    t = gen_random_tree(n, cap, seed)
    cert = partition_two(t)
    cert.validate()
    lo, hi = cert.interval
    assert lo == Fraction(1, 2 * (t.max_degree - 1))
    assert hi == Fraction(1, 2)
    assert lo <= cert.fractions[0] <= hi


@given(n=st.integers(4, 50), cap=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_partition_two_optimal_is_brute_force_best(n, cap, seed):
    t = gen_random_tree(n, cap, seed)
    opt = partition_two_optimal(t)
    assert opt.fractions[0] == best_split_brute(t.n, t.edges)
    # exhaustive scan can only improve on the descent
    assert opt.fractions[0] >= partition_two(t).fractions[0]


def test_partition_two_optimal_frozen(ball32, star5):
    assert partition_two_optimal(ball32).fractions == (Fraction(1, 3),)
    assert partition_two_optimal(star5).fractions == (Fraction(1, 5),)


@given(n=st.integers(4, 50), cap=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_partition_two_optimal_matches_brute_edge_and_part(n, cap, seed):
    t = gen_random_tree(n, cap, seed)
    opt = partition_two_optimal(t)
    edge, part = best_split_edge_brute(t.n, t.edges)
    assert opt.removed_edges == (edge,)
    assert opt.parts[0].vertices == part


@pytest.mark.parametrize("edges", [
    ((0, 1), (1, 2), (2, 3), (3, 4)),                  # every edge splits 1/2
    ((0, 4), (1, 4), (2, 5), (3, 5), (4, 5)),          # vertex 0 on a leaf side
    ((0, 1), (0, 2), (0, 3), (3, 4), (3, 5)),          # vertex 0 at a centre
])
def test_partition_two_optimal_tie_at_half_keeps_vertex_zero(edges):
    t = build_tree(edges)
    opt = partition_two_optimal(t)
    assert opt.fractions == (Fraction(1, 2),)
    assert 0 in opt.parts[0].vertices
    assert (opt.removed_edges[0], opt.parts[0].vertices) == \
        best_split_edge_brute(t.n, t.edges)


# -- k-way peeling ------------------------------------------------------------------

def test_descent_checks_raise_without_assert(ball32, monkeypatch):
    # real checks, not ``assert``s: they also run under ``python -O``
    half = Fraction(1, 2)
    with pytest.raises(InvariantViolationError, match="at least one edge"):
        partitions._descend(ball32, _mask(ball32, {0}), half, enter_at_equal=False)

    def walk_out(sides, cands):  # always heavy: walks out to a leaf
        return ball32.n_boundary, cands[0]

    monkeypatch.setattr(partitions, "_pick", walk_out)
    with pytest.raises(InvariantViolationError, match="single vertex"):
        partition_two(ball32)

    def turn_back(sides, cands):  # always heavy: bounces around one vertex
        v, w = cands[0]
        return ball32.n_boundary, (w, v)

    monkeypatch.setattr(partitions, "_pick", turn_back)
    with pytest.raises(InvariantViolationError, match="terminate"):
        partition_two(ball32)


def _relabelled(edges, seed):
    n = max(max(e) for e in edges) + 1
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return build_tree([(perm[u], perm[v]) for u, v in edges])


def _caterpillar(legs):
    spine = len(legs)
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i, c in enumerate(legs):
        for _ in range(c + (i in (0, spine - 1))):  # spine ends get a leg too
            edges.append((i, nxt))
            nxt += 1
    return edges


# balls, stars and caterpillars tie a lot, so they exercise every tie rule
_TIE_HEAVY_TREES = st.one_of(
    st.builds(lambda d, r: [tuple(e) for e in gen_ball(d, r).edges],
              st.integers(3, 5), st.integers(1, 3)),
    st.builds(lambda s: [(0, i) for i in range(1, s + 1)], st.integers(3, 12)),
    st.builds(_caterpillar, st.lists(st.integers(0, 3), min_size=2, max_size=8)),
)
_DESCENT_TREES = st.one_of(
    st.builds(gen_random_tree, st.integers(4, 40), st.integers(2, 6),
              st.integers(0, 2**32)),
    st.builds(_relabelled, _TIE_HEAVY_TREES, st.integers(0, 2**32)),
)


def _mask(t, vertices):
    """``vertices`` as the bool mask that ``_descend`` takes."""
    out = np.zeros(t.n, dtype=bool)
    out[list(vertices)] = True
    return out


def _descend(t, vertices, tau, **kw):
    """``partitions._descend`` inside ``vertices``, its part as a set like ``descend_brute``'s."""
    part, frac, edge = partitions._descend(t, _mask(t, vertices), tau, **kw)
    return frozenset(part.tolist()), frac, edge


@given(t=_DESCENT_TREES)
def test_descent_matches_brute_force(t):
    half = Fraction(1, 2)
    everything = frozenset(range(t.n))
    assert _descend(t, everything, half, enter_at_equal=False) == \
        descend_brute(t, everything, half, enter_at_equal=False)
    for k in range(3, min(6, t.n_boundary) + 1):
        tau = Fraction(1, k - 1)
        remaining, ports = everything, frozenset()
        for _ in range(k - 1):
            got = _descend(t, remaining, tau, enter_at_equal=True, ports=ports)
            assert got == descend_brute(t, remaining, tau, enter_at_equal=True, ports=ports)
            part, _, edge = got
            # the sub-split of a certified part against its own boundary, as
            # multiway_test_functions runs it (only on parts with two or more)
            total = sum(1 for v in t.boundary if v in part)
            if total >= 2:
                assert _descend(t, part, half, enter_at_equal=False, total=total) \
                    == descend_brute(t, part, half, enter_at_equal=False, total=total)
            remaining -= part
            ports |= {edge[0], edge[1]} & remaining


def _ref_fields(refs):
    out = [(r.tree, r.vertices, r.relative_boundary) for r in refs]
    assert all(type(v) is int for r in refs for v in r.vertices)
    return out


def _cert_fields(cert):
    return (cert.tree, cert.removed_edges, _ref_fields(cert.parts), cert.fractions,
            cert.interval)


# the witness layer against its Fraction-per-step and component-per-branch
# forms: random trees of every shape, and tie-heavy trees under a random
# labelling so that the tie rules meet every id order
_WITNESS_TREES = st.one_of(
    shapes,
    st.builds(_relabelled,
              st.one_of(_TIE_HEAVY_TREES,
                        st.builds(lambda L: [(i, i + 1) for i in range(L)],
                                  st.integers(2, 30))),
              st.integers(0, 2**32)),
)


@given(t=_WITNESS_TREES)
def test_branch_components_and_diameter_function_match_oracle(t):
    path = diameter(t).path
    assert _ref_fields(graph_core.branch_components(t, path)) == \
        _ref_fields(branch_components_oracle(t, path))
    assert diameter_test_function(t).values.tobytes() == \
        diameter_test_function_oracle(t).values.tobytes()


def _descend_both(t, allowed, tau, **kw):
    """``partitions._descend``, checked against the oracle; ``None`` when both raise."""
    try:
        part, frac, edge = partitions._descend(t, allowed, tau, **kw)
    except InvariantViolationError as exc:
        with pytest.raises(InvariantViolationError) as want:
            descend_oracle(t, allowed, tau, **kw)
        assert str(exc) == str(want.value)
        return None
    want_part, want_frac, want_edge = descend_oracle(t, allowed, tau, **kw)
    assert (part.dtype, part.tobytes(), frac, edge) == \
        (want_part.dtype, want_part.tobytes(), want_frac, want_edge)
    return part, frac, edge


@given(t=_WITNESS_TREES, enter_at_equal=st.booleans())
def test_descent_matches_fraction_oracle(t, enter_at_equal):
    taus = [Fraction(1, 2)] + [Fraction(1, k - 1) for k in range(3, min(7, t.n_boundary + 1))]
    for tau in taus:
        # peel as partition_k does, so later descents meet non-empty ports
        remaining = np.ones(t.n, dtype=bool)
        ports: frozenset[int] = frozenset()
        for _ in range(4):
            got = _descend_both(t, remaining, tau, enter_at_equal=enter_at_equal,
                                ports=ports)
            if got is None:
                break
            part, _, edge = got
            # the sub-split of the part against its own boundary
            inside = np.zeros(t.n, dtype=bool)
            inside[part] = True
            total = int(np.count_nonzero(inside[list(t.boundary)]))
            if total:
                _descend_both(t, inside, tau, enter_at_equal=enter_at_equal, total=total)
            remaining[part] = False
            ports |= {v for v in edge if remaining[v]}


@given(t=_WITNESS_TREES, seed=st.integers(0, 2**32))
def test_side_minimum_is_the_gathered_side_minimum(t, seed):
    # _pick breaks ties by each side's smallest id, read by masked minima
    u, v = random.Random(seed).choice(t.edges)
    for part in (range(t.n), graph_core.component_avoiding(t, u, v)):
        allowed = np.zeros(t.n, dtype=bool)
        allowed[list(part)] = True
        sides = partitions._Sides(t, allowed, frozenset())
        for a, b in t.edges:
            if allowed[a] and allowed[b]:
                for e in ((a, b), (b, a)):
                    assert sides.min_id(e) == int(sides.members(e).min())


def test_diameter_witness_zero_is_positive_under_a_negative_lead():
    # two leaves at x_1 of a 6-spine: the kernel's largest entry is
    # negative and a_2 is 0, which the Fraction converts to +0.0
    t = build_tree([(i, i + 1) for i in range(6)] + [(1, 7), (1, 8)])
    vals = diameter_test_function(t).values
    assert vals[2] == 0.0 and not np.signbit(vals[2])
    assert vals.tobytes() == diameter_test_function_oracle(t).values.tobytes()


@given(t=_WITNESS_TREES)
def test_spine_labels_match_branch_components(t):
    path = diameter(t).path
    L = len(path) - 1
    labels, counts = graph_core._spine_labels(t, path)
    want = np.full(t.n, -1)
    want[path[0]], want[path[-1]] = 0, L
    for k, ref in enumerate(graph_core.branch_components(t, path), start=1):
        want[list(ref.vertices)] = k
        assert counts[k] == len(ref.relative_boundary)
    assert labels.tolist() == want.tolist()
    assert (counts[0], counts[L]) == (1, 1)


@given(t=_DESCENT_TREES)
def test_partition_two_and_two_level_function_match_oracle(t):
    cert = partition_two(t)
    assert _cert_fields(cert) == _cert_fields(partition_two_oracle(t))
    # the two-level function as it was built from the sorted part
    beta = cert.fractions[0]
    want = np.full(t.n, float(-beta))
    want[sorted(cert.parts[0].vertices)] = float(1 - beta)
    assert two_level_test_function(t, cert).values.tobytes() == want.tobytes()


@given(t=_DESCENT_TREES)
def test_partition_k_and_multiway_functions_match_oracle(t):
    for k in range(3, min(6, t.n_boundary) + 1):
        cert, want = partition_k(t, k), partition_k_oracle(t, k)
        assert _cert_fields(cert) == _cert_fields(want)
        try:
            ref = multiway_test_functions_oracle(t, want)
        except PartTooSmallError:
            with pytest.raises(PartTooSmallError):
                multiway_test_functions(t, cert)
            continue
        got = multiway_test_functions(t, cert)
        assert [f.values.tobytes() for f in got] == [f.values.tobytes() for f in ref]


_PATH_EDGES = st.builds(lambda n: [(i, i + 1) for i in range(n)], st.integers(2, 40))


@given(t=st.one_of(_DESCENT_TREES, st.builds(build_tree, _PATH_EDGES),
                   st.builds(_relabelled, _PATH_EDGES, st.integers(0, 2**32))))
def test_preorder_from_rooted_index_matches_depth_first_search(t):
    got, want = graph_core._preorder(t), preorder_oracle(t)
    assert (got.order, got.tin, got.tout) == (want.order, want.tin, want.tout)
    assert got.pre.tobytes() == want.pre.tobytes()
    assert got.boundary.tobytes() == want.boundary.tobytes()
    # the root's parent differs by convention (itself, against -1)
    assert got.parent[1:] == want.parent[1:]
    assert got.parent is graph_core._rooted_index(t).parent


def test_preorder_index_dies_with_its_tree():
    t = gen_ball(3, 4)
    idx = graph_core._preorder(t)
    assert graph_core._preorder(t) is idx
    assert idx.order == idx.pre.tolist()
    assert sorted(idx.pre.tolist()) == list(range(t.n))
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is None


def test_partition_k_ball32(ball32):
    cert = partition_k(ball32, 3)
    assert cert.fractions == (Fraction(1, 3), Fraction(1, 3))
    assert cert.parts[0].vertices == frozenset({2, 6, 7})
    # second extraction avoids the port vertex 0 left by the first cut
    assert cert.parts[1].vertices == frozenset({1, 4, 5})
    assert cert.interval == (Fraction(1, 4), Fraction(1, 2))


def test_partition_k_star_takes_single_leaves(star5, k13):
    cert = partition_k(star5, 3)
    assert cert.fractions == (Fraction(1, 5), Fraction(1, 5))
    assert all(ref.size == 1 for ref in cert.parts)
    assert partition_k(k13, 3).fractions == (Fraction(1, 3), Fraction(1, 3))


def test_partition_k_infeasible(ball32):
    with pytest.raises(InfeasibleKError):
        partition_k(ball32, 2)
    with pytest.raises(InfeasibleKError):
        partition_k(ball32, 7)  # m = 6


@given(n=st.integers(5, 50), cap=st.integers(2, 6), seed=st.integers(0, 2**32),
       k=st.integers(3, 5))
def test_partition_k_certified_interval(n, cap, seed, k):
    t = gen_random_tree(n, cap, seed)
    if t.n_boundary < k:
        return
    cert = partition_k(t, k)
    cert.validate()
    assert len(cert.parts) == k - 1
    lo, hi = cert.interval
    assert lo == Fraction(1, (t.max_degree - 1) * (k - 1))
    assert hi == Fraction(1, k - 1)
    for ref, frac in zip(cert.parts, cert.fractions):
        assert lo <= frac <= hi
        assert frac == boundary_fraction_brute(t.n, t.edges, ref.vertices)


# -- two-level test function ----------------------------------------------------------

def test_two_level_exact_ball32(ball32):
    cert = partition_two(ball32)
    assert two_level_rayleigh_exact(cert) == Fraction(3, 4)
    f = two_level_test_function(ball32, cert)
    assert rayleigh_quotient(f) == pytest.approx(0.75, rel=1e-14)
    assert f.boundary_values().sum() == pytest.approx(0.0, abs=1e-12)
    # values are the two levels 1 - beta and -beta
    levels = sorted(set(np.round(f.values, 12)))
    assert levels == [pytest.approx(-1 / 3), pytest.approx(2 / 3)]


@given(n=st.integers(4, 50), cap=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_two_level_chain(n, cap, seed):
    t = gen_random_tree(n, cap, seed)
    cert = partition_two(t)
    exact = two_level_rayleigh_exact(cert)
    f = two_level_test_function(t, cert)
    got = rayleigh_quotient(f)
    assert got == pytest.approx(float(exact), rel=1e-12)
    cap_value = Fraction(4 * (t.max_degree - 1), t.n_boundary)
    assert exact <= cap_value
    assert steklov_spectrum(t).lambda2 <= got + 1e-8


# -- multiway test functions -----------------------------------------------------------

def test_multiway_ball32(ball32):
    cert = partition_k(ball32, 3)
    fns = multiway_test_functions(ball32, cert)
    assert len(fns) == 2
    for f, plus, minus in zip(fns, ({2, 7}, {1, 5}), ({6}, {4})):
        for v in plus:
            assert f.values[v] == pytest.approx(0.5)
        for v in minus:
            assert f.values[v] == pytest.approx(-0.5)
        assert rayleigh_quotient(f) == pytest.approx(2.5, rel=1e-14)
        assert f.boundary_values().sum() == pytest.approx(0.0, abs=1e-12)
    assert gradient_supports_disjoint(fns)
    lam3 = steklov_spectrum(ball32).eigenvalue(3)
    assert lam3 <= max(rayleigh_quotient(f) for f in fns) + 1e-8


def test_multiway_single_leaf_part_raises(star5):
    with pytest.raises(PartTooSmallError):
        multiway_test_functions(star5, partition_k(star5, 3))


def test_gradient_overlap_detected(path4):
    f1 = VertexFunction(path4, [1.0, 0.0, 0.0, 0.0, -1.0])
    f2 = VertexFunction(path4, [2.0, 0.0, 0.0, 0.0, -2.0])
    assert not gradient_supports_disjoint([f1, f2])
    assert gradient_supports_disjoint([])


def test_gradient_supports_of_two_trees_are_rejected_in_either_order(path4, ball32):
    on_path = VertexFunction(path4, [1.0, 0.0, 0.0, 0.0, -1.0])
    on_ball = VertexFunction(ball32, np.arange(ball32.n, dtype=float))
    for fns in ([on_path, on_ball], [on_ball, on_path]):
        with pytest.raises(DimensionMismatchError, match="different tree"):
            gradient_supports_disjoint(fns)


# values a test function takes on its support: zero gradients, equal values on
# neighbours, and differences down to the smallest subnormal
_GRADIENT_VALUES = (0.0, 1.0, -1.0, 0.5, 2.0, 5e-324, 1e300)


@given(n=st.integers(3, 30), cap=st.integers(2, 5), seed=st.integers(0, 2**32),
       supports=st.lists(st.lists(st.tuples(st.integers(0, 10**6),
                                            st.sampled_from(_GRADIENT_VALUES)),
                                  max_size=4),
                         max_size=5))
def test_gradient_supports_disjoint_matches_pairwise_oracle(n, cap, seed, supports):
    """Small random supports: disjoint, touching and overlapping families alike."""
    t = gen_random_tree(n, cap, seed)
    fns = []
    for support in supports:
        vals = np.zeros(t.n)
        for v, x in support:
            vals[v % t.n] = x
        fns.append(VertexFunction(t, vals))
    assert gradient_supports_disjoint(fns) == gradient_supports_disjoint_oracle(fns)


@given(t=_DESCENT_TREES, k=st.integers(3, 6))
def test_gradient_supports_of_multiway_functions_match_pairwise_oracle(t, k):
    if t.n_boundary < k:
        return
    try:
        fns = multiway_test_functions(t, partition_k(t, k))
    except PartTooSmallError:
        return
    assert gradient_supports_disjoint(fns) == gradient_supports_disjoint_oracle(fns)


@given(n=st.integers(6, 50), cap=st.integers(3, 6), seed=st.integers(0, 2**32),
       k=st.integers(3, 5))
def test_multiway_chain(n, cap, seed, k):
    t = gen_random_tree(n, cap, seed)
    if t.n_boundary < k:
        return
    cert = partition_k(t, k)
    try:
        fns = multiway_test_functions(t, cert)
    except PartTooSmallError:
        return
    d = t.max_degree
    cap_value = 8 * (d - 1) ** 2 * (k - 1) / t.n_boundary
    worst = max(rayleigh_quotient(f) for f in fns)
    assert worst <= cap_value + 1e-8
    if gradient_supports_disjoint(fns):
        lam_k = steklov_spectrum(t).eigenvalue(k)
        assert lam_k <= worst + 1e-8


# -- diameter test function -------------------------------------------------------------

def test_diameter_system_path(path4):
    a, path, counts = diameter_system_oracle(path4)
    assert a.shape == (3, 4)
    assert path == [0, 1, 2, 3, 4]
    assert counts == [0, 0, 0]
    # closed form for a bare path: a_k = L - 2k lies in the null space
    sol = np.array([4.0, 2.0, 0.0, -2.0])
    np.testing.assert_allclose(a @ sol, 0.0, atol=1e-12)


def test_diameter_function_k13(k13):
    f = diameter_test_function(k13)
    np.testing.assert_allclose(f.values, [0.0, 1.0, -1.0, 0.0], atol=1e-12)
    assert rayleigh_quotient(f) == pytest.approx(1.0, rel=1e-14)


def test_diameter_function_path_hits_two_over_l(path4):
    f = diameter_test_function(path4)
    assert rayleigh_quotient(f) == pytest.approx(0.5, rel=1e-12)
    diffs = np.diff(f.values)  # path ids are consecutive along the spine
    np.testing.assert_allclose(diffs, diffs[0], rtol=1e-10)


@given(n=st.integers(4, 60), cap=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_diameter_chain(n, cap, seed):
    t = gen_random_tree(n, cap, seed)
    f = diameter_test_function(t)
    bsum = float(f.boundary_values().sum())
    scale = 1.0 + float(np.abs(f.values).max())
    assert abs(bsum) <= 1e-9 * scale * t.n_boundary
    got = rayleigh_quotient(f)
    L = diameter(t).length
    assert got <= 2.0 / L + 1e-9
    assert steklov_spectrum(t).lambda2 <= got + 1e-8


@given(n=st.integers(4, 60), cap=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_diameter_kernel_solves_system_exactly(n, cap, seed):
    t = gen_random_tree(n, cap, seed)
    a, _, counts = diameter_system_oracle(t)
    ints, lead = _kernel_ints(counts)
    sol = [Fraction(x, lead) for x in ints]
    assert max(abs(x) for x in sol) == 1
    for row in a:
        # the system's entries are integers, exact in float64
        assert sum(Fraction(int(c)) * x for c, x in zip(row, sol)) == 0


def test_diameter_function_takes_its_quotient_from_spectra(path4, monkeypatch):
    # the 2/L guard reads spectra.rayleigh_quotient, so a quotient above 2/L raises
    monkeypatch.setattr(partitions, "rayleigh_quotient", lambda f: 0.5 + 1e-6)
    with pytest.raises(InvariantViolationError, match="exceeds 2/4"):
        diameter_test_function(path4)


def test_diameter_witness_builds_no_subtrees(caterpillar, ball32, monkeypatch):
    made = []
    real = graph_core.SubtreeRef.__init__

    def counted(self, *args, **kw):
        made.append(args)
        real(self, *args, **kw)

    monkeypatch.setattr(graph_core.SubtreeRef, "__init__", counted)
    for t in (caterpillar, ball32, gen_ball(4, 3)):
        got = diameter_test_function(t).values.tobytes()
        assert made == []
        assert got == diameter_test_function_oracle(t).values.tobytes()
        assert made  # the oracle builds one per branch, so the count sees them
        made.clear()


# -- witness bytes past the dense limit ---------------------------------------------

# sha256 of the certificates (``to_json_dict``), the test functions'
# ``values.tobytes()`` and the diameter path on trees past the dense
# limit, recorded while each part was a frozenset converted per use and
# the diameter ran a second search; a ``bounds`` report carries only
# ``has_witness``, so no report digest covers these bytes
_INFEASIBLE = "infeasible"
LARGE_WITNESS_DIGESTS = {
    "ball-3-9": ({"family": "BALL", "D": 3, "r": 9}, {
        "partition_two": "59069d7ac9c8b30898b16fcf1a3442dbac6943b524788c3cf156d56231d11b9d",
        "two_level": "04cd6e84c9652a9efe5eeecd354eed20eee27d682ed8ed1ed2c499170e8d7425",
        "partition_k3": "a14af53adaaa6a82c243ec3e315a7a1b057e719a8a7be6357d90b225d21e17c2",
        "multiway_k3": "00b987da170db2e5e0d5227969d852386d61360da0605e047782935672ef06c6",
        "partition_k5": "0d457dde915baeef30834916a1491e55ff12af22b12cb730933c054d1a93ba09",
        "multiway_k5": "d6b2967857652df512efb35773b5dcb81ffd5a2122076b36c699f5bbe4fd7e35",
        "diameter_function": "8d56f1a4028cc039031350eb137e048840855c7fff44ed850387571e9002be8f",
        "diameter_path": "e80ba5589b22f06d63abdfc38aeec7dbd4f64820ea0b26eafb6c063e2dd14bcc",
    }),
    "refined-7": ({"family": "REFINED", "l": 7}, {
        "partition_two": "ca1775a38e2fc96412007e2adc10bb42bfd73deb2a31b5a0ee38a2d014598eb6",
        "two_level": "9d12219d9023e6170443b28185f29d73c4800a7875d7c758fa88eb569dea1034",
        "partition_k3": "4fdd3aaf247b7627eade20699b923cda0aaea2b64c295ad6ebd8973502837ba2",
        "multiway_k3": "027002b463ba28df207598449de6346c49fd79bc524780c942b43840f69aef9e",
        "partition_k5": "12860decd7b331d3a7a98fea671565050e0f3ae3ea67465e34296ef97fc065ca",
        "multiway_k5": "c83dca5769768474ed37a6c0b29ca93a2bd1a4e06d4343c521cb103b49388f5a",
        "diameter_function": "9851975a3b32a7d9dc077a5eb5392c6a09caebb85cf962b4849b7f682912680c",
        "diameter_path": "dcb2da685c41b679f7a94de7c70312eae92e0663e28d58b5b73b03d894e9454e",
    }),
    "path-2000": ({"family": "PATH", "L": 2000}, {
        "partition_two": "32a2911893cda50f300c06542fb0139d85836e1dda87115aeb8ea238cd6de7e9",
        "two_level": "d6b9d75f5e3ced7f9e9718dc3a5267f0028192502c9e52f41588b43a70463ddb",
        "partition_k3": _INFEASIBLE,
        "multiway_k3": _INFEASIBLE,
        "partition_k5": _INFEASIBLE,
        "multiway_k5": _INFEASIBLE,
        "diameter_function": "19632cbe59c3aa08b7cebf60f91d1c806f3626624104e55a71e2d684c60871aa",
        "diameter_path": "3252a1edb90fdfe38143adb2e20661678f8ff661e1dc0aad66a36d9488741a13",
    }),
    "interior3-3000": ({"family": "RANDOM_INTERIOR3", "n_target": 3000, "max_degree": 5,
                        "seed": 2024}, {
        "partition_two": "b082243b7e40947fbfd34af3905b895663212eaa9485b78d53ed4ca249b8566c",
        "two_level": "450b7d9bf5d3242c3f0197ca3f5c0adbda8b24c204a5615dc51445ed484e6a2f",
        "partition_k3": "3d2df08cfb604000617194b198b45ed0de895575b827ca646e40c1c877703e34",
        "multiway_k3": "d5862eeba1bfe1e087de5a647f4b5fdd70fa6353c27dc7eadd5370b61337052d",
        "partition_k5": "562da650932597a82c955b12c4fc2ca0a8bc130044551675e7b60a0e72182dd1",
        "multiway_k5": "520b50ecd1247fa1c42e173c9fd851cb3c2e96c08316af7c446471472d69dde4",
        "diameter_function": "31ad270dfbf4158db53f5316f420a7757aa67b7fb52559beebae51e89871e5d8",
        "diameter_path": "7e2210a5d9d9ae5f10648385dabae825351bb06e8756cc206765b2885b56f5cf",
    }),
}


def _witness_digests(t) -> dict[str, str]:
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    def cert_sha(cert) -> str:
        return sha(json.dumps(cert.to_json_dict()).encode())

    cert2 = partition_two(t)
    out = {"partition_two": cert_sha(cert2),
           "two_level": sha(two_level_test_function(t, cert2).values.tobytes())}
    for k in (3, 5):
        try:
            certk = partition_k(t, k)
        except InfeasibleKError:
            out[f"partition_k{k}"] = out[f"multiway_k{k}"] = _INFEASIBLE
            continue
        out[f"partition_k{k}"] = cert_sha(certk)
        out[f"multiway_k{k}"] = sha(b"".join(
            f.values.tobytes() for f in multiway_test_functions(t, certk)))
    out["diameter_function"] = sha(diameter_test_function(t).values.tobytes())
    out["diameter_path"] = sha(json.dumps(list(diameter(t).path)).encode())
    return out


@pytest.mark.parametrize("name", sorted(LARGE_WITNESS_DIGESTS))
def test_large_tree_witness_bytes_match_recorded_digests(name):
    spec, want = LARGE_WITNESS_DIGESTS[name]
    assert _witness_digests(generate_family(spec)) == want
