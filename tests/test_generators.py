from __future__ import annotations

import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steklov_trees import (
    BadParamsError,
    FAMILIES,
    InfeasibleDegreeCapError,
    diameter,
    family_label,
    gen_ball,
    gen_extremal_middle,
    gen_path,
    gen_random_interior3,
    gen_random_tree,
    gen_refined,
    generate_family,
    steklov_eigenvalue_bisect,
)
from steklov_trees import generators

import _oracle
from _oracle import (
    ball_edges_oracle,
    gen_extremal_middle_oracle,
    gen_path_oracle,
    gen_random_interior3_oracle,
    gen_random_tree_oracle,
    gen_refined_oracle,
    tree_record,
)


def ball_size(d: int, r: int) -> int:
    return 1 + d * ((d - 1) ** r - 1) // (d - 2)


# -- deterministic families ----------------------------------------------------------

@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_ball_counts(d, r):
    t = gen_ball(d, r)
    assert t.n == ball_size(d, r)
    assert t.n_boundary == d * (d - 1) ** (r - 1)
    assert t.max_degree == d if r >= 2 else t.max_degree == d
    assert diameter(t).length == 2 * r
    # every interior vertex of the homogeneous ball has full degree
    assert all(t.degrees[v] == d for v in t.interior)


def test_ball_frozen_small():
    t = gen_ball(3, 2)
    assert t.n == 10 and t.n_boundary == 6
    assert t.edges == ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7),
                       (3, 8), (3, 9))


@pytest.mark.parametrize("d,r", [(2, 2), (1, 1), (3, 0), (3, -1)])
def test_ball_rejects(d, r):
    with pytest.raises(BadParamsError):
        gen_ball(d, r)


@pytest.mark.parametrize("l,n", [(2, 16), (3, 52), (4, 148), (5, 388)])
def test_refined_counts(l, n):
    t = gen_refined(l)
    assert t.n == n
    assert t.n_boundary == 3 * 2 ** (l - 1)
    assert t.max_degree == 3
    # volume sandwiched by boundary: l * m <= n <= 2 * l * m
    assert l * t.n_boundary <= t.n <= 2 * l * t.n_boundary


def test_refined_rejects():
    with pytest.raises(BadParamsError):
        gen_refined(1)


@pytest.mark.parametrize("length", [2, 3, 10, 57])
def test_path(length):
    t = gen_path(length)
    assert t.n == length + 1
    assert t.n_boundary == 2
    assert t.max_degree == 2
    assert diameter(t).length == length


def test_path_rejects():
    with pytest.raises(BadParamsError):
        gen_path(1)


# -- extremal middle attachments -------------------------------------------------------

@pytest.mark.parametrize("variant,length,n", [("A", 4, 7), ("A", 6, 9), ("B", 6, 13)])
def test_extremal_hits_two_over_l(variant, length, n):
    t = gen_extremal_middle(length, variant)
    assert t.n == n
    assert diameter(t).length == length
    lam2 = steklov_eigenvalue_bisect(t, 2)
    assert lam2 == pytest.approx(2.0 / length, abs=1e-9)


def test_extremal_variant_c():
    t = gen_extremal_middle(6, "C", lhat=2)
    assert t.n == 10
    lam2 = steklov_eigenvalue_bisect(t, 2)
    assert lam2 == pytest.approx(2.0 / 6.0, abs=1e-9)


def test_extremal_tree_dies_with_its_caller():
    # the shape search is remembered as an edge list, not as a tree that
    # would pin itself and its per-tree memos
    t = gen_extremal_middle(6, "A")
    again = gen_extremal_middle(6, "A")
    assert again is not t and again.edges == t.edges
    steklov_eigenvalue_bisect(t, 2)
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is None


def test_extremal_rejects():
    with pytest.raises(BadParamsError):
        gen_extremal_middle(5, "A")  # odd length has no midpoint
    with pytest.raises(BadParamsError):
        gen_extremal_middle(6, "Z")
    with pytest.raises(BadParamsError):
        gen_extremal_middle(4, "B")  # 7 extra vertices cannot hide at L=4
    with pytest.raises(BadParamsError):
        gen_extremal_middle(4, "C", lhat=2)  # needs L/2 >= 2^lhat - 1
    with pytest.raises(BadParamsError):
        gen_extremal_middle(6, "A", lhat=1)  # depth only applies to C


# -- random families ---------------------------------------------------------------------

def test_random_tree_golden():
    assert gen_random_tree(5, 3, 42).edges == ((0, 1), (0, 2), (0, 3), (2, 4))


def test_random_tree_reproducible():
    a = gen_random_tree(30, 4, 7)
    b = gen_random_tree(30, 4, 7)
    assert a.edges == b.edges
    assert gen_random_tree(30, 4, 8).edges != a.edges


def test_random_tree_rejects():
    with pytest.raises(BadParamsError):
        gen_random_tree(2, 3, 0)
    with pytest.raises(InfeasibleDegreeCapError):
        gen_random_tree(10, 1, 0)


def test_random_tree_cap_two_is_path():
    t = gen_random_tree(12, 2, 5)
    assert t.n == 12
    assert t.max_degree == 2
    assert diameter(t).length == 11


@given(n=st.integers(3, 60), cap=st.integers(2, 6), seed=st.integers(0, 2**63 - 1))
def test_random_tree_respects_cap(n, cap, seed):
    t = gen_random_tree(n, cap, seed)
    assert t.n == n
    assert t.max_degree <= cap


@given(n=st.integers(5, 60), cap=st.integers(3, 6), seed=st.integers(0, 2**63 - 1))
def test_random_interior3(n, cap, seed):
    t = gen_random_interior3(n, cap, seed)
    assert t.max_degree <= cap
    assert all(t.degrees[v] >= 3 for v in t.interior)
    # boundary-volume sandwich for interior degrees >= 3, exact in integers
    assert 2 * t.n_boundary >= t.n + 2
    assert t.n_boundary <= t.n


# -- the block sampler against the one-value-at-a-time loop -------------------------------

@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9, 31, 32, 33, 60, 120, 255, 256, 257, 400,
                               8000, 2**20 + 1, 2**31 - 1, 2**31, 2**32 - 1])
def test_word_stream_is_the_randrange_stream(n):
    # the sampler relies on CPython's randrange(n), n < 2**32, keeping the
    # top bits of one 32-bit word and rejecting values >= n: an interpreter
    # that draws otherwise fails here instead of moving trees and digests
    for seed in range(20):
        rng = random.Random(seed)
        vals, at = generators._randrange_block(rng, n, 300)
        ref = random.Random(seed)
        assert vals.tolist() == [ref.randrange(n) for _ in range(len(vals))]
        # the last value came from word at[-1], so the stream goes on after it
        replay = random.Random(seed)
        replay.getrandbits(32 * (int(at[-1]) + 1))
        assert replay.random() == ref.random()


def _harness_draws(seed: int, count: int) -> list[tuple[int, int, int]]:
    """``(n, cap, seed)`` as the verify harness draws them for its random trees."""
    master = random.Random(seed)
    return [(master.randint(5, 60), master.randint(2, 6), master.getrandbits(63))
            for _ in range(count)]


@pytest.mark.parametrize("block_values", [generators._BLOCK_VALUES, 1])
@pytest.mark.parametrize("master_seed", [0, 1])
def test_random_tree_matches_rejection_loop_on_harness_draws(master_seed, block_values,
                                                             monkeypatch):
    # one attempt per block carries partial attempts across many blocks
    monkeypatch.setattr(generators, "_BLOCK_VALUES", block_values)
    for n, cap, seed in _harness_draws(master_seed, 100):
        assert gen_random_tree(n, cap, seed).edges == \
            gen_random_tree_oracle(n, cap, seed).edges


@pytest.mark.parametrize("n,cap,seed", [(300, 4, 0), (300, 4, 1), (300, 4, 2), (300, 4, 3),
                                        (400, 4, 0), (400, 4, 2), (400, 4, 3),
                                        (120, 3, 19), (120, 3, 32)])
def test_random_tree_matches_rejection_loop_at_tight_caps(n, cap, seed):
    assert gen_random_tree(n, cap, seed).edges == gen_random_tree_oracle(n, cap, seed).edges


@pytest.mark.parametrize("draw_cap", [1, 2, 3, 7])
def test_random_tree_falls_back_at_the_same_attempt(draw_cap, monkeypatch):
    monkeypatch.setattr(generators, "_PRUFER_DRAW_CAP", draw_cap)
    monkeypatch.setattr(_oracle, "_PRUFER_DRAW_CAP", draw_cap)
    fell_back = 0
    for seed in range(25):
        for n, cap in ((12, 3), (40, 3), (60, 3), (60, 4)):
            fell_back += generators._prufer_draw(random.Random(seed), n, cap)[0] is None
            assert tree_record(gen_random_tree(n, cap, seed)) == \
                tree_record(gen_random_tree_oracle(n, cap, seed))
    assert fell_back  # some seeds use up every attempt at these caps


# -- generated trees against the pair-list trees -------------------------------------
# every field, the derived edges and the rooted index, arrays by dtype and bytes

@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_ball_is_the_pair_list_tree(d, r):
    t = gen_ball(d, r)
    assert tree_record(t) == tree_record(generators.build_tree(ball_edges_oracle(d, r)))
    assert t.n == ball_size(d, r)


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6, 7])
def test_refined_is_the_pair_list_tree(l):
    assert tree_record(gen_refined(l)) == tree_record(gen_refined_oracle(l))


def test_path_is_the_pair_list_tree():
    for length in range(2, 201):
        assert tree_record(gen_path(length)) == tree_record(gen_path_oracle(length))


@pytest.mark.parametrize("length,variant,lhat", [
    (2, "A", None), (4, "A", None), (8, "A", None), (6, "B", None), (10, "B", None),
    (2, "C", 1), (6, "C", 2), (14, "C", 3),
    (6, "A", None), (40, "A", None), (200, "A", None), (2000, "A", None),
    (8, "B", None), (40, "B", None), (200, "B", None), (2000, "B", None)])
def test_extremal_is_the_pair_list_tree(length, variant, lhat):
    # A and B: the closed-form star on the midpoint is the search's first shape
    t = gen_extremal_middle(length, variant, lhat)
    assert tree_record(t) == tree_record(gen_extremal_middle_oracle(length, variant, lhat))
    assert not generators._extremal_edges(length, variant, lhat).flags.writeable
    assert abs(steklov_eigenvalue_bisect(t, 2) - 2.0 / length) <= 1e-9


def test_random_tree_is_the_pair_list_tree():
    draws = _harness_draws(3, 300)
    assert {cap for _, cap, _ in draws} == {2, 3, 4, 5, 6}
    for n, cap, seed in draws:
        assert tree_record(gen_random_tree(n, cap, seed)) == \
            tree_record(gen_random_tree_oracle(n, cap, seed))


def test_random_interior3_is_the_pair_list_tree():
    for seed in range(100):
        n_target, cap = 1 + (seed * 37) % 300, 3 + seed % 4
        assert tree_record(gen_random_interior3(n_target, cap, seed)) == \
            tree_record(gen_random_interior3_oracle(n_target, cap, seed))


@pytest.mark.parametrize("spec", [
    {"family": "BALL", "D": 3, "r": 3}, {"family": "REFINED", "l": 3},
    {"family": "PATH", "L": 5}, {"family": "EXTREMAL_MIDDLE", "L": 6, "variant": "B"},
    {"family": "RANDOM", "n": 20, "max_degree": 2, "seed": 1},
    {"family": "RANDOM", "n": 20, "max_degree": 4, "seed": 1},
    {"family": "RANDOM_INTERIOR3", "n_target": 20, "max_degree": 4, "seed": 1}])
def test_generators_hand_build_tree_one_int64_array(spec, monkeypatch):
    seen = []
    real = generators.build_tree
    monkeypatch.setattr(generators, "build_tree", lambda a: seen.append(a) or real(a))
    generators._extremal_edges.cache_clear()
    t = generate_family(spec)
    assert seen
    for a in seen:
        assert type(a) is np.ndarray and a.dtype == np.int64 and a.shape[1:] == (2,)
    assert seen[-1].shape == (t.n - 1, 2)


def test_random_interior3_rejects():
    with pytest.raises(BadParamsError):
        gen_random_interior3(30, 2, 0)


# -- family registry -----------------------------------------------------------------------

def test_generate_family_dispatch():
    assert generate_family({"family": "BALL", "D": 3, "r": 2}).n == 10
    assert generate_family({"family": "BALL", "D": 3, "r": 2, "seed": 0}).n == 10
    assert generate_family({"family": "REFINED", "l": 2}).n == 16
    assert generate_family({"family": "PATH", "L": 5}).n == 6
    assert generate_family(
        {"family": "EXTREMAL_MIDDLE", "L": 4, "variant": "A"}).n == 7
    assert generate_family(
        {"family": "RANDOM", "n": 5, "max_degree": 3, "seed": 42}).edges == (
        (0, 1), (0, 2), (0, 3), (2, 4))
    t = generate_family(
        {"family": "RANDOM_INTERIOR3", "n_target": 20, "max_degree": 4, "seed": 1})
    assert all(t.degrees[v] >= 3 for v in t.interior)


@pytest.mark.parametrize("spec", [
    {"family": "NOSUCH"},
    {"family": "BALL", "D": 3},                      # missing r
    {"family": "BALL", "D": 3, "r": 2, "x": 1},      # unexpected key
    {"family": "PATH", "L": "4"},                    # non-integer
    {"family": "RANDOM", "n": 5, "max_degree": 3},   # random needs a seed
    {"no_family": True},
    "BALL",
])
def test_generate_family_rejects(spec):
    with pytest.raises(BadParamsError):
        generate_family(spec)


@pytest.mark.parametrize("spec,param", [
    ({"family": "PATH", "L": 40, "seed": False}, "seed"),
    ({"family": "RANDOM", "n": True, "max_degree": 3, "seed": 1}, "n"),
    ({"family": "BALL", "D": 3, "r": True}, "r"),
    ({"family": "EXTREMAL_MIDDLE", "L": 4, "variant": True}, "variant"),
])
def test_generate_family_rejects_booleans(spec, param):
    # bool is an int subclass in Python; JSON true/false is still no integer
    with pytest.raises(BadParamsError, match=f"parameter {param}=(True|False) must be an integer"):
        generate_family(spec)


def test_family_registry_and_label():
    assert FAMILIES == ("BALL", "REFINED", "PATH", "EXTREMAL_MIDDLE", "RANDOM",
                        "RANDOM_INTERIOR3")
    assert family_label({"family": "BALL", "D": 3, "r": 2}) == "BALL(D=3,r=2)"
    assert family_label({"family": "RANDOM", "seed": 1, "n": 5, "max_degree": 3}) \
        == "RANDOM(max_degree=3,n=5,seed=1)"
