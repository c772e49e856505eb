from __future__ import annotations

import os

# eigh's rounding depends on the number of BLAS threads, and the pinned
# digests of dense-route spectrum reports were recorded under two (bounds
# and sweep print no eigh float); this must run before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "2"

import pytest  # noqa: E402
from hypothesis import HealthCheck, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from steklov_trees import (  # noqa: E402
    BoundaryTree,
    build_tree,
    gen_ball,
    gen_path,
    gen_random_tree,
    generate_family,
)

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# hand-written edge lists, independent of the generators
BALL32_EDGES = ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9))
K13_EDGES = ((0, 1), (0, 2), (0, 3))
PATH4_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4))
STAR5_EDGES = ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5))
CATERPILLAR_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 6), (2, 7), (3, 8))


@pytest.fixture
def ball32() -> BoundaryTree:
    return build_tree(BALL32_EDGES)


@pytest.fixture
def k13() -> BoundaryTree:
    return build_tree(K13_EDGES)


@pytest.fixture
def path4() -> BoundaryTree:
    return build_tree(PATH4_EDGES)


@pytest.fixture
def star5() -> BoundaryTree:
    return build_tree(STAR5_EDGES)


@pytest.fixture
def caterpillar() -> BoundaryTree:
    return build_tree(CATERPILLAR_EDGES)


def zoo() -> list[BoundaryTree]:
    """Small cross-section of shapes for parametrized invariant tests."""
    return [
        build_tree(BALL32_EDGES),
        build_tree(K13_EDGES),
        build_tree(PATH4_EDGES),
        build_tree(STAR5_EDGES),
        build_tree(CATERPILLAR_EDGES),
        gen_ball(4, 2),
        gen_path(11),
        gen_random_tree(24, 4, 12345),
        gen_random_tree(40, 6, 999),
    ]


# -- tree shapes for the bit-identity tests of the level schedules -----------------

def _caterpillar(legs: list[int]) -> BoundaryTree:
    """A spine ``0..len(legs)-1`` with ``legs[i]`` leaves hung on spine vertex ``i``."""
    edges = [(i, i + 1) for i in range(len(legs) - 1)]
    nxt = len(legs)
    for i, k in enumerate(legs):
        edges += [(i, nxt + j) for j in range(k)]
        nxt += k
    return build_tree(edges)


def _spider(lengths: list[int]) -> BoundaryTree:
    """Legs of the given lengths from a hub: many siblings on one level."""
    edges = []
    nxt = 1
    for k in lengths:
        prev = 0
        for _ in range(k):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return build_tree(edges)


shapes = st.one_of(
    st.builds(gen_random_tree, st.integers(4, 60), st.integers(2, 7),
              st.integers(0, 2**32)),
    st.builds(gen_path, st.integers(2, 80)),
    st.builds(gen_ball, st.integers(3, 60), st.just(1)),
    st.builds(gen_ball, st.integers(3, 5), st.integers(2, 3)),
    st.builds(_caterpillar, st.lists(st.integers(0, 30), min_size=3, max_size=12)),
    st.builds(_spider, st.lists(st.integers(1, 4), min_size=3, max_size=30)),
)

# trees whose levels from the centre run from a few to a thousand: a
# path, a long extremal tree, a ball and a refined tree
LEVEL_COUNT_TREES = [gen_path(2000),
                     generate_family({"family": "EXTREMAL_MIDDLE", "L": 2000, "variant": "B"}),
                     gen_ball(3, 9),
                     generate_family({"family": "REFINED", "l": 8})]
