"""Tree family generators: balls, refined balls, paths, extremal
caterpillars, and seeded random trees for the verification harness.

Every generator is deterministic: the random families draw from
``random.Random(seed)`` only, so a (family, parameters, seed) triple
always reproduces the same edge list bit for bit.  The degree-capped
random tree draws its Prüfer attempts a block at a time from the
generator's word stream, and gives the tree that drawing one
``randrange`` value at a time gives.

Every generator hands :func:`build_tree` one ``(m, 2)`` int64 edge
array and builds no Python tuple per edge.  Every tree but the Prüfer
tree and the random path numbers each vertex after its parent, so its
edges are ``(parent[i], i + 1)`` (:func:`_parent_edges`): the ball's
parents and depths come from numpy (:func:`_ball_parents`), the refined
ball's from the ball's, the path's from ``np.arange``, and the
interior-3 growth, the capped tree's fallback and the extremal shapes
append ints to one parent list.  The Prüfer decode collects the two
ends of its edges as int lists, and the random path pairs a shuffled
vertex array with itself shifted by one.
"""
from __future__ import annotations

import heapq
import random
from functools import lru_cache

import numpy as np

from .errors import (
    BadParamsError,
    InfeasibleDegreeCapError,
    NoExtremalShapeFoundError,
)
from .graph_core import BoundaryTree, build_tree
from .spectra import steklov_eigenvalue_bisect


def _parent_edges(parent) -> np.ndarray:
    """The edges ``(parent[i], i + 1)`` as an ``(m, 2)`` int64 array.

    For a tree that numbers each vertex after its parent, ``parent``
    lists the parents of vertices ``1 .. m`` in order.
    """
    p = np.asarray(parent, dtype=np.int64)
    return np.column_stack((p, np.arange(1, len(p) + 1)))


def _ball_parents(d: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Parents of vertices ``1 ..`` of the radius-``r`` ball in the degree-``d`` tree.

    Ids are breadth-first from the center (id 0): the center's ``d``
    children come first, then, vertex by vertex in id order, the ``d - 1``
    children of each vertex above depth ``r``.  Also returns each vertex's
    depth.
    """
    sizes = [1, *(d * (d - 1) ** k for k in range(r))]  # vertices per depth
    parent = np.concatenate((np.zeros(d, dtype=np.int64),
                             np.repeat(np.arange(1, sum(sizes[:-1])), d - 1)))
    return parent, np.repeat(np.arange(r + 1), sizes)


def gen_ball(d: int, r: int) -> BoundaryTree:
    """Ball of radius ``r`` in the degree-``d`` homogeneous tree.

    Vertex ids are breadth-first from the center (id 0): the center has
    ``d`` children, every other internal vertex ``d - 1``.  The boundary
    is the depth-``r`` level, of size ``d (d-1)^{r-1}``.
    """
    if d < 3 or r < 1:
        raise BadParamsError(f"ball needs degree >= 3 and radius >= 1, got ({d}, {r})")
    return build_tree(_parent_edges(_ball_parents(d, r)[0]))


def gen_refined(l: int) -> BoundaryTree:
    """Degree-3 ball of radius ``l`` with depth-graded edge subdivision.

    The edge from depth ``k`` to depth ``k+1`` is subdivided by ``k``
    extra vertices (edges at the center, ``k = 0``, stay single), which
    stretches the tree radially while keeping the same boundary.  Extra
    ids follow the ball's, in the ball's edge order, each edge's extras
    numbered from its upper end down.
    """
    if l < 2:
        raise BadParamsError(f"refined ball needs radius >= 2, got {l}")
    ball, depth = _ball_parents(3, l)
    k = depth[ball]  # the edge down to ball vertex i + 1 gets k[i] extra vertices
    ends = len(depth) + np.cumsum(k)  # one past the last extra id of each edge
    chained = k > 0
    parent = np.arange(ends[-1] - 1)  # an extra hangs from the id before it,
    parent[ends[chained] - k[chained] - 1] = ball[chained]  # the first from the ball,
    parent[:len(ball)] = np.where(chained, ends - 1, ball)  # a ball vertex from its last
    return build_tree(_parent_edges(parent))


def gen_path(length: int) -> BoundaryTree:
    """Path with ``length`` edges, vertices ``0 .. length`` in a line."""
    if length < 2:
        raise BadParamsError(f"path needs length >= 2, got {length}")
    return build_tree(_parent_edges(np.arange(length)))


# -- extremal middle-attachment caterpillars ------------------------------------------

def _attach_shape(parent: list[int], root: int, shape: tuple) -> None:
    """Hang ``shape`` below ``root``, numbering its vertices on from ``len(parent) + 1``."""
    for child in shape:
        parent.append(root)
        _attach_shape(parent, len(parent), child)


_EXTREMAL_SIZES = {"A": 3, "B": 7}


def gen_extremal_middle(length: int, variant: str, lhat: int | None = None) -> BoundaryTree:
    """Spine of even length ``L`` with one attachment at the midpoint.

    The attachment has 3 vertices (variant A), 7 (variant B), or is a
    depth-``lhat`` binary brush (variant C, needing ``L/2 >= 2^lhat - 1``
    so the spine still carries the slowest mode), all counted including
    the midpoint vertex itself.  A and B hang 2 and 6 leaves on the
    midpoint, a star, which attains the extremal value ``lambda_2 = 2/L``
    exactly, for any number of leaves.  Eliminating the spine's interior
    reduces the tree to a star around the midpoint ``c`` with conductance
    ``1/m`` to each of ``x_0`` and ``x_L`` (``m = L/2`` unit edges in
    series) and ``1`` to each leaf.  Eliminating ``c`` leaves the
    response matrix ``D - w w^T / sum(w)`` with ``w = (1/m, 1/m, 1, ...,
    1)`` and ``D = diag(w)``.  The eigenvalues of this rank-one downdate
    interlace with ``D``'s, so ``lambda_1(D) <= lambda_2 <= lambda_2(D)``;
    as ``1/m <= 1``, both ends are ``1/m``, and ``lambda_2 = 1/m = 2/L``.
    C builds its single shape and checks
    ``lambda_2`` by bisection.  The edges are built once per parameter
    set; every call builds a fresh tree from the remembered edge array.
    """
    return build_tree(_extremal_edges(length, variant, lhat))


@lru_cache(maxsize=None)
def _extremal_edges(length: int, variant: str, lhat: int | None) -> np.ndarray:
    """Read-only edge array of :func:`gen_extremal_middle`'s tree."""
    if length % 2 != 0 or length < 2:
        raise BadParamsError(f"spine length must be even and >= 2, got {length}")
    mid = length // 2
    parent = list(range(length))  # the spine
    if variant in _EXTREMAL_SIZES:
        if lhat is not None:
            raise BadParamsError(f"variant {variant} takes no depth parameter")
        size = _EXTREMAL_SIZES[variant]
        if mid < (size - 1) // 2:
            raise BadParamsError(
                f"variant {variant} needs L/2 >= {(size - 1) // 2}, got L={length}")
        edges = _parent_edges(parent + [mid] * (size - 1))
    elif variant == "C":
        if lhat is None or lhat < 1:
            raise BadParamsError("variant C needs a depth lhat >= 1")
        if mid < 2 ** lhat - 1:
            raise BadParamsError(
                f"variant C needs L/2 >= {2 ** lhat - 1}, got L={length}")
        brush: tuple = ()
        for _ in range(lhat - 1):
            brush = (brush, brush)
        _attach_shape(parent, mid, (brush,))
        edges = _parent_edges(parent)
        lam2 = steklov_eigenvalue_bisect(build_tree(edges), 2)
        if not abs(lam2 - 2.0 / length) <= 1e-9:
            raise NoExtremalShapeFoundError(
                f"no variant-C attachment at L={length} reaches 2/L")
    else:
        raise BadParamsError(f"unknown variant {variant!r}")
    edges.flags.writeable = False
    return edges


# -- random families -------------------------------------------------------------------

def _prufer_decode(seq: list[int], n: int) -> np.ndarray:
    """The edges ``(leaf, s)`` of a Prüfer sequence, then the last two leaves."""
    deg = [1] * n
    for s in seq:
        deg[s] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    ends: list[int] = []  # the leaf ends, in edge order
    for s in seq:
        ends.append(heapq.heappop(leaves))
        deg[s] -= 1
        if deg[s] == 1:
            heapq.heappush(leaves, s)
    ends.append(heapq.heappop(leaves))
    return np.array((ends, [*seq, heapq.heappop(leaves)]), dtype=np.int64).T


_PRUFER_DRAW_CAP = 10 ** 6
# Prüfer values drawn per block at most, and words skipped per call when
# the fallback replays the stream
_BLOCK_VALUES = 1 << 16
_SKIP_WORDS = 1 << 20


def _randrange_block(rng: random.Random, n: int, words: int) -> tuple[np.ndarray, np.ndarray]:
    """The values ``rng.randrange(n)`` would return from the next ``words`` words.

    CPython's ``randrange(n)`` for ``n < 2**32`` keeps the top
    ``n.bit_length()`` bits of one 32-bit Mersenne-Twister word and
    draws again while they are ``>= n``; ``getrandbits(32 * words)``
    returns that many consecutive words, least significant first.  Returns
    the accepted values and the index of the word each came from.
    """
    raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
    top = np.frombuffer(raw, dtype="<u4") >> np.uint32(32 - n.bit_length())
    at = np.flatnonzero(top < n)
    return top[at].astype(np.intp), at


def _prufer_draw(rng: random.Random, n: int, max_degree: int) -> tuple[list[int] | None, int]:
    """The first Prüfer sequence within the cap, as one-by-one draws find it.

    An attempt is ``n - 2`` values of ``rng.randrange(n)``; it fits when
    no vertex occurs ``max_degree`` times or more.  Blocks of attempts
    come from the word stream (:func:`_randrange_block`) and one
    ``bincount`` checks all attempts of a block, so the first fitting
    attempt is the one a loop of ``randrange`` calls would accept.
    Returns ``(attempt, 0)``, or ``(None, words)`` when none of
    ``_PRUFER_DRAW_CAP`` attempts fits, ``words`` being the number of
    words those attempts took.
    """
    size = n - 2
    most = max(1, _BLOCK_VALUES // size)
    carry = np.empty(0, dtype=np.intp)  # the start of an attempt the block cut off
    done = used = 0        # attempts checked, words drawn before this block
    want = min(4, most)    # attempts the next block should hold
    while True:
        words = ((want * size - len(carry)) << n.bit_length()) // n + 8
        vals, at = _randrange_block(rng, n, words)
        stream = np.concatenate((carry, vals))
        tries = min(len(stream) // size, _PRUFER_DRAW_CAP - done)
        seqs = stream[:tries * size].reshape(tries, size)
        counts = np.bincount((seqs + n * np.arange(tries)[:, None]).ravel(),
                             minlength=tries * n).reshape(tries, n)
        fits = np.flatnonzero(counts.max(axis=1, initial=0) < max_degree)
        if len(fits):
            return seqs[fits[0]].tolist(), 0
        done += tries
        if done == _PRUFER_DRAW_CAP:
            # the last attempt ends on the word of its last value
            return None, used + int(at[tries * size - len(carry) - 1]) + 1
        used += words
        carry = stream[tries * size:]
        want = min(want * 2, most)


def gen_random_tree(n: int, max_degree: int, seed: int) -> BoundaryTree:
    """Seeded uniform random tree, rejection-sampled to the degree cap.

    Uniform labelled trees come from random Prüfer sequences; a sequence
    is rejected while some vertex would exceed ``max_degree``.  Attempts
    are drawn and checked a block at a time, and the accepted one is
    exactly the one that drawing by ``rng.randrange(n)`` one value at a
    time would accept (:func:`_prufer_draw`).  If the cap is so tight
    that 10^6 attempts all fail, falls back to sequential attachment
    onto vertices with spare capacity (biased, but guaranteed to
    terminate), drawing on from where those attempts left the stream.
    ``max_degree = 2`` forces a path, built directly as a seeded random
    vertex order.
    """
    if n < 3:
        raise BadParamsError(f"need n >= 3, got {n}")
    if max_degree < 2:
        raise InfeasibleDegreeCapError(f"no tree on {n} vertices has max degree"
                                       f" {max_degree}")
    rng = random.Random(seed)
    if max_degree == 2:
        perm = list(range(n))
        rng.shuffle(perm)
        p = np.array(perm, dtype=np.int64)
        return build_tree(np.column_stack((p[:-1], p[1:])))

    seq, words = _prufer_draw(rng, n, max_degree)
    if seq is not None:
        return build_tree(_prufer_decode(seq, n))

    # every attempt failed: put the stream where the last one left it
    rng.seed(seed)
    for skip in range(0, words, _SKIP_WORDS):
        rng.getrandbits(32 * min(_SKIP_WORDS, words - skip))
    parent: list[int] = []
    deg = [0] * n
    for v in range(1, n):
        open_slots = [u for u in range(v) if deg[u] < max_degree]
        u = rng.choice(open_slots)
        parent.append(u)
        deg[u] += 1
        deg[v] += 1
    return build_tree(_parent_edges(parent))


def gen_random_interior3(n_target: int, max_degree: int, seed: int) -> BoundaryTree:
    """Seeded random tree whose interior degrees are all at least 3.

    Grows from a 3-star by promoting a random leaf into an interior
    vertex with 2 .. max_degree - 1 fresh leaves, so promoted vertices
    get degree >= 3 and the vertex count overshoots ``n_target`` by less
    than ``max_degree``.
    """
    if max_degree < 3:
        raise BadParamsError(f"interior degree 3 needs max_degree >= 3, got {max_degree}")
    if n_target < 1:
        raise BadParamsError(f"need a positive target size, got {n_target}")
    rng = random.Random(seed)
    parent = [0, 0, 0]
    leaves = [1, 2, 3]
    n = 4
    while n < n_target:
        idx = rng.randrange(len(leaves))
        v = leaves[idx]
        leaves[idx] = leaves[-1]
        leaves.pop()
        fanout = rng.randint(2, max_degree - 1)
        parent += [v] * fanout
        leaves += range(n, n + fanout)
        n += fanout
    return build_tree(_parent_edges(parent))


# -- family dispatch -------------------------------------------------------------------

# family -> (builder from the checked parameters, required, optional); the
# deterministic families tolerate (and ignore) a seed key
_FAMILY_TABLE = {
    "BALL": (lambda a: gen_ball(a["D"], a["r"]), ("D", "r"), ("seed",)),
    "REFINED": (lambda a: gen_refined(a["l"]), ("l",), ("seed",)),
    "PATH": (lambda a: gen_path(a["L"]), ("L",), ("seed",)),
    "EXTREMAL_MIDDLE": (lambda a: gen_extremal_middle(a["L"], a["variant"], a.get("lhat")),
                        ("L", "variant"), ("lhat", "seed")),
    "RANDOM": (lambda a: gen_random_tree(a["n"], a["max_degree"], a["seed"]),
               ("n", "max_degree", "seed"), ()),
    "RANDOM_INTERIOR3": (
        lambda a: gen_random_interior3(a["n_target"], a["max_degree"], a["seed"]),
        ("n_target", "max_degree", "seed"), ()),
}
FAMILIES = tuple(_FAMILY_TABLE)


def generate_family(spec: dict) -> BoundaryTree:
    """Build a tree from a family description dict (the CLI's ``--family``).

    Examples: ``{"family": "BALL", "D": 3, "r": 2}``,
    ``{"family": "RANDOM", "n": 30, "max_degree": 4, "seed": 7}``,
    ``{"family": "EXTREMAL_MIDDLE", "L": 6, "variant": "B"}``.
    Each family's builder and parameters come from one table.
    """
    if not isinstance(spec, dict) or "family" not in spec:
        raise BadParamsError("family spec must be a dict with a 'family' key")
    fam = spec["family"]
    # membership by ==, so an unhashable family value is named, not a TypeError
    if fam not in FAMILIES:
        raise BadParamsError(f"unknown family {fam!r}; expected one of {FAMILIES}")
    build, required, optional = _FAMILY_TABLE[fam]
    args = {k: v for k, v in spec.items() if k != "family"}
    missing = [k for k in required if k not in args]
    extra = [k for k in args if k not in required + optional]
    if missing or extra:
        raise BadParamsError(
            f"{fam} takes {required}{' + optional ' + str(optional) if optional else ''};"
            f" missing {missing}, unexpected {extra}")
    for k, v in args.items():
        # bool is an int subclass, but JSON true/false is no parameter value
        is_int = isinstance(v, int) and not isinstance(v, bool)
        if not is_int and not (k == "variant" and isinstance(v, str)):
            raise BadParamsError(f"parameter {k}={v!r} must be an integer")
    return build(args)


def family_label(spec: dict) -> str:
    """Stable one-line identifier for report rows."""
    fam = spec.get("family", "?")
    rest = ",".join(f"{k}={spec[k]}" for k in sorted(spec) if k != "family")
    return f"{fam}({rest})"
