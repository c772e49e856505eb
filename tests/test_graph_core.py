from __future__ import annotations

import dataclasses
import gc
import random
import re
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steklov_trees import (
    BadVertexError,
    InvariantViolationError,
    MalformedError,
    NotAPathError,
    NotATreeError,
    TooSmallError,
    branch_components,
    build_tree,
    diameter,
    gen_ball,
    gen_random_tree,
    make_subtree,
    tree_from_json,
    tree_from_text,
    tree_to_json_dict,
    tree_to_text,
)
from steklov_trees import graph_core
from steklov_trees.generators import generate_family
from steklov_trees.graph_core import tree_from_json_dict

from _oracle import (
    boundary_brute,
    build_tree_oracle,
    diameter_oracle,
    make_subtree_oracle,
    side_brute,
    tree_from_text_oracle,
    tree_record,
)
from conftest import BALL32_EDGES, CATERPILLAR_EDGES, PATH4_EDGES, shapes


# -- construction ----------------------------------------------------------------

def test_build_tree_ball32(ball32):
    assert ball32.n == 10
    assert ball32.boundary == (4, 5, 6, 7, 8, 9)
    assert ball32.interior == (0, 1, 2, 3)
    assert ball32.max_degree == 3
    assert ball32.n_boundary == 6
    assert ball32.edges == tuple(sorted(BALL32_EDGES))


def test_build_tree_normalizes_edge_order():
    t = build_tree([(2, 0), (1, 0), (3, 1)])
    assert t.edges == ((0, 1), (0, 2), (1, 3))


@pytest.mark.parametrize("edges,err", [
    ([(0, 0), (0, 1), (1, 2)], MalformedError),          # self-loop
    ([(0, 1), (1, 0), (1, 2)], MalformedError),          # duplicate
    ([(0, 1), (1, 3)], MalformedError),                  # id gap
    ([(0, 1), (1, 2.5)], MalformedError),                # non-integer
    ([(0, 1), (1, True)], MalformedError),               # bool is not an id
    ([(-1, 0), (0, 1)], MalformedError),                 # negative id
    ([(0, 1)], TooSmallError),                           # n=2
    ([], TooSmallError),                                 # empty
    ([(0, 1), (1, 2), (0, 2), (2, 3)], NotATreeError),   # 4 edges on 4 vertices
    ([(0, 1), (1, 2), (2, 0)], NotATreeError),           # pure cycle, n edges
    ([(0, 1), (2, 3)], NotATreeError),                   # disconnected forest
])
def test_build_tree_rejects(edges, err):
    with pytest.raises(err):
        build_tree(edges)


def test_build_tree_structure_check_raises_without_assert(monkeypatch):
    # a real check, not an ``assert``: it also runs under ``python -O``.
    # A triangle plus a separate edge fails only the connectivity search;
    # a search that claims to reach every vertex lets it through.
    monkeypatch.setattr(graph_core, "_bfs",
                        lambda nbrs, source: (list(range(len(nbrs))), [0] * len(nbrs)))
    with pytest.raises(InvariantViolationError, match="boundary-boundary"):
        build_tree([(0, 1), (1, 2), (0, 2), (3, 4)])


def test_boundary_is_degree_one(caterpillar):
    assert caterpillar.boundary == tuple(boundary_brute(caterpillar.n, caterpillar.edges))
    for v in caterpillar.boundary:
        assert caterpillar.is_boundary(v)
    for v in caterpillar.interior:
        assert not caterpillar.is_boundary(v)


def test_check_vertex(path4):
    path4.check_vertex(0)
    path4.check_vertex(4)
    for bad in (-1, 5, 2.0, "2", None):
        with pytest.raises(BadVertexError):
            path4.check_vertex(bad)


# -- the int64 input layer against the edge-by-edge oracle -----------------------

@st.composite
def tree_edges(draw, max_n: int = 40) -> list[tuple[int, int]]:
    """A random labelled tree as an edge list in random order."""
    n = draw(st.integers(3, max_n))
    rnd = draw(st.randoms(use_true_random=False))
    label = list(range(n))
    rnd.shuffle(label)
    edges = [(label[i], label[rnd.randrange(i)]) for i in range(1, n)]
    rnd.shuffle(edges)
    return edges


def outcome(fn, arg):
    """``("tree", every field and edges)`` on success, else the exception type and message.

    ``edges`` is no dataclass field (it is derived from the edge arrays),
    so :func:`tree_record` lists it explicitly, after the fields.
    """
    try:
        t = fn(arg)
    except Exception as exc:  # the comparison is the point
        return type(exc).__name__, str(exc)
    return "tree", tree_record(t)


@given(edges=tree_edges(), data=st.data())
def test_build_tree_matches_oracle_on_valid_trees(edges, data):
    kinds = data.draw(st.lists(st.sampled_from(["int", "flip", "np.int64", "np.int32"]),
                               min_size=len(edges), max_size=len(edges)))
    given_edges = []
    for (u, v), kind in zip(edges, kinds):
        if kind == "flip":
            u, v = v, u
        elif kind != "int":
            u, v = getattr(np, kind[3:])(u), getattr(np, kind[3:])(v)
        given_edges.append((u, v))
    got = outcome(build_tree, given_edges)
    assert got[0] == "tree"
    assert got == outcome(build_tree_oracle, given_edges)
    assert outcome(build_tree, iter(given_edges)) == got


@given(edges=tree_edges(), data=st.data())
def test_build_tree_takes_signed_integer_arrays_as_their_pairs(edges, data):
    a = np.array(edges, dtype=data.draw(st.sampled_from([np.int8, np.int32, np.int64])))
    wide = np.zeros((len(edges), 4), dtype=a.dtype)
    wide[:, 1::2] = a
    layout = data.draw(st.sampled_from(["C", "F", "reversed", "strided"]))
    a = {"C": a, "F": np.asfortranarray(a), "reversed": a[::-1],
         "strided": wide[:, 1::2]}[layout]
    before = a.copy()
    got = outcome(build_tree, a)
    assert got[0] == "tree"
    assert got == outcome(build_tree, [tuple(row) for row in a.tolist()])
    # the array is only read, and the tree keeps none of its memory
    assert np.array_equal(a, before)
    t = build_tree(a)
    for x in (t.edge_u, t.edge_v, t.degrees, t.boundary_pos):
        assert not np.shares_memory(x, a)


@pytest.mark.parametrize("a", [
    np.array([[0, 1], [1, 2]], dtype=np.uint64),            # ids, but not signed
    np.array([[0, 2**63], [0, 1]], dtype=np.uint64),        # an id beyond int64
    np.array([[0, 1], [1, 2]], dtype=float),
    np.array([[0, 1], [1, 0]], dtype=bool),
    np.array([[0, 1, 2], [1, 2, 3]]),
    np.array([0, 1, 1, 2]),
    np.zeros((0, 2), dtype=np.int64),
    np.zeros((0, 2)),
    np.array([[0, 1], [1, 1], [1, 2]]),                     # signed, each fault
    np.array([[0, 1], [-1, 2]], dtype=np.int32),
    np.array([[0, 1], [1, 2], [2, 1]]),
    np.array([[0, 1], [1, 3]]),
    np.array([[0, 1]]),
    np.array([[0, 1], [2, 3], [3, 4]]),
])
def test_build_tree_gives_an_array_what_its_rows_give(a):
    # the rows as a list take the pair path, as every array did before the
    # array entry; a signed (m, 2) array must end the same way
    assert outcome(build_tree, a) == outcome(build_tree, list(a))
    if a.dtype.kind == "u" and a.size and a.max() < 2**63:
        assert outcome(build_tree, a) == outcome(build_tree, a.astype(np.int64))


def test_tree_from_text_goes_through_build_tree(monkeypatch):
    seen = []
    real = graph_core.build_tree
    monkeypatch.setattr(graph_core, "build_tree", lambda a: seen.append(a) or real(a))
    t = tree_from_text("0 1\n1 2  # a comment\n\n2 3\n")
    assert t.edges == ((0, 1), (1, 2), (2, 3))
    (a,) = seen
    assert a.dtype == np.int64 and a.tolist() == [[0, 1], [1, 2], [2, 3]]


def test_edges_are_derived_from_the_edge_arrays():
    t = gen_random_tree(40, 4, 3)
    assert "edges" not in vars(t)
    assert t.edges == tuple(zip(t.edge_u.tolist(), t.edge_v.tolist()))
    assert all(type(x) is int for e in t.edges for x in e)
    assert t.edges is t.edges  # derived once
    copy = dataclasses.replace(t)
    assert "edges" not in vars(copy)
    assert copy.edges == t.edges
    assert "edges" not in {f.name for f in dataclasses.fields(t)}


def test_writers_read_the_edge_arrays():
    t = gen_random_tree(40, 4, 3)
    text, obj = tree_to_text(t), tree_to_json_dict(t)
    assert "edges" not in vars(t)
    assert text == "".join(f"{u} {v}\n" for u, v in t.edges)
    assert obj == {"n": t.n, "edges": [[u, v] for u, v in t.edges]}
    assert all(type(x) is int for e in obj["edges"] for x in e)


def test_boundary_ids_are_the_boundary_as_a_read_only_array():
    t = gen_random_tree(40, 4, 3)
    ids = t._boundary_ids
    assert ids.dtype == np.int64 and ids.tolist() == list(t.boundary)
    assert not ids.flags.writeable
    assert t._boundary_ids is ids


# each fault turns an edge list into an invalid one at position i; the ids it uses
# come from the valid tree t, so an earlier fault (a non-pair, say) cannot break it
FAULTS = {
    "self-loop": lambda e, t, i, rnd: e.insert(i, (t[0][0], t[0][0])),
    "negative": lambda e, t, i, rnd: e.insert(i, (-1, t[0][0])),
    "bool": lambda e, t, i, rnd: e.insert(i, (t[0][0], True)),
    "2.5": lambda e, t, i, rnd: e.insert(i, (2.5, t[0][0])),
    "2.0": lambda e, t, i, rnd: e.insert(i, (t[0][1], 2.0)),
    "non-pair": lambda e, t, i, rnd: e.insert(i, rnd.choice([(1,), (0, 1, 2), 7, "01"])),
    "duplicate": lambda e, t, i, rnd: e.insert(i, t[rnd.randrange(len(t))][::-1]),
    "id gap": lambda e, t, i, rnd: e.__setitem__(i % len(e), (t[i % len(t)][0], 1000 + i)),
    "extra edge": lambda e, t, i, rnd: e.insert(i, (t[0][0], t[-1][1])),
    "disconnected": lambda e, t, i, rnd: e.__setitem__(i % len(e), (t[0][0], t[-1][1])),
}


@given(edges=tree_edges(), data=st.data())
def test_build_tree_matches_oracle_on_malformed_lists(edges, data):
    rnd = data.draw(st.randoms(use_true_random=False))
    faults = data.draw(st.lists(st.sampled_from(sorted(FAULTS)), min_size=1, max_size=3))
    tree = list(edges)
    for name in faults:
        FAULTS[name](edges, tree, rnd.randrange(len(edges) + 1), rnd)
    expected = outcome(build_tree_oracle, edges)
    assert outcome(build_tree, edges) == expected


@pytest.mark.parametrize("edges", [
    [(0, 1), (1, 2), (2, 2), (1, 2.5)],          # a value fault before a type fault
    [(0, 1), (1, 2.5), (2, 2)],                  # a type fault before a value fault
    [(0, 1), (3, 2), (1, 2), (2, 3)],            # every repeated edge is named
    [(0, 1), (1, 5), (5, 7), (1, 2), (1, 2)],    # a repeat before a gap
    [(0, 2), (2, 3)],                            # a gap at 1
    [(0, 1), (1, 2), (0, 2), (3, 4)],            # a cycle beside an edge
    [(0, 1), (1, 2), (3, 4), (4, 5), (2, 3), (0, 5)],
    [(0, 1)], [], [(0, 1), (1, 2), (2, 0)],
    [(0, 2**70), (1, 2)], [(3, 3), (0, -2**70)], [(0, np.int64(1)), (np.int64(1), 2)],
    [(0, 1), (1, np.bool_(True))], [(0, 1), [1, 2]], [(0, 1), "12"], [(0, 1), 5],
    [(1, 2**70), (3, 3)],                        # a self-loop after an id past int64
    [(0, 1), (1, 0), (1, 2**64)],                # a repeat before an id past int64
    [(0, i) for i in range(1, 12)] + [(0, 24)],  # as many missing ids as edges
    [(0, i) for i in range(1, 12)] + [(0, 25)],  # one more: the first ten are named
    [(0, 5)], [(3, 4), (4, 9)],                  # more missing ids than edges, under ten
])
def test_build_tree_error_order_matches_oracle(edges):
    assert outcome(build_tree, edges) == outcome(build_tree_oracle, edges)


@st.composite
def edge_texts(draw):
    """Edge-list text with decorations the format allows, and sometimes a fault."""
    edges = draw(tree_edges(max_n=25))
    rnd = draw(st.randoms(use_true_random=False))
    arabic = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")

    def token(x: int) -> str:
        s = str(x)
        pick = rnd.random()
        if pick < 0.1:
            return "+" + s
        if pick < 0.2 and len(s) > 1:
            return s[0] + "_" + s[1:]
        if pick < 0.3:
            return s.translate(arabic)
        if pick < 0.35:
            return "0" + s
        return s

    pad = [" ", "\t", "  ", "\x0b", "\xa0", "\u3000"]
    lines = []
    for u, v in edges:
        if rnd.random() < 0.15:
            lines.append(rnd.choice(["", "   ", "\t", "# a comment", "  # note"]))
        line = rnd.choice(["", " ", "\t"]) + token(u) + rnd.choice(pad) + token(v)
        if rnd.random() < 0.2:
            line += rnd.choice(pad) + rnd.choice(["#", "# 1 2 3", "#x"])
        lines.append(line + rnd.choice(["", " ", "\t"]))
    if rnd.random() < 0.5:
        i = rnd.randrange(len(lines) + 1)
        lines.insert(i, rnd.choice(["1 2 3", "4", "a b", "1 x", "1.0 2", "0x1 2",
                                    "1 2 # ok", "1\t2\t3", "-1 2", "3 3", "1 99"]))
    eol = rnd.choice(["\n", "\r\n", "\r", "\u2028"])
    return eol.join(lines) + rnd.choice(["", eol])


@given(text=edge_texts())
def test_tree_from_text_matches_oracle(text):
    assert outcome(tree_from_text, text) == outcome(tree_from_text_oracle, text)


@pytest.mark.parametrize("text", [
    "", "\n\n", "# only a comment\n", "0 1\n1 2\n", "0 1\r\n1 2\r\n\r\n",
    "+0 1\n1 +2\n", "0_0 1\n1 2\n", "٠ ١\n١ ٢\n", "0\t1\n 1  2 \n",
    "0 1\n1 2 3\n", "0 1\n1\n", "0 1\n1 x\n", "0 1\n1 2.0\n", "0 1 # c\n1 2#d\n",
    "0 1\n1 2\n2 2\n", "0 1\n1 99999999999999999999\n", "0 1\n1\x1c2\n",
    "0 1\x1f\n1 2\n", "0 1\n\x00 2\n", " \t\r\n", "# c\n  \r\n\t", "0",
    "0 1 # \x0b 2\n1 2\n", "0 1 #\x7f\n1 2\n", "0 1\n1 2 # ##  +-_.\n",
    "0 1\n0 1\n1 99999999999999999999\n", "0 1\n1 1000000000000000\n",
])
def test_tree_from_text_cases_match_oracle(text):
    assert_text_matches_oracle(text)


def assert_text_matches_oracle(text: str) -> None:
    assert outcome(tree_from_text, text) == outcome(tree_from_text_oracle, text)


# one stray large id: the missing ids come from the distinct ids, so the
# time and memory it takes to name them do not grow with the id's value
@pytest.mark.parametrize("edges,gap", [
    ("0 1\n1 1000000000000000\n", 10**15 - 2),
    ([(0, 1), (1, 10**15)], 10**15 - 2),
    (np.array([[0, 1], [1, 10**15]], dtype=np.int64), 10**15 - 2),
    (np.array([[2**63 - 1, 1], [1, 0]], dtype=np.int64), 2**63 - 3),
], ids=["text", "pairs", "int64-array", "int64-max"])
def test_a_stray_large_id_is_named_with_the_first_ten_missing(edges, gap):
    text = isinstance(edges, str)
    got = outcome(tree_from_text if text else build_tree, edges)
    assert got == ("MalformedError", f"vertex ids not contiguous; missing {gap} ids, "
                                     "the first ten [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]")
    pairs = edges if text or isinstance(edges, list) else edges.tolist()
    assert got == outcome(tree_from_text_oracle if text else build_tree_oracle, pairs)


def test_missing_ids_are_listed_up_to_the_edge_count():
    # 12 missing ids on 12 edges are all listed; one more and ten are named
    edges = [(0, i) for i in range(1, 12)]
    with pytest.raises(MalformedError, match=r"missing \[12, 13, .*, 23\]$"):
        build_tree(edges + [(0, 24)])
    with pytest.raises(MalformedError, match=r"missing 13 ids, the first ten \[12, .*, 21\]$"):
        build_tree(edges + [(0, 25)])


# the two parse tiers: a plain text is read in one bytes pass, any other
# line by line, and both end as the line-by-line oracle does

_PRINTABLE = "".join(map(chr, range(0x20, 0x7F))) + "\t"


@st.composite
def plain_lines(draw) -> list[list[str]]:
    """A random tree in the plain format, as the pieces of each of its lines.

    An edge's line is ``[blank, u, blank, v, blank, comment, break]`` and
    a line without ids ``[blank, comment, break]``; the blanks mix spaces
    and tabs, the ids may have leading zeros, the comments are printable
    ASCII, the breaks are LF, CR or CRLF, and the last may be missing.
    """
    rnd = random.Random(draw(st.integers(0, 2**32)))
    text = tree_to_text(build_tree(draw(tree_edges(max_n=25))))

    def blank(at_least: int) -> str:
        return "".join(rnd.choice(" \t") for _ in range(at_least + rnd.randrange(3)))

    def comment() -> str:
        if rnd.random() < 0.7:
            return ""
        return "#" + "".join(rnd.choice(_PRINTABLE) for _ in range(rnd.randrange(12)))

    def brk() -> str:
        return rnd.choice(["\n", "\r", "\r\n"])

    lines = []
    for row in text.splitlines():
        while rnd.random() < 0.15:
            lines.append([blank(0), comment(), brk()])
        u, v = ("0" * rnd.choice([0, 0, 0, 1, 5]) + x for x in row.split())
        lines.append([blank(0), u, blank(1), v, blank(0), comment(), brk()])
    if rnd.random() < 0.3:
        lines[-1][-1] = ""
    return lines


def _joined(lines: list[list[str]]) -> str:
    return "".join(piece for line in lines for piece in line)


def _tier_calls(text: str) -> int:
    """How often ``tree_from_text(text)`` calls the line-by-line pass."""
    calls = []
    real = graph_core._edges_by_line
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_core, "_edges_by_line", lambda s: calls.append(s) or real(s))
        try:
            tree_from_text(text)
        except Exception:  # the outcome is compared separately
            pass
    return len(calls)


@given(lines=plain_lines())
def test_plain_texts_take_the_bytes_pass(lines):
    text = _joined(lines)
    assert_text_matches_oracle(text)
    assert outcome(tree_from_text, text)[0] == "tree"
    assert _tier_calls(text) == 0


# one change to a plain text: the pieces of an edge's line it may change
# (1 and 3 are the ids, 5 the comment), the new piece, and whether the
# bytes pass still reads the text
MUTATIONS = {
    "one token": ((3,), lambda s, rnd: "", False),
    "three tokens": ((3,), lambda s, rnd: s + " 7", False),
    "18 digits": ((1, 3), lambda s, rnd: s.zfill(18), True),
    # an id past the zero-padded ones is past int64 too: a smaller stray id
    # sizes the id-gap check's degree count, which the oracle cannot allocate
    "19 digits": ((1, 3), lambda s, rnd: rnd.choice(
        [s.zfill(19), str(rnd.randrange(2**63, 10**19))]), False),
    "20 digits": ((1, 3), lambda s, rnd: rnd.choice(
        [s.zfill(20), str(rnd.randrange(10**19, 10**20))]), False),
    **{f"byte {c!r}": ((1, 3), lambda s, rnd, c=c: c + s, False)
       for c in ["\x00", "\x0b", "\x0c", "\x1c", "\x1f", "+", "-", "_", "."]},
    "non-ASCII in a comment": ((5,), lambda s, rnd: (s or "#") + rnd.choice(
        ["é", "\xa0", "\u2028", "\x85", "٣"]), False),
}


@given(lines=plain_lines(), name=st.sampled_from(sorted(MUTATIONS)), seed=st.integers(0, 2**32))
def test_mutated_texts_match_oracle_in_their_tier(lines, name, seed):
    rnd = random.Random(seed)
    pieces, change, plain = MUTATIONS[name]
    line = rnd.choice([line for line in lines if len(line) == 7])
    at = rnd.choice(pieces)
    line[at] = change(line[at], rnd)
    text = _joined(lines)
    assert_text_matches_oracle(text)
    assert _tier_calls(text) == (0 if plain else 1)


@given(edges=tree_edges(max_n=200), data=st.data())
def test_make_subtree_matches_mask_oracle(edges, data):
    # up to 200 vertices, so parts run from one vertex to large ones
    t = build_tree(edges)
    if data.draw(st.booleans()):
        # a connected part: the side of one end of a random edge
        u, v = data.draw(st.sampled_from(t.edges))
        vs = set(side_brute(t, u, v))
    else:
        vs = set(data.draw(st.lists(st.integers(0, t.n - 1), min_size=1, max_size=t.n)))
    if data.draw(st.booleans()):
        vs ^= {0}
    # the set as an index array in any order, some ids repeated, as the
    # descents hand their parts over
    ids = np.array(data.draw(st.permutations(sorted(vs))), dtype=np.int64)
    ids = np.concatenate((ids, ids[:data.draw(st.integers(0, 3))]))
    # a tree whose index is computed lazily gives the same answers
    fresh = dataclasses.replace(t)
    for tree, given_vs in ((t, vs), (fresh, vs), (t, ids), (fresh, ids)):
        try:
            expected = make_subtree_oracle(tree, vs)
        except Exception as exc:
            with pytest.raises(type(exc), match=str(exc)):
                make_subtree(tree, given_vs)
            continue
        got = make_subtree(tree, given_vs)
        assert got.vertices == expected.vertices
        assert all(type(v) is int for v in got.vertices)
        assert got.relative_boundary == expected.relative_boundary
        assert got.ids.tolist() == sorted(vs)
        assert not got.ids.flags.writeable


@pytest.mark.parametrize("pick", [
    lambda t: [],
    lambda t: [-1, *range(100)],
    lambda t: [*range(100), t.n],
    lambda t: [v for v in range(t.n) if v != t.interior[0]],
    lambda t: list(range(0, t.n, 2)),
], ids=["empty", "negative", "past-n", "without-an-interior-vertex", "every-other"])
def test_make_subtree_index_array_raises_as_the_set_does(pick):
    # the ids as a reversed index array name the same first fault as the set
    t = gen_random_tree(200, 4, 1)
    given_vs = pick(t)
    with pytest.raises((BadVertexError, NotATreeError)) as as_set:
        make_subtree(t, frozenset(given_vs))
    with pytest.raises(as_set.type, match=f"^{re.escape(str(as_set.value))}$"):
        make_subtree(t, np.array(given_vs[::-1], dtype=np.int64))


def test_make_subtree_names_an_id_past_int64(ball32):
    for given_vs, bad in (([2, 2**70], 2**70), ([-2**70, 2], -2**70)):
        with pytest.raises(BadVertexError, match=f"^vertex {bad} outside 0..9$"):
            make_subtree(ball32, given_vs)


@pytest.mark.parametrize("given_vs", [
    np.array([False, True, True, False]),  # a mask, not the ids 0 and 1
    [1.7, 0.2],
    np.array([1.0, 2.0]),
    [1, 2.0],
    ["1", "2"],
    [True, False],
    [np.True_],
], ids=["bool-mask", "floats", "float-array", "a-float-among-ints", "strings", "bools",
        "numpy-bool"])
def test_make_subtree_refuses_ids_that_build_tree_refuses(given_vs):
    t = gen_ball(3, 2)
    for build in (make_subtree, make_subtree_oracle):
        with pytest.raises(BadVertexError, match="is not an integer id$"):
            build(t, given_vs)


def test_make_subtree_takes_integer_ids_of_any_kind(ball32):
    for given_vs in ([7, 2, 6], [np.int64(7), np.uint8(2), 6], np.array([7, 2, 6], np.uint16),
                     np.array([7, 2, 6], object), (v for v in (7, 2, 6))):
        assert make_subtree(ball32, given_vs).ids.tolist() == [2, 6, 7]


def test_subtree_ref_derives_its_vertices_from_its_ids(ball32):
    ref = make_subtree(ball32, [7, 2, 6, 7])
    assert ref.ids.tolist() == [2, 6, 7]
    assert not ref.ids.flags.writeable
    assert ref.vertices == frozenset({2, 6, 7}) and len(ref.ids) == 3
    assert [f.name for f in dataclasses.fields(ref)] == ["tree", "ids", "relative_boundary"]


def test_rooted_index_is_the_connectivity_search_and_dies_with_its_tree():
    t = build_tree(BALL32_EDGES)
    idx = graph_core._rooted_index(t)
    assert graph_core._rooted_index(t) is idx  # stored by build_tree, not searched again
    assert (idx.order, idx.parent) == graph_core._bfs(t.neighbors, 0)
    lazy = graph_core._rooted_index(dataclasses.replace(t))
    assert (lazy.order, lazy.parent) == (idx.order, idx.parent)
    refs = weakref.ref(t), weakref.ref(idx)
    del t, idx, lazy
    gc.collect()
    assert [r() for r in refs] == [None, None]


# -- metric queries --------------------------------------------------------------

@pytest.mark.parametrize("edges,expect", [
    (PATH4_EDGES, 4),
    (BALL32_EDGES, 4),
    (CATERPILLAR_EDGES, 4),
    (((0, 1), (0, 2), (0, 3)), 2),
])
def test_diameter_known(edges, expect):
    t = build_tree(edges)
    d = diameter(t)
    assert d.length == expect
    assert len(d.path) == expect + 1
    assert t.is_boundary(d.path[0]) and t.is_boundary(d.path[-1])


def test_diameter_is_deterministic(ball32):
    assert diameter(ball32) == diameter(ball32)
    assert diameter(ball32).path[0] < diameter(ball32).path[-1]


def test_diameter_is_computed_once_per_tree(ball32):
    first = diameter(ball32)
    assert diameter(ball32) is first
    assert diameter(build_tree(BALL32_EDGES)) == first


@given(n=st.integers(4, 48), cap=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_diameter_matches_bfs_oracle(n, cap, seed):
    t = gen_random_tree(n, cap, seed)
    d = diameter(t)
    assert (d.length, d.path) == diameter_oracle(t.n, t.edges)
    for a, b in zip(d.path, d.path[1:]):
        assert (min(a, b), max(a, b)) in t.edges


@given(t=shapes)
def test_diameter_matches_double_bfs_oracle_on_shapes(t):
    # paths, balls, caterpillars and spiders: many farthest vertices tie
    assert tuple(diameter(t)) == diameter_oracle(t.n, t.edges)


@pytest.mark.parametrize("spec", [
    {"family": "PATH", "L": 2000},
    {"family": "BALL", "D": 3, "r": 9},
    {"family": "BALL", "D": 40, "r": 1},
    {"family": "EXTREMAL_MIDDLE", "L": 40, "variant": "B"},
    {"family": "RANDOM_INTERIOR3", "n_target": 8000, "max_degree": 5, "seed": 11},
], ids=["path-2000", "ball-3-9", "star-40", "extremal-middle-40-B", "interior3-8000"])
def test_diameter_matches_double_bfs_oracle_on_families(spec):
    t = generate_family(spec)
    assert tuple(diameter(t)) == diameter_oracle(t.n, t.edges)


def test_diameter_endpoint_check_raises_without_assert(ball32):
    # a real check, not an ``assert``: a tree whose degrees claim no leaves
    broken = dataclasses.replace(ball32, degrees=np.full(ball32.n, 2))
    with pytest.raises(InvariantViolationError, match="boundary vertices"):
        diameter(broken)


# -- subtrees and splits ---------------------------------------------------------

def test_make_subtree_relative_boundary(ball32):
    ref = make_subtree(ball32, {2, 6, 7})
    assert len(ref.ids) == 3
    assert ref.relative_boundary == (6, 7)
    # vertex 2 is a leaf of the branch but interior to the parent
    assert 2 not in ref.relative_boundary


@given(n=st.integers(4, 40), cap=st.integers(2, 6), seed=st.integers(0, 2**32),
       data=st.data())
def test_make_subtree_relative_boundary_in_tree_order(n, cap, seed, data):
    t = gen_random_tree(n, cap, seed)
    root = data.draw(st.integers(0, t.n - 1))
    blocked = data.draw(st.sampled_from(t.neighbors[root]))
    vs = side_brute(t, root, blocked)
    assert make_subtree(t, vs).relative_boundary == tuple(
        v for v in t.boundary if v in vs)


def test_make_subtree_rejects_disconnected(ball32):
    with pytest.raises(NotATreeError):
        make_subtree(ball32, {4, 6})
    with pytest.raises(BadVertexError):
        make_subtree(ball32, set())
    with pytest.raises(BadVertexError):
        make_subtree(ball32, {0, 99})
    with pytest.raises(BadVertexError):
        make_subtree(ball32, {-1, 0})


def test_make_subtree_rejects_two_disjoint_edges(ball32):
    # every vertex has a neighbour in the set, so only the edge count
    # (2 edges on 4 vertices) tells it from a subtree
    assert all(any(w in {2, 6, 1, 4} for w in ball32.neighbors[v]) for v in (2, 6, 1, 4))
    with pytest.raises(NotATreeError):
        make_subtree(ball32, {2, 6, 1, 4})


def test_branch_components_caterpillar(caterpillar):
    d = diameter(caterpillar)
    refs = branch_components(caterpillar, d.path)
    assert len(refs) == d.length - 1
    covered = set(d.path[:1]) | set(d.path[-1:])
    for ref in refs:
        covered |= ref.vertices
    assert covered == set(range(caterpillar.n))
    assert sum(len(r.relative_boundary) for r in refs) == caterpillar.n_boundary - 2


def test_branch_components_rejects_non_diameter_path(ball32):
    with pytest.raises(NotAPathError):
        branch_components(ball32, (4, 1, 0))  # too short
    with pytest.raises(NotAPathError):
        branch_components(ball32, (4, 5, 6))  # not a path
    with pytest.raises(NotAPathError):
        branch_components(ball32, (4, 4, 4))  # repeats


@pytest.mark.parametrize("change", [
    {"n": 11},                               # an isolated extra vertex
    {"boundary": (0, 4, 5, 6, 7, 8, 9)},     # a boundary list with a stray entry
])
def test_branch_components_checks_raise_without_assert(ball32, change):
    # real checks, not ``assert``s: trees that bypass build_tree's validation
    broken = dataclasses.replace(ball32, **change)
    with pytest.raises(InvariantViolationError, match="branch components"):
        branch_components(broken, diameter(broken).path)


@given(n=st.integers(4, 40), cap=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_branch_components_partition_property(n, cap, seed):
    t = gen_random_tree(n, cap, seed)
    d = diameter(t)
    refs = branch_components(t, d.path)
    sizes = sum(len(r.ids) for r in refs)
    assert sizes == t.n - 2
    # pairwise disjoint
    seen: set[int] = set()
    for r in refs:
        assert not (seen & r.vertices)
        seen |= r.vertices


# -- serialization ---------------------------------------------------------------

def test_text_round_trip(ball32):
    assert tree_from_text(tree_to_text(ball32)).edges == ball32.edges


def test_text_comments_and_blanks():
    t = tree_from_text("# header\n0 1\n\n1 2  # inline\n")
    assert t.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize("text", ["0\n", "0 1 2\n", "a b\n"])
def test_text_malformed(text):
    with pytest.raises(MalformedError):
        tree_from_text(text)


def test_json_round_trip(caterpillar):
    obj = tree_to_json_dict(caterpillar)
    assert obj["n"] == caterpillar.n
    assert tree_from_json_dict(obj).edges == caterpillar.edges


def test_json_declared_n_mismatch():
    with pytest.raises(MalformedError):
        tree_from_json('{"n": 7, "edges": [[0, 1], [1, 2]]}')
    with pytest.raises(MalformedError):
        tree_from_json('{"nodes": 3}')
    with pytest.raises(MalformedError):
        tree_from_json("[not json")


@given(n=st.integers(4, 40), cap=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_round_trip_property(n, cap, seed):
    t = gen_random_tree(n, cap, seed)
    assert tree_from_text(tree_to_text(t)).edges == t.edges
    assert tree_from_json_dict(tree_to_json_dict(t)).edges == t.edges


@given(n=st.integers(4, 60), cap=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_structure_invariants(n, cap, seed):
    t = gen_random_tree(n, cap, seed)
    assert len(t.edges) == t.n - 1
    assert set(t.boundary) | set(t.interior) == set(range(t.n))
    assert not (set(t.boundary) & set(t.interior))
    deg = np.zeros(t.n, dtype=int)
    for u, v in t.edges:
        deg[u] += 1
        deg[v] += 1
    assert np.array_equal(deg, t.degrees)
    assert t.max_degree == deg.max()
