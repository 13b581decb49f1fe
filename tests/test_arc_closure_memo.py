"""``arcs`` does the dashed-key part of the STU relations once per dashed
key and leg in a process: leg swaps and gluings, memoised and rewrapped
onto every arc key.  The per-key STU relations that redid them for every
arc key are kept here as the oracle, in a closure that grows under them
and the ungluings (``reference_helpers.grow``): the library's keys and
relation list, in order and item by item, must equal its own, walked from
the least key up as the library walks its span.  The counter test pins
how much dashed work two builds do, without timing anything.

An A-space eliminates its STU relations alone: STU implies IHX on every
enumerated diagram (Bar-Natan).  The row-equality gate compares its rows
with the echelon form of the earlier design, which closed under STU and
the per-key arc IHX.
"""

from collections import Counter

import pytest

from beadiag import arcs as ar
from beadiag import cache
from beadiag import diagrams as dg
from beadiag.bridge import verify_bridge
from beadiag.jspaces import canonical_vector
from beadiag.linalg import echelonize, vec
from beadiag.words import alphabet_from_spec

from reference_helpers import (
    arc_closure_with_ihx,
    arc_key_beads,
    clear_dashed_memos,
    grow,
    ihx_relations_arc,
    unglue_neighbours,
)


def stu_relations_per_key(key):
    """One STU relation per adjacent leg pair on an arc: T - U - S = 0.

    For legs l, l + 1 adjacent on arc j: T is the key, U swaps the two
    labels, and S glues the two legs onto a tripod whose free end, leg l,
    takes their place on the arc.
    """
    m, arc_beads, counts, dkey = key
    labels = list(range(1, sum(counts) + 1))
    rels = []
    for j, block in enumerate(ar._leg_blocks(counts)):
        counts_s = counts[:j] + (counts[j] - 1,) + counts[j + 1 :]
        for l in block[:-1]:
            swapped = labels[: l - 1] + [l + 1, l] + labels[l + 1 :]
            u_key, u_sign = ar._lift(m, arc_beads, counts, dkey, swapped, {})
            rel = vec(
                [(key, 1), (u_key, -u_sign)]
                + [((m, arc_beads, counts_s, k), -c)
                   for k, c in canonical_vector(
                       [(1, dg.glue_pair(dg.rebuild(dkey), l, l + 1))]).items()]
            )
            if rel:
                rels.append(rel)
    return rels


def arc_closure_per_key(seed_keys, relations):
    """Close a key set under STU (both directions): the per-key STU
    relations, appended to ``relations``, and the ungluings."""

    def expand(key):
        rels = stu_relations_per_key(key)
        neighbours = set()
        for rel in rels:
            neighbours.update(rel)
        neighbours.update(unglue_neighbours(key))
        return rels, neighbours

    return grow(seed_keys, relations, expand, arc_key_beads)


CELLS = (
    [("trivial", m, 1, True) for m in range(5)]
    + [("trivial", m, 2, True) for m in range(4)]
    + [("trivial", m, 3, True) for m in (1, 2, 3)]
    + [("gen:1:1", m, d, class0) for d in (0, 1) for m in (0, 1, 2) for class0 in (True, False)]
)


def _closures(spec, m, d, class0):
    seeds = ar.enumerate_arc_diagrams(m, d, alphabet_from_spec(spec), class0)
    memo_rels, oracle_rels = [], []
    memo_keys = ar.arc_closure(seeds, memo_rels)
    oracle_keys = arc_closure_per_key(seeds, oracle_rels)
    return (memo_keys, memo_rels), (oracle_keys, oracle_rels)


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: "-".join(map(str, cell)))
def test_closure_keys_and_relations_match_the_per_key_expansion(cell):
    (keys, rels), (oracle_keys, oracle_rels) = _closures(*cell)
    assert keys == oracle_keys
    assert rels == oracle_rels
    # the same items in the same order, so echelonize meets the same vectors
    assert [list(rel.items()) for rel in rels] == [list(rel.items()) for rel in oracle_rels]


@pytest.mark.parametrize("cell", [("trivial", 2, 2, True), ("gen:1:1", 2, 1, False)],
                         ids=lambda cell: "-".join(map(str, cell)))
def test_per_key_functions_need_no_memo(cell):
    (keys, _rels), _oracle = _closures(*cell)
    spec, m, d, class0 = cell
    alphabet = alphabet_from_spec(spec)
    space = ar.a_space(alphabet.rank, m, d, alphabet, class0)
    for key in keys:
        assert ar.stu_relations(key) == stu_relations_per_key(key)
        # the STU instances whose S term is the key have their T terms in
        # the span, so the key's ungluings need no relations of their own
        assert set(unglue_neighbours(key)) <= set(keys)
        # the STU rows imply every per-key arc IHX relation (Bar-Natan)
        assert not any(space.reduce(rel) for rel in ihx_relations_arc(key))


@pytest.mark.parametrize("cell", CELLS + [("trivial", 1, 4, True)],
                         ids=lambda cell: "-".join(map(str, cell)))
def test_rows_equal_the_stu_and_per_key_ihx_closure(cell):
    spec, m, d, class0 = cell
    alphabet = alphabet_from_spec(spec)
    rels = []
    arc_closure_with_ihx(ar.enumerate_arc_diagrams(m, d, alphabet, class0), rels)
    assert ar.a_space(alphabet.rank, m, d, alphabet, class0).relations.rows == echelonize(rels).rows


def test_a_space_eliminates_its_stu_relations_alone(monkeypatch):
    # STU implies IHX on every enumerated diagram (Bar-Natan), so the STU
    # relations of the closure are all an A-space eliminates, and it builds
    # no J-space
    given = []

    def recording(vectors):
        given.append(list(vectors))
        return echelonize(given[-1])

    monkeypatch.setattr(ar, "echelonize", recording)
    monkeypatch.setattr(cache, "_active_dir", None)
    monkeypatch.setattr(cache, "_spaces", {})
    trivial = alphabet_from_spec("trivial")
    ar.a_space(0, 2, 3, trivial)
    stu = []
    ar.arc_closure(ar.enumerate_arc_diagrams(2, 3, trivial), stu)
    # largest pivots first
    assert stu and given == [sorted(stu, key=min, reverse=True)]
    assert [kind for kind, _params in cache._spaces] == ["aspace"]


def test_verify_bridge_closes_each_a_space_span_once(monkeypatch):
    # the zero test reduces by the A-space's own rows, so no second closure
    # of the span eliminates its STU relations again
    seeds = Counter()
    arc_closure = ar.arc_closure

    def counting(seed_keys, relations):
        seed_keys = tuple(seed_keys)
        seeds[frozenset(seed_keys)] += 1
        return arc_closure(seed_keys, relations)

    monkeypatch.setattr(ar, "arc_closure", counting)
    monkeypatch.setattr(cache, "_active_dir", None)
    monkeypatch.setattr(cache, "_spaces", {})
    trivial = alphabet_from_spec("trivial")
    assert verify_bridge(2, trivial, 2)["pass"]
    spans = {params[0]: frozenset(space.span)
             for (kind, params), space in cache._spaces.items() if kind == "aspace"}
    assert 2 in spans
    assert {m: seeds[span] for m, span in spans.items()} == dict.fromkeys(spans, 1)


def test_dashed_work_is_done_once_per_dashed_key(monkeypatch):
    calls = Counter()
    glue_pair = dg.glue_pair

    def counting_glue(dia, a, b):
        assert b == a + 1
        calls[dia.legs, dia.tri, dia.edges, a] += 1
        return glue_pair(dia, a, b)

    monkeypatch.setattr(dg, "glue_pair", counting_glue)
    monkeypatch.setattr(cache, "_active_dir", None)
    monkeypatch.setattr(cache, "_spaces", {})
    clear_dashed_memos()
    trivial = alphabet_from_spec("trivial")
    # A(0, 2, 3) and then A(0, 3, 3): the second build reuses the first's
    # dashed work
    assert ar.a_space(0, 2, 3, trivial).dim(0) == 23
    assert ar.a_space(0, 3, 3, trivial).dim(0) == 111
    rels = []
    keys = ar.arc_closure(ar.enumerate_arc_diagrams(3, 3, trivial), rels)
    assert (len(keys), len(rels)) == (823, 2058)
    assert calls and max(calls.values()) == 1


def test_a_spaces_enumerate_each_labelled_cell_once(monkeypatch):
    # the spans of every arc count share the labelled keys of a cell (d, c)
    cells = Counter()
    enumerate_diagrams = dg.enumerate_diagrams

    def counting(d, c, alphabet):
        cells[d, c] += 1
        return enumerate_diagrams(d, c, alphabet)

    monkeypatch.setattr(dg, "enumerate_diagrams", counting)
    monkeypatch.setattr(cache, "_active_dir", None)
    monkeypatch.setattr(cache, "_spaces", {})
    ar._labelled_keys.cache_clear()
    trivial = alphabet_from_spec("trivial")
    for m in (1, 2, 3):
        ar.a_space(0, m, 2, trivial)
    assert cells == Counter((2, c) for c in range(5))
