"""``arcs.arc_closure`` does the dashed-key part of its expansions once per
dashed key (and leg) of a call: IHX relations, leg swaps and gluings, and
ungluings, rewrapped onto each arc key.  The per-key expansion that redid
them for every arc key is kept here verbatim as the oracle: the closure
keys and the relation list, in order and item by item, must equal its
own.  The counter test pins how much dashed work one closure does, without
timing anything.
"""

from collections import Counter

import pytest

from beadiag import arcs as ar
from beadiag import catlie as cl
from beadiag import diagrams as dg
from beadiag.jspaces import _grow, ihx_relations
from beadiag.linalg import vec
from beadiag.words import alphabet_from_spec

ZERO = dg.ZERO


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
                   for k, c in cl.glue_pair_key(dkey, l, l + 1).items()]
            )
            if rel:
                rels.append(rel)
    return rels


def unglue_neighbours_per_key(key):
    """Keys of the T and U terms of STU instances whose S term is this key.

    Needed so that the closure contains every STU instance touching it: each
    leg whose dashed edge ends at a trivalent vertex is unglued back onto
    its arc in both orders (``diagrams.unglue_leg``), one more leg there.
    """
    m, arc_beads, counts, dkey = key
    dashed = dg.rebuild(dkey)
    out = []
    for j, block in enumerate(ar._leg_blocks(counts)):
        counts_t = counts[:j] + (counts[j] + 1,) + counts[j + 1 :]
        for label in block:
            for dia in dg.unglue_leg(dashed, label):
                k, _sign = dg.canonicalize(dia)
                if k is not ZERO:
                    out.append((m, arc_beads, counts_t, k))
    return out


def ihx_relations_arc_per_key(key):
    """IHX relations at internal dashed edges, arc structure unchanged."""
    m, arc_beads, counts, dkey = key
    return [{(m, arc_beads, counts, k): c for k, c in rel.items()}
            for rel in ihx_relations(dkey)]


def arc_closure_per_key(seed_keys, relations):
    """Close a key set under STU (both directions) and IHX neighbours.

    Every STU and IHX relation of every member is appended to the list
    ``relations``.  Raises :class:`beadiag.jspaces.ClosureDiverged` on
    unbounded bead growth, as for the labelled-diagram closure.
    """

    def expand(key):
        rels = stu_relations_per_key(key) + ihx_relations_arc_per_key(key)
        neighbours = set()
        for rel in rels:
            neighbours.update(rel)
        neighbours.update(unglue_neighbours_per_key(key))
        return rels, neighbours

    return _grow(seed_keys, relations, expand,
                 lambda key: dg.key_beads(key[3]) + list(key[1]))


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
    for key in keys:
        assert ar.stu_relations(key) == stu_relations_per_key(key)
        assert ar.ihx_relations_arc(key) == ihx_relations_arc_per_key(key)
        assert ar._unglue_neighbours(key) == unglue_neighbours_per_key(key)


def test_dashed_work_is_done_once_per_dashed_key(monkeypatch):
    calls = {"glue_pair_key": Counter(), "ihx_relations": Counter(), "unglue_leg": Counter()}
    glue_pair_key, ihx, unglue_leg = cl.glue_pair_key, ar.ihx_relations, dg.unglue_leg

    def counting_glue(dkey, a, b):
        assert b == a + 1
        calls["glue_pair_key"][dkey, a] += 1
        return glue_pair_key(dkey, a, b)

    def counting_ihx(dkey):
        calls["ihx_relations"][dkey] += 1
        return ihx(dkey)

    def counting_unglue(dia, label):
        calls["unglue_leg"][dia.legs, dia.tri, dia.edges, label] += 1
        return unglue_leg(dia, label)

    monkeypatch.setattr(cl, "glue_pair_key", counting_glue)
    monkeypatch.setattr(ar, "ihx_relations", counting_ihx)
    monkeypatch.setattr(dg, "unglue_leg", counting_unglue)
    rels = []
    keys = ar.arc_closure(ar.enumerate_arc_diagrams(3, 3, alphabet_from_spec("trivial")), rels)
    # A(0, 3, 3): the closure and relations the per-key expansion also gives
    assert (len(keys), len(rels)) == (823, 2211)
    dashed = {key[3] for key in keys}
    for name, counter in calls.items():
        assert counter and max(counter.values()) == 1, name
    assert set(calls["ihx_relations"]) == dashed
