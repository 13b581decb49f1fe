import hashlib
import inspect
import json
import random

import pytest

from beadiag import arcs as ar
from beadiag import cache
from beadiag import diagrams as dg
from beadiag.words import TRIVIAL_ALPHABET, Word, alphabet_from_spec

from frozen_structures import shape_structures
from move_fuzzer import (
    random_arc_moves,
    random_move_sequence,
    reverse_edge,
    seed_diagrams,
    shuffle_presentation,
)
import reference_helpers
from reference_helpers import relabel_legs

GEN11 = alphabet_from_spec("gen:1:1")


def strut(bead="1", labels=2):
    return dg.Diagram([0, 1], [], [(0, 1, (Word.parse(bead),))])


def tadpole(bead="1"):
    return dg.Diagram([0], [(1, 2, 3)], [(0, 1, ()), (2, 3, (Word.parse(bead),))])


def test_constructor_merges_beads_and_drops_identity():
    w, x = Word.parse("x1"), Word.parse("x2")
    d = dg.Diagram([0, 1], [], [(0, 1, (w, x))])
    assert d.edges[0][2] == Word.parse("x1*x2").letters
    d2 = dg.Diagram([0, 1], [], [(0, 1, (Word(),))])
    assert d2.edges[0][2] == ()
    assert dg.Diagram(d2.legs, d2.tri, d2.edges).edges == d2.edges


def test_canonical_keys_are_pinned():
    # canonical keys name cache entries: a change of the trivalent numbering
    # order must show here (and bump cache.CACHE_VERSION)
    h_shape = dg.Diagram(
        [0, 1, 2, 3],
        [(4, 5, 6), (7, 8, 9)],
        [(0, 4, ()), (1, 5, ()), (2, 7, ()), (3, 8, ()), (6, 9, ())],
    )
    assert dg.canonicalize(h_shape) == (
        (4, 2, ((0, 4, ()), (1, 4, ()), (2, 5, ()), (3, 5, ()), (4, 5, ()))), 1)
    x, xinv = Word.parse("x1"), Word.parse("x1^-1")
    tripod = dg.Diagram([0, 1, 2], [(3, 4, 5)], [(0, 3, (x,)), (1, 4, ()), (2, 5, (xinv,))])
    assert dg.canonicalize(tripod) == (
        (3, 1, ((0, 3, ()), (1, 3, ((1, -1),)), (2, 3, ((1, -1), (1, -1))))), 1)
    # an H whose vertices hold legs 3, 4 and legs 11, 12 among four struts:
    # colour classes compare leg ids as numbers, so the vertex at legs 3, 4
    # comes first
    edges = [(0, 1, ()), (4, 5, ()), (6, 7, ()), (8, 9, ()), (10, 12, ()), (11, 13, ()),
             (2, 15, ()), (3, 16, (x,)), (14, 17, ())]
    wide = dg.Diagram(list(range(12)), [(12, 13, 14), (15, 16, 17)], edges)
    assert dg.canonicalize(wide) == ((12, 2, (
        (0, 1, ()), (2, 12, ()), (3, 12, ((1, 1),)), (4, 5, ()), (6, 7, ()), (8, 9, ()),
        (10, 13, ()), (11, 13, ()), (12, 13, ()))), 1)


def test_canonical_keys_hash_names_the_cache_version():
    # the disk cache names entries by canonical keys: if this digest has to
    # change, bump cache.CACHE_VERSION in the same change
    cells = [(d, m, alphabet)
             for alphabet, top in ((TRIVIAL_ALPHABET, 3), (GEN11, 2))
             for d in range(top + 1) for m in range(2 * d + 1)]
    keys = [(d, m, alphabet.label, dg.enumerate_diagrams(d, m, alphabet))
            for d, m, alphabet in cells]
    digest = hashlib.sha256(repr(keys).encode()).hexdigest()
    assert (cache.CACHE_VERSION, digest) == (
        3, "dae54082cdfac4a5065618c8bd0cdc90cb7b387ec3dcc74b350aa3602a7ce003")


def assert_valid(dia):
    """A diagram made without validation equals its validated reconstruction."""
    again = dg.Diagram(dia.legs, dia.tri, dia.edges)
    assert (again.legs, again.tri, again.edges) == (dia.legs, dia.tri, dia.edges)


def test_trusted_rewrites_pass_validation(monkeypatch):
    # a warm relabel_key memo would answer without building the relabelled
    # diagram, so it would never reach the recording canonicalize below
    dg.relabel_key.cache_clear()
    made = []
    canonicalize = dg.canonicalize

    def recording(dia):
        made.append(dia)
        return canonicalize(dia)

    # enumeration and arc_canonicalize hand their unvalidated diagrams to it
    monkeypatch.setattr(dg, "canonicalize", recording)
    cells = [(TRIVIAL_ALPHABET, d, m) for d in (1, 2, 3) for m in range(1, 2 * d + 1)]
    cells += [(GEN11, d, m) for d in (1, 2) for m in range(1, 2 * d + 1)]
    rng = random.Random(3)
    for alphabet, d, m in cells:
        for key in dg.enumerate_diagrams(d, m, alphabet):
            dia = dg.rebuild(key)
            made.append(dia)
            for index in dg.internal_edges(dia):
                made.extend(term for _c, term in dg.ihx_at_edge(dia, index))
            for a in range(1, m + 1):
                for b in range(1, m + 1):
                    if a != b:
                        made.append(dg.glue_pair(dia, a, b))
            made.append(relabel_legs(dia, {i: m + 1 - i for i in range(1, m + 1)}))
            dg.relabel_key(key, tuple(range(m, 0, -1)))
            made.append(reverse_edge(dia, rng.randrange(len(dia.edges))))
            if dia.num_tri:
                made.append(dg.gauge_at_vertex(dia, m, Word.parse("x1*x2^-1")))
            arcs = [[("bead", ((1, 1),))] + [("leg", lab) for lab in range(1, m + 1)]]
            arcs, dashed, _sign = random_arc_moves(rng, arcs, dia, GEN11)
            ar.arc_canonicalize(arcs, dashed)
    # the ungluings of the growing arc closure, which the tests keep as the
    # oracle of the A-spaces' span, build their dashed parts in unglue_leg
    unglued = []
    unglue_leg = reference_helpers.unglue_leg

    def recording_unglue(dia, label):
        out = unglue_leg(dia, label)
        unglued.extend(out)
        return out

    monkeypatch.setattr(reference_helpers, "unglue_leg", recording_unglue)
    arc_cells = [(TRIVIAL_ALPHABET, m, d, True) for m in (1, 2) for d in (1, 2)]
    arc_cells += [(TRIVIAL_ALPHABET, 1, 3, True)]
    arc_cells += [(GEN11, m, 1, class0) for m in (1, 2) for class0 in (True, False)]
    for alphabet, m, d, class0 in arc_cells:
        for key in ar.enumerate_arc_diagrams(m, d, alphabet, class0):
            reference_helpers.unglue_neighbours(key)
    assert len(made) > 3000 and len(unglued) > 80
    for dia in made + unglued:
        assert_valid(dia)


def test_relabel_legs_needs_a_bijection():
    with pytest.raises(dg.DiagramError, match="bijection"):
        relabel_legs(strut(), {1: 1, 2: 1})
    tripod = dg.Diagram([0, 1, 2], [(3, 4, 5)], [(0, 3, ()), (1, 4, ()), (2, 5, ())])
    # label 0 must not stand in for leg 3, and no entry may name a fourth leg
    for new_label_of in ({1: 0, 2: 1, 3: 2}, {1: 1, 2: 2, 3: 3, 4: 9}, {1: 2, 2: 3, 3: 4},
                         {1: 1, 2: 2}):
        with pytest.raises(dg.DiagramError, match="bijection"):
            relabel_legs(tripod, new_label_of)
    assert relabel_legs(tripod, {1: 3, 2: 1, 3: 2}).legs == (1, 2, 0)


def _structures_filtered_afterwards(U, T):
    """The pairings of ``_structures`` as they were generated before legless
    components were pruned early: complete every pairing, then drop those
    with a legless component."""
    H = U + 3 * T
    matched = [False] * H
    pairs = []

    def vertex_of(h):
        return h if h < U else U + (h - U) // 3

    def rec():
        h = next((i for i in range(H) if not matched[i]), -1)
        if h < 0:
            comps = dg._components(U + T, [(vertex_of(a), vertex_of(b)) for a, b in pairs])
            if not any(all(v >= U for v in comp) for comp in comps):
                yield list(pairs)
            return
        matched[h] = True
        for h2 in range(h + 1, H):
            if matched[h2]:
                continue
            if h2 >= U:
                t, s = divmod(h2 - U, 3)
                base = U + 3 * t
                if any(not matched[base + s2] for s2 in range(s)):
                    continue
                if s == 0 and t > 0 and not any(matched[base - 3 + s2] for s2 in range(3)):
                    continue
            matched[h2] = True
            pairs.append((h, h2))
            yield from rec()
            pairs.pop()
            matched[h2] = False
        matched[h] = False

    return list(rec())


# every (U, T) of a degree d <= 5 cell: U legs, T = 2d - U trivalent vertices
STRUCTURE_CELLS = [(U, 2 * d - U) for d in range(6) for U in range(2 * d + 1)]


def _shape(U, pairs):
    """The vertex-level multigraph of a pairing: its sorted (vertex, vertex)
    edges, legs as vertices 0..U-1."""
    def vertex_of(h):
        return h if h < U else U + (h - U) // 3
    return tuple(sorted((vertex_of(a), vertex_of(b)) for a, b in pairs))


@pytest.mark.parametrize("U,T", STRUCTURE_CELLS, ids=["U%d-T%d" % c for c in STRUCTURE_CELLS])
def test_structures_prune_legless_components_early(U, T):
    if U == 0 and T > 0:
        # with no legs every component is legless
        assert list(dg._structures(0, T)) == []
        assert list(dg._structures(0, T, loops=False)) == []
        return
    expected = {_shape(U, p) for p in _structures_filtered_afterwards(U, T)}
    pairings = [[(a, b) for a, b, _w in dia.edges] for dia in dg._structures(U, T)]
    shapes = [_shape(U, p) for p in pairings]
    # each vertex-level shape exactly once
    assert len(shapes) == len(set(shapes)) and set(shapes) == expected
    # without loops: the same pairings in the same order, less those that
    # pair two slots of one trivalent vertex
    loop_free = [[(a, b) for a, b, _w in dia.edges]
                 for dia in dg._structures(U, T, loops=False)]
    assert loop_free == [p for p in pairings
                         if not any(a >= U and (a - U) // 3 == (b - U) // 3 for a, b in p)]


@pytest.mark.parametrize("U,T", STRUCTURE_CELLS, ids=["U%d-T%d" % c for c in STRUCTURE_CELLS])
def test_structures_equal_the_frozen_shape_search(U, T):
    # the one-flag order checks and the search that starts after the last
    # matched half-edge yield the range-scanning search's pairings, in order
    for loops in (True, False):
        assert ([dia.edges for dia in dg._structures(U, T, loops)]
                == [dia.edges for dia in shape_structures(U, T, loops)])


def test_structures_stream_their_pairings():
    # a generator yields each pairing as it is found, so the search never
    # holds the full list
    assert inspect.isgeneratorfunction(dg._structures)


def test_reverse_edge_inverts_bead():
    d = strut("x1")
    r = reverse_edge(d, 0)
    assert r.edges[0][:2] == (1, 0)
    assert r.edges[0][2] == Word.parse("x1^-1").letters
    assert dg.canonicalize(r) == dg.canonicalize(d)


def test_gauge_examples():
    d = tadpole("x1")
    g = Word.parse("x1*x1")
    gauged = dg.gauge_at_vertex(d, 1, g)
    assert dg.canonicalize(gauged) == dg.canonicalize(d)
    back = dg.gauge_at_vertex(gauged, 1, g.inverse())
    assert back.edges == d.edges
    assert dg.gauge_at_vertex(d, 1, Word()).edges == d.edges
    with pytest.raises(dg.DiagramError):
        dg.gauge_at_vertex(strut(), 0, Word.parse("x1"))


def test_validation_rejects_bad_structures():
    with pytest.raises(dg.DiagramError):
        dg.Diagram([0], [], [(0, 0, ())])  # odd vertex count, leg loop
    with pytest.raises(dg.DiagramError):
        # theta component without a univalent vertex
        dg.Diagram(
            [0, 1],
            [(2, 3, 4), (5, 6, 7)],
            [(0, 1, ()), (2, 5, ()), (3, 6, ()), (4, 7, ())],
        )
    with pytest.raises(dg.DiagramError):
        dg.Diagram([0, 0], [], [(0, 0, ())])  # duplicate half-edge


def test_tadpole_is_zero_and_beaded_tadpole_is_not():
    assert dg.canonicalize(tadpole()) == (dg.ZERO, 0)
    key_plus, s_plus = dg.canonicalize(tadpole("x1"))
    key_minus, s_minus = dg.canonicalize(tadpole("x1^-1"))
    assert key_plus == key_minus and s_plus == -s_minus


def test_strut_orientation_normalisation():
    w = Word.parse("x1*x2^-1")
    a = dg.Diagram([0, 1], [], [(0, 1, (w,))])
    b = dg.Diagram([0, 1], [], [(1, 0, (w.inverse(),))])
    assert dg.canonicalize(a) == dg.canonicalize(b)
    assert dg.canonicalize(a)[1] == 1


def test_as_swap_flips_sign_once():
    # tripod with three labelled legs
    d = dg.Diagram(
        [0, 1, 2], [(3, 4, 5)], [(0, 3, ()), (1, 4, ()), (2, 5, ())]
    )
    key, sign = dg.canonicalize(d)
    swapped = dg.Diagram(
        [0, 1, 2], [(4, 3, 5)], [(0, 3, ()), (1, 4, ()), (2, 5, ())]
    )
    key2, sign2 = dg.canonicalize(swapped)
    assert key2 == key and sign2 == -sign


def test_canonicalize_idempotent_on_rebuilt_keys():
    for alphabet in (TRIVIAL_ALPHABET, GEN11):
        for d, m in ((1, 1), (1, 2), (2, 2), (2, 3)):
            for key in dg.enumerate_diagrams(d, m, alphabet):
                assert dg.canonicalize(dg.rebuild(key)) == (key, 1)


def matchings_oracle(points):
    """Brute-force count of perfect matchings of a labelled point set."""
    if not points:
        return 1
    first, rest = points[0], points[1:]
    total = 0
    for i in range(len(rest)):
        total += matchings_oracle(rest[:i] + rest[i + 1 :])
    return total


def test_enumerate_examples():
    assert len(dg.enumerate_diagrams(1, 2, TRIVIAL_ALPHABET)) == 1
    assert dg.enumerate_diagrams(1, 1, TRIVIAL_ALPHABET) == []
    # strut-only cell: all perfect matchings of 4 labelled points
    expected = matchings_oracle(list(range(4)))
    assert len(dg.enumerate_diagrams(2, 4, TRIVIAL_ALPHABET)) == expected == 3
    assert len(dg.enumerate_diagrams(3, 6, TRIVIAL_ALPHABET)) == matchings_oracle(
        list(range(6))
    )


def test_enumerate_deterministic_and_duplicate_free():
    keys = dg.enumerate_diagrams(2, 2, GEN11)
    assert keys == sorted(set(keys))
    assert keys == dg.enumerate_diagrams(2, 2, GEN11)


def test_enumerate_bead_filter():
    for key in dg.enumerate_diagrams(2, 2, GEN11):
        for w in dg.key_beads(key):
            assert w in GEN11


def test_move_invariance_fuzzer():
    rng = random.Random(2024)
    seeds = seed_diagrams(GEN11, cells=((1, 1), (1, 2), (2, 2), (2, 3)))
    assert seeds
    for _ in range(400):
        base = rng.choice(seeds)
        key, sign = dg.canonicalize(base)
        moved, tracked = random_move_sequence(rng, base, GEN11, moves=8)
        key2, sign2 = dg.canonicalize(moved)
        assert key2 == key
        assert sign2 == tracked * sign


def test_gauge_never_changes_canonical_form():
    rng = random.Random(5)
    for base in seed_diagrams(GEN11, cells=((2, 2), (2, 3), (3, 4))):
        expected = dg.canonicalize(base)
        for _ in range(10):
            d = base
            for _ in range(4):
                if not d.num_tri:
                    break
                v = d.num_legs + rng.randrange(d.num_tri)
                g = Word(rng.choice(GEN11.letter_elements()))
                d = dg.gauge_at_vertex(d, v, g)
            assert dg.canonicalize(d) == expected


def test_presentation_shuffle_invariance():
    rng = random.Random(6)
    for base in seed_diagrams(TRIVIAL_ALPHABET, cells=((2, 2), (3, 3), (3, 4))):
        expected = dg.canonicalize(base)
        for _ in range(10):
            assert dg.canonicalize(shuffle_presentation(rng, base)) == expected


def test_ihx_site_involution():
    # the relation regenerated at any of its own terms spans the same line
    for key in dg.enumerate_diagrams(2, 2, TRIVIAL_ALPHABET):
        dia = dg.rebuild(key)
        for idx in dg.internal_edges(dia):
            terms = dg.ihx_at_edge(dia, idx)
            assert [c for c, _ in terms] == [1, -1, 1]
            first = dg.canonicalize(terms[0][1])
            assert first == (key, 1)


def test_json_roundtrip():
    for key in dg.enumerate_diagrams(2, 3, GEN11)[:6]:
        dia = dg.rebuild(key)
        obj = json.loads(json.dumps(dg.diagram_to_json(dia)))
        back = dg.diagram_from_json(obj)
        assert dg.canonicalize(back) == (key, 1)


def test_json_rejects_violations():
    with pytest.raises(dg.DiagramError, match="label"):
        dg.diagram_from_json(
            {
                "vertices": [{"id": 0, "kind": "uni", "label": 2, "halfedge": 0}],
                "edges": [{"id": 0, "from": 0, "to": 0, "beads": []}],
            }
        )
    with pytest.raises(dg.DiagramError, match="cyclic"):
        dg.diagram_from_json(
            {"vertices": [{"id": 0, "kind": "tri", "cyclic": [0, 1]}], "edges": []}
        )
    with pytest.raises(dg.DiagramError, match="kind"):
        dg.diagram_from_json({"vertices": [{"id": 0, "kind": "hex"}], "edges": []})
