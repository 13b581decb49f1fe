"""The loop-free enumeration with one pairing per vertex-level shape, the
IHX relations without an I-term canonicalization and the colour refinement
that stops at singletons, each checked against the route it replaced, kept
here (and in ``frozen_structures``) verbatim as the oracle."""

import itertools

import pytest

from beadiag import diagrams as dg
from beadiag.jspaces import canonical_vector, ihx_relations
from beadiag.words import TRIVIAL_ALPHABET, alphabet_from_spec

from frozen_structures import structures


def _enumerate_every_bead(d, m, alphabet):
    """The enumerator before loop-free skeletons and one pairing per shape:
    every pairing of the frozen ``structures(m, T)`` times every bead on
    every edge."""
    T = 2 * d - m
    if T < 0:
        return []
    if d == 0:
        return [(0, 0, ())] if m == 0 else []
    if m == 0:
        return []
    letters = alphabet.letter_elements()
    found = set()
    for skeleton in structures(m, T):
        E = len(skeleton.edges)
        for beads in itertools.product(letters, repeat=E):
            dia = dg.Diagram._trusted(
                skeleton.legs,
                skeleton.tri,
                tuple((t, h, w) for (t, h, _), w in zip(skeleton.edges, beads)),
            )
            key, _sign = dg.canonicalize(dia)
            if key is dg.ZERO:
                continue
            if all(w in alphabet._members for w in dg.key_beads(key)):
                found.add(key)
    return sorted(found)


def _ihx_three_terms(key):
    """IHX relations with all three terms canonicalized, the I term too."""
    dia = dg.rebuild(key)
    out = []
    for index in dg.internal_edges(dia):
        rel = canonical_vector(dg.ihx_at_edge(dia, index))
        if rel:
            out.append(rel)
    return out


def _ranks(values):
    """Each value's position among the distinct values in sorted order."""
    position = {c: i for i, c in enumerate(sorted(set(values)))}
    return [position[c] for c in values]


def _colour_classes_until_stable(diagram):
    """Colour classes refined until the number of colours stops growing,
    with no stop at singletons."""
    U, T = diagram.num_legs, diagram.num_tri
    if T == 0:
        return []
    vert = diagram.vertex_of()
    incident = [[] for _ in range(T)]
    neighbours = [[] for _ in range(T)]
    for tail, head, _ in diagram.edges:
        a, b = vert[tail], vert[head]
        for x, y in ((a, b), (b, a)):
            if x >= U:
                if y == x:
                    incident[x - U].append(("loop",))
                elif y < U:
                    incident[x - U].append(("leg", y))
                else:
                    incident[x - U].append(("tri", 0))
                    neighbours[x - U].append(y - U)
    colour = _ranks([tuple(sorted(inc)) for inc in incident])
    while True:
        refined = _ranks([
            (colour[j], tuple(sorted(colour[x] for x in neighbours[j]))) for j in range(T)
        ])
        if max(refined) == max(colour):
            break
        colour = refined
    classes = [[] for _ in range(max(colour) + 1)]
    for j, c in enumerate(colour):
        classes[c].append(U + j)
    return classes


GEN11 = alphabet_from_spec("gen:1:1")
GEN22 = alphabet_from_spec("gen:2:2")
# (alphabet, d, m): trivial d <= 4 for every m and J_5(2), gen:1:1 d <= 2
# for every m, and the gen:2:2 cells of the queries corpus
CELLS = (
    [(TRIVIAL_ALPHABET, d, m) for d in range(5) for m in range(2 * d + 1)]
    + [(TRIVIAL_ALPHABET, 5, 2)]
    + [(GEN11, d, m) for d in range(3) for m in range(2 * d + 1)]
    + [(GEN22, 1, 1), (GEN22, 1, 2), (GEN22, 2, 4)]
)


def _cell_id(cell):
    alphabet, d, m = cell
    return "%s-d%d-m%d" % (alphabet.label, d, m)


@pytest.fixture(scope="module")
def enumerated():
    return {cell: dg.enumerate_diagrams(cell[1], cell[2], cell[0]) for cell in CELLS}


# the key lists are also compared on trivial d = 5 for every m; the IHX and
# colour-class checks below stay on CELLS, where they take seconds, not tens
KEY_CELLS = CELLS + [(TRIVIAL_ALPHABET, 5, m) for m in range(11) if m != 2]


@pytest.mark.parametrize("cell", KEY_CELLS, ids=_cell_id)
def test_enumeration_equals_every_bead_on_every_pairing(enumerated, cell):
    alphabet, d, m = cell
    keys = enumerated[cell] if cell in enumerated else dg.enumerate_diagrams(d, m, alphabet)
    assert keys == _enumerate_every_bead(d, m, alphabet)


def test_ihx_relations_equal_the_three_term_route(enumerated):
    keys = sorted({key for cell_keys in enumerated.values() for key in cell_keys})
    relations = 0
    for key in keys:
        rels, old = ihx_relations(key), _ihx_three_terms(key)
        assert rels == old, key
        assert [list(rel) for rel in rels] == [list(rel) for rel in old], key  # key order too
        relations += len(rels)
    assert relations > 0


def test_colour_classes_equal_refinement_until_stable(enumerated):
    corpus = [dg.rebuild(key) for cell_keys in enumerated.values() for key in cell_keys]
    corpus += [dia for _alphabet, d, m in CELLS if m for dia in structures(m, 2 * d - m)]
    singletons = 0
    for dia in corpus:
        classes = dg._colour_classes(dia)
        assert classes == _colour_classes_until_stable(dia)
        singletons += bool(classes) and max(map(len, classes)) == 1
    assert singletons > 0
