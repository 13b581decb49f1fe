"""Closure computes each IHX instance once, checked against the closure that
computed the relation at every internal edge of every member, kept here
verbatim as the oracle: equal spans and equal reduced echelon rows."""

import random

import pytest

from beadiag import diagrams as dg
from beadiag import jspaces
from beadiag.jspaces import canonical_vector
from beadiag.linalg import echelonize, vaxpy, vec
from beadiag.words import TRIVIAL_ALPHABET, alphabet_from_spec

from move_fuzzer import random_move_sequence, seed_diagrams
from reference_helpers import grow


def _ihx_relations_every_edge(key):
    """One IHX relation vector per internal edge of the canonical diagram."""
    dia = dg.rebuild(key)
    out = []
    for index in dg.internal_edges(dia):
        _i, h_term, x_term = dg.ihx_at_edge(dia, index)
        rel = vec([(key, 1), *canonical_vector((h_term, x_term)).items()])
        if rel:
            out.append(rel)
    return out


def _closure_every_edge(seed_keys, relations):
    """Smallest superset of the seeds closed under IHX neighbours; every IHX
    relation of every member is appended to the list ``relations``."""

    def expand(key):
        rels = _ihx_relations_every_edge(key)
        return rels, (nb for rel in rels for nb in rel)

    return grow(seed_keys, relations, expand, dg.key_beads)


GEN11 = alphabet_from_spec("gen:1:1")
GEN22 = alphabet_from_spec("gen:2:2")
# (alphabet, d, m): trivial d <= 4 for every m and J_5(2), gen:1:1 d <= 1
# for every m, and the gen:2:2 cells of the queries corpus
CELLS = (
    [(TRIVIAL_ALPHABET, d, m) for d in range(5) for m in range(2 * d + 1)]
    + [(TRIVIAL_ALPHABET, 5, 2)]
    + [(GEN11, d, m) for d in range(2) for m in range(2 * d + 1)]
    + [(GEN22, 1, 1), (GEN22, 1, 2), (GEN22, 2, 4)]
)


def _cell_id(cell):
    alphabet, d, m = cell
    return "%s-d%d-m%d" % (alphabet.label, d, m)


@pytest.fixture(scope="module")
def closed():
    """Per cell: (span, relations) of the library closure and of the oracle."""
    out = {}
    for cell in CELLS:
        seeds = dg.enumerate_diagrams(cell[1], cell[2], cell[0])
        rels, old_rels = [], []
        span = jspaces.closure(seeds, rels)
        out[cell] = (span, rels), (_closure_every_edge(seeds, old_rels), old_rels)
    return out


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_span_and_rows_equal_the_every_edge_closure(closed, cell):
    (span, rels), (old_span, old_rels) = closed[cell]
    assert span == old_span
    assert echelonize(rels).rows == echelonize(old_rels).rows
    assert len(rels) <= len(old_rels)


def test_fewer_relations_on_j52(closed):
    (_span, rels), (_old_span, old_rels) = closed[(TRIVIAL_ALPHABET, 5, 2)]
    assert len(rels) < len(old_rels) == 675


@pytest.mark.parametrize("alphabet, cells", [
    (TRIVIAL_ALPHABET, ((2, 2), (3, 2), (3, 4), (4, 2))),
    (GEN11, ((2, 2), (2, 3))),
])
def test_relation_at_an_edge_follows_the_edge_into_the_key(alphabet, cells):
    # the IHX relation at edge e of a presentation D equals, up to sign, the
    # one at entry order.index(e) of rebuild(key), for every edge order the
    # canonical form returns: each entry the done set records is the edge's
    # instance
    rng = random.Random(14)
    seeds = seed_diagrams(alphabet, cells=cells)
    edges = 0
    for _ in range(300):
        dia, _sign = random_move_sequence(rng, rng.choice(seeds), alphabet, moves=8)
        key, _sign, orders = dg._canonical_form(dia)
        rebuilt = dg.rebuild(key)
        for order in orders:
            assert sorted(order) == list(range(len(dia.edges)))
            for e in dg.internal_edges(dia):
                rel = canonical_vector(dg.ihx_at_edge(dia, e))
                at_key = canonical_vector(dg.ihx_at_edge(rebuilt, order.index(e)))
                assert rel in (at_key, vaxpy({}, -1, at_key)), (dia.edges, e)
                edges += 1
    assert edges > 100
