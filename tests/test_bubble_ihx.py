"""``jspaces.ihx_relations`` computes no IHX relation at a bead-free bubble.

A bubble edge is an internal edge whose two trivalent ends a second edge
also joins, both edges bead-free.  The IHX relation there is 0: one of H
and X keeps the other edge as a bead-free loop, and the remaining term is
-I.  On every cell of ``test_ihx_once.py``, each bubble edge of each closure
key gives the empty relation when all three terms are computed, and the
closure's relation list, values and order, equals the one of
``ihx_relations`` without the bubble rule, kept here verbatim as the oracle.
"""

import pytest

from beadiag import diagrams as dg
from beadiag import jspaces
from beadiag.jspaces import canonical_vector
from beadiag.linalg import vec
from beadiag.words import TRIVIAL_ALPHABET

from test_ihx_once import CELLS, _cell_id


def ihx_relations_at_every_bubble(key, done=None):
    """One IHX relation vector per internal edge of the canonical diagram,
    skipping only the edges found in ``done``."""
    dia = dg.rebuild(key)
    out = []
    for index in dg.internal_edges(dia):
        if done is not None and (key, index) in done:
            continue
        pairs = [(key, 1)]
        for coeff, term in dg.ihx_at_edge(dia, index)[1:]:
            term_key, sign, order = dg._canonical_form(term)
            if term_key is not dg.ZERO:
                pairs.append((term_key, coeff * sign))
                if done is not None:
                    done.add((term_key, order.index(index)))
        rel = vec(pairs)
        if rel:
            out.append(rel)
    return out


def closure_at_every_bubble(seed_keys, relations):
    done = set()

    def expand(key):
        rels = ihx_relations_at_every_bubble(key, done)
        return rels, (nb for rel in rels for nb in rel)

    return jspaces._grow(seed_keys, relations, expand, dg.key_beads)


def bubble_edges(key):
    """Entries of the key joining two distinct trivalent vertices that
    another entry also joins, both without a bead."""
    U, _T, entries = key
    return [i for i, (u, v, w) in enumerate(entries)
            if u >= U and v >= U and u != v and not w
            and any(j != i and {x, y} == {u, v} and not b for j, (x, y, b) in enumerate(entries))]


def _every_edge_relation(key, index):
    """The IHX relation at one edge with all three terms canonicalized."""
    dia = dg.rebuild(key)
    return vec([(key, 1), *canonical_vector(dg.ihx_at_edge(dia, index)[1:]).items()])


@pytest.fixture(scope="module")
def closed():
    """Per cell: (span, relations) of the library closure and of the oracle."""
    out = {}
    for cell in CELLS:
        seeds = dg.enumerate_diagrams(cell[1], cell[2], cell[0])
        rels, old_rels = [], []
        out[cell] = ((jspaces.closure(seeds, rels), rels),
                     (closure_at_every_bubble(seeds, old_rels), old_rels))
    return out


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_every_bubble_edge_gives_the_empty_relation(closed, cell):
    (span, _rels), _oracle = closed[cell]
    for key in span:
        for index in bubble_edges(key):
            assert _every_edge_relation(key, index) == {}, (key, index)


def test_the_cells_have_bubbles(closed):
    count = sum(len(bubble_edges(key)) for (span, _rels), _oracle in closed.values()
                for key in span)
    assert count > 500


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_relation_list_equals_the_closure_without_the_bubble_rule(closed, cell):
    (span, rels), (old_span, old_rels) = closed[cell]
    assert span == old_span
    assert [list(rel.items()) for rel in rels] == [list(rel.items()) for rel in old_rels]


def _hx_forms(monkeypatch, close, seeds):
    calls = 0
    canonical_form = dg._canonical_form

    def counted(dia):
        nonlocal calls
        calls += 1
        return canonical_form(dia)

    monkeypatch.setattr(dg, "_canonical_form", counted)
    close(seeds, [])
    monkeypatch.setattr(dg, "_canonical_form", canonical_form)
    return calls


def test_j52_makes_fewer_hx_forms(monkeypatch):
    seeds = dg.enumerate_diagrams(5, 2, TRIVIAL_ALPHABET)
    calls = _hx_forms(monkeypatch, jspaces.closure, seeds)
    oracle_calls = _hx_forms(monkeypatch, closure_at_every_bubble, seeds)
    assert calls <= 836 < oracle_calls == 1304
