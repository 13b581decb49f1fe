"""Strut diagrams (no trivalent vertex) take a direct path in
``diagrams._canonical_form``: struts oriented from the lower leg, inverting
the bead when reversed, sorted, sign +1.  The general search below, kept
verbatim from before that path, is the oracle: the two must give the same
(key, sign, order) on every strut key of the beaded enumeration cells and on
every leg relabelling and edge reversal of it."""

import itertools

import pytest

from beadiag import diagrams as dg
from beadiag.words import TRIVIAL_ALPHABET, alphabet_from_spec, inv_letters, mul_letters


def general_form(diagram):
    """(key, sign, order) by the numbering x gauge search, which strut
    diagrams took too.

    Candidates are numberings x canonical gauges; the least certificate is
    the key.  A numbering keeps the legs' ids and fills each block of
    ``_colour_classes`` in every order.  Flipping a loop changes only
    that loop's entry, inverting its bead: a bead-free loop reaches every
    certificate with both signs, so the diagram is zero, and otherwise only
    the orientation with the smaller bead can be least.  The gauges depend
    on the numbering alone, and are all trivial when no edge carries a
    bead.  Entries sort as (u, v, bead length, bead, edge index), so ties
    keep edge order.  The sign is the product, over trivalent vertices, of
    the parity of the order in which the sorted entries meet the vertex's
    half-edges against its cyclic order.
    """
    U, T = diagram.num_legs, diagram.num_tri
    if not diagram.edges:
        return ((U, T, ()), 1, ())
    vert = diagram.vertex_of()
    base = [(vert[t], vert[h], ei, t, h, w) for ei, (t, h, w) in enumerate(diagram.edges)]
    beaded = False
    for tv, hv, _ei, _th, _hh, w in base:
        if w:
            beaded = True
        elif tv == hv:
            return (dg.ZERO, 0, None)
    if beaded:
        adjacency = [[] for _ in range(U + T)]
        for tv, hv, ei, _th, _hh, _w in base:
            if tv != hv:
                adjacency[tv].append((hv, ei))
                adjacency[hv].append((tv, ei))

    best = order = None
    signs = set()
    cmap = list(range(U + T))
    for perms in itertools.product(*map(itertools.permutations, dg._colour_classes(diagram))):
        for new_id, v in enumerate(itertools.chain.from_iterable(perms), U):
            cmap[v] = new_id
        for gamma in dg._gauges(dg._tree_steps(U, cmap, adjacency), base) if beaded else ({},):
            entries = []
            for tv, hv, ei, th, hh, w in base:
                if gamma:
                    g = gamma.get(tv)
                    if g:
                        w = mul_letters(inv_letters(g), w)
                    g = gamma.get(hv)
                    if g:
                        w = mul_letters(w, g)
                cu, cv = cmap[tv], cmap[hv]
                if cu > cv:
                    cu, cv, th, hh, w = cv, cu, hh, th, inv_letters(w)
                elif cu == cv:
                    wi = inv_letters(w)
                    if wi < w:
                        th, hh, w = hh, th, wi
                entries.append((cu, cv, len(w), w, ei, th, hh))
            entries.sort()
            cert = (U, T, tuple([(cu, cv, w) for cu, cv, _n, w, _ei, _th, _hh in entries]))
            if best is not None and cert > best:
                continue
            rank = {}  # half-edge -> where the sorted entries meet it
            for i, (_cu, _cv, _n, _w, _ei, th, hh) in enumerate(entries):
                rank[th], rank[hh] = 2 * i, 2 * i + 1
            sign = 1
            for a, b, c in diagram.tri:
                # the triple meets its half-edges in cyclic order iff exactly
                # two of the three cyclic comparisons hold
                if (rank[a] < rank[b]) + (rank[b] < rank[c]) + (rank[c] < rank[a]) != 2:
                    sign = -sign
            if cert != best:
                best, order, signs = cert, tuple([e[4] for e in entries]), set()
            signs.add(sign)
    if len(signs) == 2:
        return (dg.ZERO, 0, None)
    return (best, signs.pop(), order)


# (alphabet, d): every m = 2d cell of the enumeration oracle, plus gen:2:1
CELLS = [("gen:1:1", 1), ("gen:1:1", 2), ("gen:2:2", 1), ("gen:2:2", 2), ("gen:2:1", 2),
         ("trivial", 3)]


@pytest.mark.parametrize("spec, d", CELLS, ids=["%s-d%d" % c for c in CELLS])
def test_strut_forms_equal_the_general_search(spec, d):
    alphabet = TRIVIAL_ALPHABET if spec == "trivial" else alphabet_from_spec(spec)
    keys = dg.enumerate_diagrams(d, 2 * d, alphabet)
    assert keys
    for key in keys:
        dia = dg.rebuild(key)
        assert dg._canonical_form(dia) == general_form(dia) == (key, 1, tuple(range(d)))
        for order in itertools.permutations(range(2 * d)):
            relabelled = dg.Diagram._trusted(tuple(dia.legs[i] for i in order), (), dia.edges)
            reversed_ = relabelled
            for index in range(d):
                reversed_ = dg.reverse_edge(reversed_, index)
            for moved in (relabelled, reversed_):
                assert dg._canonical_form(moved) == general_form(moved)
