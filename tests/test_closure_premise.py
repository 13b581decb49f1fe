"""The premise of the library's spans, checked against a closure that grows.

A J-space or an A-space is spanned by its enumeration, and its build
refuses (``ClosureDiverged``) at the first relation of a span key that
reaches a key outside it.  The closure the builders used to run, which
grows a key set until no relation leaves it (and on arcs no ungluing), is
kept as the oracle (``reference_helpers.grown_closure`` and
``grown_arc_closure``).  On these beaded cells the library refuses exactly
where that closure diverges, that is, grows a bead past 128 letters.
Where the library builds the space, the grown closure, ungluings
included, is the enumeration, and the space's rows are the echelon form
of the grown closure's relations.  So no closure here grew to a finite
larger span that the builders now miss.
"""

import pytest

from beadiag import arcs as ar
from beadiag import diagrams as dg
from beadiag.jspaces import ClosureDiverged, j_space
from beadiag.linalg import echelonize
from beadiag.words import alphabet_from_spec

from reference_helpers import arc_key_beads, grown_arc_closure, grown_closure

SPECS = ("gen:1:1", "gen:2:1", "gen:1:2")
J_CELLS = [(spec, 2, m) for spec in SPECS for m in range(6)]
A_CELLS = [(spec, d, m, class0) for spec in SPECS for d in range(3) for m in range(3)
           for class0 in (True, False)]


def _grown(close, seeds):
    """The oracle's closure and relations, or None where it diverges."""
    rels = []
    try:
        return close(seeds, rels), rels
    except ClosureDiverged:
        return None


def _premise(build, beads, alphabet, grown):
    try:
        space = build()
    except ClosureDiverged as exc:
        assert grown is None
        assert any(w not in alphabet for w in beads(exc.key))
        return False
    keys, rels = grown
    assert keys == space.span
    assert echelonize(rels).rows == space.relations.rows
    return True


@pytest.mark.parametrize("spec, d, m", J_CELLS, ids=["%s-J%d(%d)" % cell for cell in J_CELLS])
def test_j_space_refuses_exactly_where_the_grown_closure_diverges(spec, d, m):
    alphabet = alphabet_from_spec(spec)
    seeds = dg.enumerate_diagrams(d, m, alphabet)
    grown = _grown(grown_closure, seeds)
    built = _premise(lambda: j_space(d, m, alphabet), dg.key_beads, alphabet, grown)
    assert built == (m != 1 and m != 2)
    if built:
        assert j_space(d, m, alphabet).span == tuple(seeds)


@pytest.mark.parametrize("spec, d, m, class0", A_CELLS,
                         ids=["%s-A%d(%d)-%s" % (s, d, m, "class0" if c0 else "full")
                              for s, d, m, c0 in A_CELLS])
def test_a_space_refuses_exactly_where_the_grown_closure_diverges(spec, d, m, class0):
    alphabet = alphabet_from_spec(spec)
    seeds = ar.enumerate_arc_diagrams(m, d, alphabet, class0)
    grown = _grown(grown_arc_closure, seeds)
    built = _premise(lambda: ar.a_space(alphabet.rank, m, d, alphabet, class0),
                     arc_key_beads, alphabet, grown)
    assert built == (d < 2 or m == 0)
    if built:
        assert ar.a_space(alphabet.rank, m, d, alphabet, class0).span == tuple(seeds)
