"""Arc operations on keys against the raw route they replaced.

The functions from ``canonical_arc_vector`` to ``perm_arcs`` below are the
earlier arc operations, kept verbatim as the oracle: each rebuilds a raw
presentation of the key (``rebuild_arc``), edits its item lists and
canonicalizes the result again (``arc_canonicalize``).  The library acts on
the arc data and the labelled key directly, so it must give the same
vectors and the same neighbour keys.  The full-functor cells are where
``mu`` and the antipode slide a nontrivial arc bead onto dashed legs.
A-spaces eliminate STU relations alone, which imply IHX on arcs, so the
raw route's arc IHX is checked against the per-key arc IHX the tests keep
in ``reference_helpers``; the raw route's ungluings likewise check the
ungluings of the growing arc closure kept there.
"""

import itertools
from fractions import Fraction

import pytest

from beadiag import arcs as ar
from beadiag import diagrams as dg
from beadiag.arcs import ZERO, ArityMismatch, arc_canonicalize
from beadiag.linalg import vec
from beadiag.words import TRIVIAL_ALPHABET, alphabet_from_spec, inv_letters

from reference_helpers import ihx_relations_arc as reference_ihx_relations_arc
from reference_helpers import rebuild_arc, unglue_neighbours

GEN11 = alphabet_from_spec("gen:1:1")
GEN21 = alphabet_from_spec("gen:2:1")


def canonical_arc_vector(terms):
    """Sum of (coeff, arcs, dashed) raw terms as a vector over canonical keys."""
    pairs = []
    for coeff, arcs, dashed in terms:
        key, sign = arc_canonicalize(arcs, dashed)
        if key is not ZERO:
            pairs.append((key, coeff * sign))
    return vec(pairs)


def _leg_positions(arcs):
    """(arc_index, item_index) of each leg item, per arc."""
    out = []
    for j, items in enumerate(arcs):
        here = [(j, i) for i, (kind, _v) in enumerate(items) if kind == "leg"]
        out.append(here)
    return out


def _relabel_arc_legs(arcs, relabel):
    """Raw arcs with each leg item replaced by leg items carrying the labels
    ``relabel(label)`` returns, in order (none drops the leg); beads stay."""
    out = []
    for items in arcs:
        new_items = []
        for kind, value in items:
            if kind == "leg":
                new_items.extend(("leg", lab) for lab in relabel(value))
            else:
                new_items.append((kind, value))
        out.append(new_items)
    return out


def stu_relations(key):
    """One STU relation per adjacent leg pair on an arc: T - U - S = 0."""
    arcs, dashed = rebuild_arc(key)
    rels = []
    positions = _leg_positions(arcs)
    for j, here in enumerate(positions):
        for p in range(len(here) - 1):
            (_, i1), (_, i2) = here[p], here[p + 1]
            l1 = arcs[j][i1][1]
            l2 = arcs[j][i2][1]
            # U: swap the attachment order of the two legs
            arcs_u = [list(items) for items in arcs]
            arcs_u[j][i1], arcs_u[j][i2] = arcs_u[j][i2], arcs_u[j][i1]
            # S: glue the two legs onto a tripod; its free end attaches at p.
            # glue_pair relabels: new leg = l1, labels above l2 shift down.
            dashed_s = dg.glue_pair(dashed, l1, l2)
            arcs_s = _relabel_arc_legs(arcs, lambda lab: (
                (lab,) if lab < l2 else (lab - 1,) if lab > l2 else ()))
            rel = canonical_arc_vector(
                [(1, arcs, dashed), (-1, arcs_u, dashed), (-1, arcs_s, dashed_s)]
            )
            if rel:
                rels.append(rel)
    return rels


def _unglue_neighbours(key):
    """Keys of the T and U terms of STU instances whose S term is this key.

    Needed so that the closure contains every STU instance touching it: for
    each leg whose dashed edge ends at a trivalent vertex, detach the vertex
    back onto the arc in both orders.
    """
    arcs, dashed = rebuild_arc(key)
    U = dashed.num_legs
    vert = dashed.vertex_of()
    out = []
    for label in range(1, U + 1):
        h = dashed.legs[label - 1]
        eidx = next(
            i for i, (t, hd, _w) in enumerate(dashed.edges) if h in (t, hd)
        )
        tail, head, w = dashed.edges[eidx]
        x = vert[tail] if head == h else vert[head]
        if x < U:
            continue  # strut between legs: nothing to unglue
        dia = dashed
        if w:
            # gauge the leg edge's bead to 1 at the trivalent end:
            # head at x needs g = w^-1, tail at x needs g = w
            g = inv_letters(w) if vert[head] == x else w
            dia = dg.gauge_at_vertex(dia, x, g)
        tail, head, _one = dia.edges[eidx]
        hx = tail if vert[tail] == x else head
        triple = dia.tri[x - U]
        pos = triple.index(hx)
        second, first = triple[(pos + 1) % 3], triple[(pos + 2) % 3]
        # rebuild the dashed part without vertex x and the leg edge; the two
        # strands attach directly: 'first' at the leg's spot, 'second' after
        new_tri = dia.tri[: x - U] + dia.tri[x - U + 1 :]
        new_edges = dia.edges[:eidx] + dia.edges[eidx + 1 :]
        new_arcs = _relabel_arc_legs(arcs, lambda lab: (
            (lab,) if lab < label else (lab + 1,) if lab > label else (lab, lab + 1)))
        for ha, hb in ((first, second), (second, first)):
            legs = dia.legs[: label - 1] + (ha, hb) + dia.legs[label:]
            k2, _s = arc_canonicalize(new_arcs, dg.Diagram._trusted(legs, new_tri, new_edges))
            if k2 is not ZERO:
                out.append(k2)
    return out


def ihx_relations_arc(key):
    """IHX relations at internal dashed edges, arc structure unchanged."""
    arcs, dashed = rebuild_arc(key)
    rels = []
    for index in dg.internal_edges(dashed):
        terms = [(c, arcs, dia) for c, dia in dg.ihx_at_edge(dashed, index)]
        rel = canonical_arc_vector(terms)
        if rel:
            rels.append(rel)
    return rels


def _act_arc_key(gen, pos, key):
    """Action of one generator at arc position pos on a canonical key."""
    arcs, dashed = rebuild_arc(key)
    m = len(arcs)
    if gen == "eta":
        if not 1 <= pos <= m + 1:
            raise ArityMismatch("eta position out of range")
        arcs2 = arcs[: pos - 1] + [[]] + arcs[pos - 1 :]
        return canonical_arc_vector([(1, arcs2, dashed)])
    if gen == "eps":
        if not 1 <= pos <= m:
            raise ArityMismatch("eps position out of range")
        if any(kind == "leg" for kind, _ in arcs[pos - 1]):
            return {}
        arcs2 = arcs[: pos - 1] + arcs[pos:]
        return canonical_arc_vector([(1, arcs2, dashed)])
    if gen == "mu":
        if not 1 <= pos <= m - 1:
            raise ArityMismatch("mu position out of range")
        merged = arcs[pos - 1] + arcs[pos]
        arcs2 = arcs[: pos - 1] + [merged] + arcs[pos + 1 :]
        return canonical_arc_vector([(1, arcs2, dashed)])
    if gen == "antipode":
        if not 1 <= pos <= m:
            raise ArityMismatch("antipode position out of range")
        items = []
        for kind, value in reversed(arcs[pos - 1]):
            items.append((kind, inv_letters(value)) if kind == "bead" else (kind, value))
        sign = (-1) ** sum(1 for kind, _ in items if kind == "leg")
        arcs2 = arcs[: pos - 1] + [items] + arcs[pos:]
        return canonical_arc_vector([(sign, arcs2, dashed)])
    if gen == "delta":
        if not 1 <= pos <= m:
            raise ArityMismatch("delta position out of range")
        items = arcs[pos - 1]
        leg_idx = [i for i, (kind, _) in enumerate(items) if kind == "leg"]
        terms = []
        for mask in itertools.product((0, 1), repeat=len(leg_idx)):
            side = dict(zip(leg_idx, mask))
            copy1, copy2 = [], []
            for i, (kind, value) in enumerate(items):
                if kind == "bead":
                    copy1.append((kind, value))
                    copy2.append((kind, value))
                elif side[i] == 0:
                    copy1.append((kind, value))
                else:
                    copy2.append((kind, value))
            arcs2 = arcs[: pos - 1] + [copy1, copy2] + arcs[pos:]
            terms.append((1, arcs2, dashed))
        return canonical_arc_vector(terms)
    raise ValueError("unknown generator %r" % gen)


def perm_arcs(sigma, vector):
    """Permute arcs; sigma[old_position] = new_position (1-based)."""
    terms = []
    for key, coeff in vector.items():
        arcs, dashed = rebuild_arc(key)
        arcs2 = [None] * len(arcs)
        for old0, items in enumerate(arcs):
            arcs2[sigma[old0 + 1] - 1] = items
        terms.append((coeff, arcs2, dashed))
    return canonical_arc_vector(terms)


# ---------------------------------------------------------------------------

# no arcs carry no legs, so m = 0 has keys only in degree 0; the d = 3
# cells put up to 6 legs on one arc, 64 shuffles under delta
CELLS = [
    (alphabet, m, d, c0)
    for alphabet, max_m, max_d, classes in ((TRIVIAL_ALPHABET, 3, 2, (True,)),
                                            (GEN11, 3, 1, (True, False)),
                                            (GEN21, 2, 1, (True, False)))
    for m in range(max_m + 1) for d in range(max_d + 1) for c0 in classes
    if m or not d
] + [(TRIVIAL_ALPHABET, m, 3, True) for m in (1, 2)]


def positions(gen, m):
    """The valid positions of a generator on m arcs, and the first invalid
    position on each side."""
    top = {"eta": m + 1, "mu": m - 1}.get(gen, m)
    return range(1, top + 1), (0, top + 1)


@pytest.mark.parametrize(
    "alphabet,m,d,class0", CELLS,
    ids=["%s-m%d-d%d-%s" % (a.label, m, d, "class0" if c0 else "full")
         for a, m, d, c0 in CELLS],
)
def test_key_operations_match_the_raw_route(alphabet, m, d, class0):
    keys = ar.enumerate_arc_diagrams(m, d, alphabet, class0)
    assert keys
    perms = [dict(zip(range(1, m + 1), p)) for p in itertools.permutations(range(1, m + 1))]
    for key in keys:
        unit = {key: Fraction(1)}
        for gen in ("eta", "eps", "mu", "antipode", "delta"):
            valid, invalid = positions(gen, m)
            for pos in valid:
                assert ar.gr_act(gen, pos, unit) == _act_arc_key(gen, pos, key), (gen, pos, key)
            for pos in invalid:
                with pytest.raises(ArityMismatch):
                    ar.gr_act(gen, pos, unit)
        for sigma in perms:
            assert ar.perm_arcs(sigma, unit) == perm_arcs(sigma, unit), (sigma, key)
        assert ar.stu_relations(key) == stu_relations(key), key
        assert reference_ihx_relations_arc(key) == ihx_relations_arc(key), key
        assert unglue_neighbours(key) == _unglue_neighbours(key), key
