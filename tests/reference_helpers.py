"""Reference helpers that only the tests use.

``quotient_dim`` is the tests' reference dimension of a span modulo
relations; ``rebuild_arc`` and ``homotopy_class_raw`` are the raw-arc routes
that the arc-canonicalization oracles compare with the canonical keys.
"""

from beadiag import diagrams as dg
from beadiag.linalg import echelonize
from beadiag.words import IDENTITY, Word, mul_letters


class RelationOutsideSpan(Exception):
    """A relation has support on a key absent from the spanning universe."""


def quotient_dim(span, relations) -> int:
    """dim span(span) minus dim (span(relations) within span(span)).

    Every relation must be supported on keys occurring in ``span``;
    otherwise the relation-generating closure was incomplete and
    :class:`RelationOutsideSpan` is raised.
    """
    universe = set()
    for v in span:
        universe.update(v)
    for r in relations:
        for key in r:
            if key not in universe:
                raise RelationOutsideSpan(key)
    basis = echelonize(relations)
    dim = 0
    for v in span:
        if basis.insert(v):
            dim += 1
    return dim


def rebuild_arc(key):
    """A raw presentation of a canonical arc key (labels already canonical)."""
    m, arc_beads, counts, dkey = key
    arcs = []
    label = 1
    for j in range(m):
        items = []
        if arc_beads[j]:
            items.append(("bead", arc_beads[j]))
        for _ in range(counts[j]):
            items.append(("leg", label))
            label += 1
        arcs.append(items)
    return arcs, dg.rebuild(dkey)


def homotopy_class_raw(arcs):
    """Arc holonomies of a raw presentation, move-invariantly."""
    out = []
    for items in arcs:
        prod = IDENTITY
        for kind, value in items:
            if kind == "bead":
                prod = mul_letters(prod, tuple(value))
        out.append(Word(prod))
    return tuple(out)
