"""Reference helpers that only the tests use.

``quotient_dim`` is the tests' reference dimension of a span modulo
relations; ``rebuild_arc`` and ``homotopy_class_raw`` are the raw-arc routes
that the arc-canonicalization oracles compare with the canonical keys.
Below them: accessors of canonical labelled and arc keys, the leg
relabelling of a raw diagram (the oracle of ``diagrams.relabel_key``), the
rank embedding of arc vectors, the truncation dimensions, and the property
suites of the gluing action (Jacobi identity, well-definedness).
"""

from beadiag import catlie as cl
from beadiag import diagrams as dg
from beadiag.jspaces import j_space, vector_is_zero_in_full_space
from beadiag.linalg import echelonize, vec
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


# ---------------------------------------------------------------------------
# canonical keys: labelled keys (legs, trivalents, edges), arc keys
# (m, arc beads, leg counts, labelled key)


def key_num_tri(key):
    return key[1]


def key_degree(key):
    return (key[0] + key[1]) // 2


def arc_key_counts(key):
    return key[2]


def arc_key_degree(key):
    return (key[3][0] + key[3][1]) // 2


def arc_key_is_class0(key):
    return all(not b for b in key[1])


def homotopy_class(key):
    """The tuple of arc holonomies (one Word per arc)."""
    return tuple(Word(b) for b in key[1])


def relabel_legs(diagram, new_label_of):
    """Permute leg labels; ``new_label_of[old]`` is the new 1-based label."""
    labels = list(range(1, diagram.num_legs + 1))
    if sorted(new_label_of) != labels or sorted(new_label_of.values()) != labels:
        raise dg.DiagramError("new leg labels must be a bijection onto 1..%d" % len(labels))
    legs = [None] * len(labels)
    for old0, h in enumerate(diagram.legs):
        legs[new_label_of[old0 + 1] - 1] = h
    return dg.Diagram._trusted(tuple(legs), diagram.tri, diagram.edges)


def epsilon_embed(vector, n):
    """Reinterpret beads of F_n inside F_{n+1}; injective on canonical keys."""
    for key in vector:
        for w in dg.key_beads(key[3]) + list(key[1]):
            for idx, _sign in w:
                if idx > n:
                    raise ValueError("bead uses generator x%d beyond rank %d" % (idx, n))
    return dict(vector)


def truncate(d: int, l: int, alphabet) -> dict:
    """Dimensions of the truncation at level l: J_d(k) for k <= l, else 0."""
    return {
        k: (j_space(d, k, alphabet).dimension if k <= l else 0)
        for k in range(0, 2 * d + 1)
    }


# ---------------------------------------------------------------------------
# property suites of the gluing action


def check_jacobi(d, alphabet, arity):
    """The bracket identity for the gluing action: the three iterated
    gluings of legs (1,2,3) sum to zero in the quotient, for every basis
    diagram at the given arity (needs arity >= 3)."""
    if arity < 3:
        raise ValueError("need arity >= 3")
    space = j_space(d, arity, alphabet)
    failures = []
    def bracket(v, a, b):
        return vec(
            (k2, coeff * c)
            for kk, coeff in v.items()
            for k2, c in cl.glue_pair_key(kk, a, b).items()
        )

    for key in space.free_keys:
        v = {key: 1}
        # [[1,2],3] + [[2,3],1] + [[3,1],2]
        t1 = bracket(bracket(v, 1, 2), 1, 2)
        t2 = bracket(bracket(v, 2, 3), 2, 1)
        t3 = bracket(bracket(v, 3, 1), 1, 2)
        total = vec(pair for t in (t1, t2, t3) for pair in t.items())
        if not vector_is_zero_in_full_space(total):
            failures.append(key)
    return {
        "d": d,
        "alphabet": alphabet.label,
        "arity": arity,
        "basis": len(space.free_keys),
        "failures": failures,
        "pass": not failures,
    }


def check_mu_well_defined(d, alphabet, arity):
    """The gluing action kills IHX relation vectors (well-definedness on the
    quotient)."""
    space = j_space(d, arity, alphabet)
    failures = []
    # the echelon rows span the IHX relations, and gluing is linear
    for key, rel in space.relations.rows.items():
        for i in range(1, arity):
            img = cl.mu_action(i, rel, arity)
            if not vector_is_zero_in_full_space(img):
                failures.append((key, i))
    return {
        "d": d,
        "alphabet": alphabet.label,
        "arity": arity,
        "failures": failures,
        "pass": not failures,
    }
