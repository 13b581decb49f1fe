"""Reference helpers that only the tests use.

``quotient_dim`` is the tests' reference dimension of a span modulo
relations, and ``vector_is_zero_in_full_space`` its zero test in the
untruncated quotient; ``rebuild_arc`` and ``homotopy_class_raw`` are the
raw-arc routes that the arc-canonicalization oracles compare with the
canonical keys, ``oracle_leg_placements`` the tests' enumerator of every
fiber-ordered map, ``catass_act`` the generator action on the fibers of
one such map, and ``numbered_zero_test`` the arc zero test with
failures injected by vector; ``clear_dashed_memos`` empties the arc
layer's memo before a test counts dashed work.  ``grow`` is the closure
that grows a key set until no relation leaves it, the oracle of the
library's spans, which are their enumerations: ``grown_closure`` under
IHX, ``grown_arc_closure`` under STU and the ungluings of ``unglue_leg``
(``unglue_neighbours``).  ``ihx_relations_arc`` is the per-key arc IHX,
which STU implies on arcs, so A-spaces do not generate it, and
``arc_closure_with_ihx`` the grown arc closure under STU and it together,
whose relations the A-space rows must echelonize to.  ``passi_sigma`` is
the degree-two involution as a matrix, whose trace ``a11_reference_dim``
takes in closed form.
Below them: accessors of canonical labelled and arc keys, the leg
relabelling of a raw diagram (the oracle of ``diagrams.relabel_key``), the
rank embedding of arc vectors, the truncation dimensions, and the property
suites of the gluing action (Jacobi identity, well-definedness).
"""

import itertools
from fractions import Fraction

from beadiag import arcs as ar
from beadiag import catlie as cl
from beadiag import diagrams as dg
from beadiag.arcs import check_position
from beadiag.bridge import _act_fibers
from beadiag.jspaces import ClosureDiverged, canonical_vector, ihx_relations, j_space
from beadiag.linalg import echelonize, vec
from beadiag.words import IDENTITY, Word, inv_letters, mul_letters


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


MAX_CLOSURE_BEAD_LENGTH = 128


def grow(seed_keys, relations, expand, beads_of):
    """Smallest superset of the seeds closed under the neighbours ``expand``
    reports.

    ``expand(key)`` returns the key's relations and its neighbours; every
    relation is appended to ``relations``.  Keys are expanded last in,
    first out, from the least seed up, so a closure that adds no key
    expands them in the sorted order of the library's spans, and one that
    grows follows each new key at once, reaching long beads early.  Raises
    :class:`beadiag.jspaces.ClosureDiverged` when a new key has a bead
    (``beads_of(key)``) longer than ``MAX_CLOSURE_BEAD_LENGTH`` letters.
    """
    seen = set(seed_keys)
    frontier = sorted(seen, reverse=True)
    while frontier:
        rels, neighbours = expand(frontier.pop())
        relations.extend(rels)
        for nb in neighbours:
            if nb not in seen:
                if any(len(w) > MAX_CLOSURE_BEAD_LENGTH for w in beads_of(nb)):
                    raise ClosureDiverged(
                        "relation closure produced a bead longer than %d letters after"
                        " reaching %d keys, with %d still waiting to be expanded"
                        % (MAX_CLOSURE_BEAD_LENGTH, len(seen), len(frontier)), nb)
                seen.add(nb)
                frontier.append(nb)
    return tuple(sorted(seen))


def grown_closure(seed_keys, relations):
    """Smallest superset of the seeds closed under IHX neighbours; the
    members' IHX relations, with one shared ``done`` set, are appended to
    ``relations``."""
    done = set()

    def expand(key):
        rels = ihx_relations(key, done)
        return rels, (nb for rel in rels for nb in rel)

    return grow(seed_keys, relations, expand, dg.key_beads)


def vector_is_zero_in_full_space(vector) -> bool:
    """Whether a diagram vector vanishes in the untruncated AS/IHX quotient:
    its reduction modulo the IHX relations of the closure of its support."""
    rels = []
    grown_closure(vector.keys(), rels)
    return not echelonize(rels).reduce(vector)


def clear_dashed_memos():
    """Empty the process-wide memo of the arc layer's dashed-key work, so
    that what a test counts does not depend on which tests ran before it."""
    ar._swap_and_glue.cache_clear()


def unglue_leg(diagram, label):
    """The inverse of ``diagrams.glue_pair`` at one leg: the diagrams whose
    legs ``label`` and ``label + 1`` glue to this one.

    If the leg's edge ends at a trivalent vertex, that edge's bead is gauged
    to 1 there, and the vertex and the edge are removed; the vertex's other
    two strands become legs ``label`` and ``label + 1``, in both orders
    (legs above ``label`` move up by one).  The first order is the one
    ``glue_pair(., label, label + 1)`` maps back to this diagram.  A leg of
    a strut gives no diagram.
    """
    U = diagram.num_legs
    vert = diagram.vertex_of()
    h = diagram.legs[label - 1]
    eidx = next(i for i, (t, hd, _w) in enumerate(diagram.edges) if h in (t, hd))
    tail, head, w = diagram.edges[eidx]
    x = vert[tail] if head == h else vert[head]
    if x < U:
        return []
    if w:
        # head at x needs g = w^-1, tail at x needs g = w
        diagram = dg.regauge(diagram, {x: inv_letters(w) if vert[head] == x else w})
    hx = tail if vert[tail] == x else head
    triple = diagram.tri[x - U]
    pos = triple.index(hx)
    second, first = triple[(pos + 1) % 3], triple[(pos + 2) % 3]
    new_tri = diagram.tri[: x - U] + diagram.tri[x - U + 1 :]
    new_edges = diagram.edges[:eidx] + diagram.edges[eidx + 1 :]
    before, after = diagram.legs[: label - 1], diagram.legs[label:]
    return [dg.Diagram._trusted(before + pair + after, new_tri, new_edges)
            for pair in ((first, second), (second, first))]


def unglue_neighbours(key):
    """Keys of the T and U terms of STU instances whose S term is this key:
    each leg whose dashed edge ends at a trivalent vertex is unglued back
    onto its arc in both orders (:func:`unglue_leg`), one more leg there."""
    m, arc_beads, counts, dkey = key
    dashed = dg.rebuild(dkey)
    out = []
    for j, block in enumerate(ar._leg_blocks(counts)):
        counts_t = counts[:j] + (counts[j] + 1,) + counts[j + 1 :]
        for label in block:
            for dia in unglue_leg(dashed, label):
                k, _sign = dg.canonicalize(dia)
                if k is not dg.ZERO:
                    out.append((m, arc_beads, counts_t, k))
    return out


def arc_key_beads(key):
    """The dashed beads of an arc key, then its arc beads."""
    return dg.key_beads(key[3]) + list(key[1])


def grown_arc_closure(seed_keys, relations):
    """Smallest superset of the seeds closed under STU in both directions:
    the members' STU relations, and the keys that unglue them; the STU
    relations are appended to ``relations``."""

    def expand(key):
        rels = ar.stu_relations(key)
        neighbours = {k for rel in rels for k in rel}
        neighbours.update(unglue_neighbours(key))
        return rels, neighbours

    return grow(seed_keys, relations, expand, arc_key_beads)


def ihx_relations_arc(key):
    """IHX relations at internal dashed edges, arc structure unchanged."""
    m, arc_beads, counts, dkey = key
    return [{(m, arc_beads, counts, k): c for k, c in rel.items()}
            for rel in ihx_relations(dkey)]


def arc_closure_with_ihx(seed_keys, relations):
    """Close a key set under STU (both directions) and IHX neighbours,
    appending every STU and IHX relation of every member to ``relations``."""

    def expand(key):
        rels = ar.stu_relations(key) + ihx_relations_arc(key)
        neighbours = {k for rel in rels for k in rel}
        neighbours.update(unglue_neighbours(key))
        return rels, neighbours

    return grow(seed_keys, relations, expand, arc_key_beads)


def passi_sigma(m: int):
    """The involution matrix on the (m + m^2)-dimensional degree-two space:
    minus the identity on the m block, the place permutation on the m^2 block."""
    n = m + m * m
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(m):
        mat[i][i] = Fraction(-1)
    for i in range(m):
        for j in range(m):
            row = m + i * m + j
            col = m + j * m + i
            mat[row][col] = Fraction(1)
    return mat


def oracle_leg_placements(c, m):
    """Every fiber-ordered map {1..c} -> {1..m}, by images then fiber
    orders: per map, the tuple over targets of its ordered fiber.  There are
    m(m+1)...(m+c-1) of them."""
    if c == 0:
        yield tuple(() for _ in range(m))
        return
    if m == 0:
        return
    for images in itertools.product(range(m), repeat=c):
        fibers = [[i + 1 for i in range(c) if images[i] == j] for j in range(m)]
        for orders in itertools.product(
            *[itertools.permutations(f) for f in fibers]
        ):
            yield tuple(orders)


def catass_act(gen, pos, fibers):
    """Action of a Hopf generator on the fibers of a fiber-ordered map,
    mirroring the arc operations and their position ranges; returns
    [(coeff, fibers')]."""
    check_position(gen, pos, len(fibers))
    return _act_fibers(gen, pos, fibers)


def numbered_zero_test(zero_test, fails=()):
    """A zero test that numbers the distinct vectors it is asked about, up
    to sign, from 1 in the order first asked, and answers "nonzero" on
    every ask of a vector, or of its negative, whose number is in
    ``fails``; the others get ``zero_test``'s answer.  Returns the test and
    the list of numbered vectors, each as the set of its two signed item
    sets, so that neither the item order nor the sign a caller asks with
    matters."""
    numbers, asked = {}, []

    def test(vector, degree, alphabet):
        items = frozenset(vector.items())
        if items not in numbers:
            asked.append(frozenset((items, frozenset((k, -c) for k, c in items))))
            numbers.update(dict.fromkeys(asked[-1], len(asked)))
        if numbers[items] in fails:
            return False
        return zero_test(vector, degree, alphabet)

    return test, asked


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
        return canonical_vector((coeff, dg.glue_pair(dg.rebuild(kk), a, b)) for kk, coeff in v.items())

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
