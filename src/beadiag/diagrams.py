"""Open Jacobi diagrams with beaded oriented edges, and their canonical forms.

A diagram presentation has univalent legs labelled 1..m, trivalent vertices
given as cyclically ordered triples of half-edges, and edges given as
oriented pairs of half-edges carrying one bead (a reduced word; adjacent
beads merge and identity beads vanish, so one bead per edge is general).

Local-move equivalence is generated by:

* merging beads along an edge and dropping identity beads (absorbed into
  the single-bead representation),
* reversing an edge while inverting its bead,
* pushing a bead through a trivalent vertex: a bead w entering the vertex
  equals the bead w leaving on both other edges.

The push move acts as a gauge transformation: regauging by g at an inner
vertex v sends each edge bead w to gamma(tail)^-1 * w * gamma(head) with
gamma(v) = g and gamma = 1 elsewhere.  Univalent vertices admit no gauge.

``canonicalize`` quotients by these moves together with renumbering of the
trivalent vertices, and absorbs antisymmetry of the cyclic orders into a
global sign: the canonical key fixes a reference cyclic order at each
vertex, and a diagram whose minimal certificate is reachable with both
signs is zero (e.g. the beadless tadpole).

Canonical gauge: per component, a spanning tree of the skeleton (lowest
labelled leg plus all trivalent vertices) is gauge-fixed to carry bead 1;
edges to the remaining legs and the chords keep the residual holonomies.
"""

from __future__ import annotations

import functools
import itertools
import sys

from .words import (
    IDENTITY,
    Word,
    format_letters,
    inv_letters,
    mul_letters,
    parse_letters,
    reduce_letters,
)

ZERO = None  # canonicalize() returns (ZERO, 0) for diagrams equal to their negative


class DiagramError(ValueError):
    """Invalid diagram structure."""


class Diagram:
    """An open Jacobi diagram presentation (immutable).

    legs  -- tuple of half-edge ids; legs[i] belongs to the leg labelled i+1
    tri   -- tuple of half-edge triples, each in its cyclic order
    edges -- tuple of (tail_halfedge, head_halfedge, bead_letters)
    """

    __slots__ = ("legs", "tri", "edges", "_vert")

    def __init__(self, legs, tri, edges):
        legs = tuple(legs)
        tri = tuple(tuple(t) for t in tri)
        norm_edges = []
        for e in edges:
            tail, head = e[0], e[1]
            beads = e[2] if len(e) > 2 else ()
            # accepts a list of beads (Words or letter tuples) or one bare
            # letters tuple; both merge to the same reduced word
            merged = IDENTITY
            for b in beads:
                if isinstance(b, Word):
                    letters = b.letters
                elif len(b) == 2 and all(isinstance(x, int) for x in b):
                    letters = (tuple(b),)
                else:
                    letters = tuple(tuple(l) for l in b)
                merged = mul_letters(merged, reduce_letters(letters))
            norm_edges.append((tail, head, merged))
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "tri", tri)
        object.__setattr__(self, "edges", tuple(norm_edges))
        object.__setattr__(self, "_vert", None)
        self._validate()

    @classmethod
    def _trusted(cls, legs, tri, edges, vert=None):
        """A diagram from parts already in normal form, without bead merging
        or validation: ``legs`` and ``tri`` as tuples of half-edge ids and of
        triples, ``edges`` as a tuple of (tail, head, reduced letters), and
        optionally ``vertex_of``'s map.  Only for valid-to-valid rewrites."""
        dia = object.__new__(cls)
        object.__setattr__(dia, "legs", legs)
        object.__setattr__(dia, "tri", tri)
        object.__setattr__(dia, "edges", edges)
        object.__setattr__(dia, "_vert", vert)
        return dia

    def __setattr__(self, name, value):
        raise AttributeError("Diagram is immutable")

    def __reduce__(self):
        return (Diagram, (self.legs, self.tri, self.edges))

    @property
    def num_legs(self):
        return len(self.legs)

    @property
    def num_tri(self):
        return len(self.tri)

    def vertex_of(self):
        """Map half-edge -> vertex id (legs 0..U-1, trivalent U..U+T-1)."""
        if self._vert is None:
            vert = dict(zip(self.legs, range(len(self.legs))))
            for v, (a, b, c) in enumerate(self.tri, len(self.legs)):
                vert[a] = vert[b] = vert[c] = v
            object.__setattr__(self, "_vert", vert)
        return self._vert

    def _validate(self):
        halfedges = list(self.legs) + [h for t in self.tri for h in t]
        if len(set(halfedges)) != len(halfedges):
            raise DiagramError("half-edge ids must be distinct")
        for t in self.tri:
            if len(t) != 3:
                raise DiagramError("trivalent vertex needs exactly 3 half-edges")
        endpoints = [e[0] for e in self.edges] + [e[1] for e in self.edges]
        if sorted(endpoints) != sorted(halfedges):
            raise DiagramError("edges must pair up exactly the half-edges of the vertices")
        if (len(self.legs) + len(self.tri)) % 2:
            raise DiagramError("total vertex count must be even")
        # every connected component must contain a univalent vertex
        vert = self.vertex_of()
        pairs = [(vert[tail], vert[head]) for tail, head, _ in self.edges]
        for comp in _components(len(self.legs) + len(self.tri), pairs):
            if min(comp) >= len(self.legs):
                raise DiagramError("component without univalent vertex")


def regauge(diagram: Diagram, gauge) -> Diagram:
    """Regauge by ``gauge``, a map vertex -> reduced letters (1 where absent):
    each edge bead w becomes gauge(tail)^-1 * w * gauge(head).  Unchecked; at
    a leg this is a bead slid across an arc attachment point, not a move."""
    vert = diagram.vertex_of()
    new_edges = []
    for tail, head, w in diagram.edges:
        g = gauge.get(vert[tail])
        if g:
            w = mul_letters(inv_letters(g), w)
        g = gauge.get(vert[head])
        if g:
            w = mul_letters(w, g)
        new_edges.append((tail, head, w))
    return Diagram._trusted(diagram.legs, diagram.tri, tuple(new_edges), vert)


def gauge_at_vertex(diagram: Diagram, v: int, g) -> Diagram:
    """Regauge by g at trivalent vertex v (push-through-vertex moves)."""
    if v < diagram.num_legs or v >= diagram.num_legs + diagram.num_tri:
        raise DiagramError("gauge moves apply only at trivalent vertices")
    return regauge(diagram, {v: g.letters if isinstance(g, Word) else reduce_letters(tuple(g))})


def _components(num_vertices, edge_vertex_pairs):
    parent = list(range(num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edge_vertex_pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    comps = {}
    for v in range(num_vertices):
        comps.setdefault(find(v), set()).add(v)
    return list(comps.values())


def _colour_classes(diagram: Diagram, base=None):
    """Trivalent vertices grouped by an isomorphism-invariant colour.

    Colours use only structure and leg labels (never beads or orientations),
    so gauge moves and edge reversals preserve them.  A vertex starts with
    the sorted codes of its incidences: leg y -> y, loop -> U, trivalent
    neighbour -> U + 1.  While some class has two or more vertices, a round
    splits each such class by the sorted colours of their trivalent
    neighbours, the parts in that order, keeping an unsplit class as it is,
    until no class splits.  A colour is its class's position, so the
    classes come back in a deterministic order, in which canonical
    numbering assigns ids blockwise.

    A sorted tuple of codes is held as minus the sum of 4 ** (top - code),
    top the largest code: no code repeats four times, so this orders tuples
    of one length, as those of one class are, as the tuples.  ``base`` may
    give the edges' (tail vertex, head vertex, ...) tuples.
    """
    U, T = diagram.num_legs, diagram.num_tri
    if base is None:
        vert = diagram.vertex_of()
        base = [(vert[t], vert[h]) for t, h, _w in diagram.edges]
    code = [0] * (U + T)  # top U + 1
    neighbours = [[] for _ in range(U + T)]
    for e in base:
        a, b = e[0], e[1]
        if a == b:
            code[a] -= 8  # U twice
        elif a >= U and b >= U:
            code[a] -= 1
            code[b] -= 1
            neighbours[a].append(b)
            neighbours[b].append(a)
        elif a >= U:
            code[a] -= 4 ** (U + 1 - b)
        elif b >= U:
            code[b] -= 4 ** (U + 1 - a)
    parts = {}
    for v in range(U, U + T):
        parts.setdefault(code[v], []).append(v)
    classes = [parts[s] for s in sorted(parts)]
    while len(classes) < T:
        for c, cls in enumerate(classes):
            weight = -4 ** (T - 1 - c)  # colour c, top T - 1
            for v in cls:
                code[v] = weight
        split = []
        for cls in classes:
            parts = {}
            for v in cls if len(cls) > 1 else ():
                sig = 0
                for x in neighbours[v]:
                    sig += code[x]
                parts.setdefault(sig, []).append(v)
            split += [parts[s] for s in sorted(parts)] if len(parts) > 1 else [cls]
        if len(split) == len(classes):
            break
        classes = split
    return classes


def _tree_steps(U, cmap, adjacency):
    """The spanning trees of one numbering as steps (a, b, parallel edges).

    ``adjacency[v]`` lists the (neighbour, edge index) pairs of the non-loop
    edges at v.  Per component the tree grows Prim-style from its lowest
    leg, always towards the unvisited trivalent vertex b of least canonical
    id, from b's visited neighbour a of least canonical id; every edge
    joining a and b is a candidate tree edge.  A later leg of a grown
    component finds its trivalent neighbour visited and adds no step.
    """
    steps = []
    visited = set()
    for root in range(U):
        parent = {}  # unvisited trivalent vertex -> its best visited neighbour
        new = root
        while True:
            for nb, _ei in adjacency[new]:
                if nb >= U and nb not in visited:
                    a = parent.get(nb)
                    if a is None or cmap[new] < cmap[a]:
                        parent[nb] = new
            if not parent:
                break
            new = min(parent, key=cmap.__getitem__)
            a = parent.pop(new)
            visited.add(new)
            steps.append((a, new, [ei for nb, ei in adjacency[new] if nb == a]))
    return steps


def _gauges(steps, base):
    """The distinct canonical gauges gamma of one numbering.

    gamma(b) solves gamma(tail)^-1 w gamma(head) = 1 along the tree edge a-b.
    Parallel candidates branch; a branch whose gamma(b) was already tried at
    that step grows the same subtree, so it is tried once.
    """
    gammas = [{}]
    for a, b, parallel in steps:
        grown = []
        for gamma in gammas:
            ga = gamma.get(a, IDENTITY)
            tried = set()
            for ei in parallel:
                tv, _hv, _ei, _th, _hh, w = base[ei]
                gb = mul_letters(inv_letters(w), ga) if tv == a else mul_letters(w, ga)
                if gb not in tried:
                    tried.add(gb)
                    grown.append({**gamma, b: gb})
        gammas = grown
    return gammas


def _canonical_form(diagram: Diagram):
    """(key, sign, orders): the (key, sign) of :func:`canonicalize`, and
    the edge order of each candidate that reaches the key, the first found
    first (None for ZERO): ``order[i]`` is the index in ``diagram.edges``
    of the edge that becomes key entry i.  All such candidates have one
    sign, so any two of the orders differ by an automorphism.

    Candidates are numberings x canonical gauges; the least certificate is
    the key.  A numbering keeps the legs' ids and fills each block of
    :func:`_colour_classes` in every order.  Flipping a loop changes only
    that loop's entry, inverting its bead: a bead-free loop reaches every
    certificate with both signs, so the diagram is zero, and otherwise only
    the orientation with the smaller bead can be least.  The gauges depend
    on the numbering alone, and are all trivial when no edge carries a
    bead.  Entries sort as (u, v, bead length, bead, edge index), so ties
    keep edge order.  The sign is the product, over trivalent vertices, of
    the parity of the order in which the sorted entries meet the vertex's
    half-edges against its cyclic order.  A diagram of struts alone has one
    candidate, its struts oriented from the lower leg and sorted, with sign
    +1, so it skips the search.
    """
    U, T = diagram.num_legs, diagram.num_tri
    vert = diagram.vertex_of()
    if not T:
        struts = sorted((vert[t], vert[h], w, ei) if vert[t] < vert[h]
                        else (vert[h], vert[t], inv_letters(w), ei)
                        for ei, (t, h, w) in enumerate(diagram.edges))
        return ((U, 0, tuple([s[:3] for s in struts])), 1, (tuple([s[3] for s in struts]),))
    base = [(vert[t], vert[h], ei, t, h, w) for ei, (t, h, w) in enumerate(diagram.edges)]
    beaded = False
    for tv, hv, _ei, _th, _hh, w in base:
        if w:
            beaded = True
        elif tv == hv:
            return (ZERO, 0, None)
    if beaded:
        adjacency = [[] for _ in range(U + T)]
        for tv, hv, ei, _th, _hh, _w in base:
            if tv != hv:
                adjacency[tv].append((hv, ei))
                adjacency[hv].append((tv, ei))

    best, signs = None, set()
    cmap = list(range(U + T))
    classes = _colour_classes(diagram, base)
    numberings = ([[v for v, in classes]] if len(classes) == T  # all singletons: one numbering
                  else map(itertools.chain.from_iterable,
                           itertools.product(*map(itertools.permutations, classes))))
    for numbering in numberings:
        for new_id, v in enumerate(numbering, U):
            cmap[v] = new_id
        for gamma in _gauges(_tree_steps(U, cmap, adjacency), base) if beaded else ({},):
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
                    cu, cv, th, hh, w = cv, cu, hh, th, w and inv_letters(w)
                elif cu == cv:
                    wi = inv_letters(w)
                    if wi < w:
                        th, hh, w = hh, th, wi
                entries.append((cu, cv, len(w), w, ei, th, hh))
            entries.sort()
            cert = (U, T, tuple([(e[0], e[1], e[3]) for e in entries]))
            if best is not None and cert > best:
                continue
            rank = {}  # half-edge -> where the sorted entries meet it
            for i, e in enumerate(entries):
                rank[e[5]], rank[e[6]] = 2 * i, 2 * i + 1
            sign = 1
            for a, b, c in diagram.tri:
                # the triple meets its half-edges in cyclic order iff exactly
                # two of the three cyclic comparisons hold
                a, b, c = rank[a], rank[b], rank[c]
                if (a < b) + (b < c) + (c < a) != 2:
                    sign = -sign
            if cert != best:
                best, orders, signs = cert, [], set()
            orders.append(tuple([e[4] for e in entries]))
            signs.add(sign)
    if len(signs) == 2:
        return (ZERO, 0, None)
    return (best, signs.pop(), tuple(orders))


def canonicalize(diagram: Diagram):
    """Canonical form of a diagram: (key, sign), or (ZERO, 0) if it is zero.

    The key is (num_legs, num_tri, sorted edge entries) with entries
    (u, v, bead_letters) in canonical orientation; equivalent inputs yield
    identical keys, an antisymmetry swap flips the sign, and a diagram with
    a sign-reversing symmetry returns (ZERO, 0).  The first two fields of
    :func:`_canonical_form`, the one canonical-form routine.
    """
    return _canonical_form(diagram)[:2]


def rebuild(key) -> Diagram:
    """A concrete presentation of a canonical key; canonicalizes to (key, +1)."""
    U, T, entries = key
    legs = [None] * U
    triples = {U + j: [] for j in range(T)}
    edges = []
    vert = {}
    for i, (u, v, w) in enumerate(entries):
        edges.append((2 * i, 2 * i + 1, w))
        vert[2 * i], vert[2 * i + 1] = u, v
    for h, vertex in vert.items():
        if vertex < U:
            legs[vertex] = h
        else:
            triples[vertex].append(h)
    return Diagram._trusted(
        tuple(legs), tuple(tuple(triples[U + j]) for j in range(T)), tuple(edges), vert)


def relabel(dia: Diagram, order):
    """(key, sign) of a presentation whose leg ``order[i]`` becomes leg i + 1:
    the canonical form of the diagram with its legs renumbered.  Unchecked
    and unmemoised; :func:`relabel_key` checks and memoises it for keys."""
    legs = tuple(dia.legs[old - 1] for old in order)
    vert = {**dia.vertex_of(), **{h: i for i, h in enumerate(legs)}}
    return canonicalize(Diagram._trusted(legs, dia.tri, dia.edges, vert))


@functools.lru_cache(maxsize=1 << 16)
def relabel_key(key, order):
    """(key, sign) of a canonical key whose leg ``order[i]`` becomes leg i + 1,
    for a tuple ``order``: :func:`relabel` of ``rebuild(key)``.

    Pure, so memoised for the life of the process; the bound holds the
    46,959 distinct relabellings of ``verify_bridge(4, trivial, 1)``.
    """
    if sorted(order) != list(range(1, key_num_legs(key) + 1)):
        raise DiagramError("leg order must be a permutation of 1..%d" % key_num_legs(key))
    return relabel(rebuild(key), order)


@functools.lru_cache(maxsize=1 << 16)
def glue_key(key, a, b):
    """(key, sign) of a canonical key with legs a and b glued onto a tripod,
    or (ZERO, 0): the canonical form of ``glue_pair(rebuild(key), a, b)``.

    Memoised like :func:`relabel_key`: an STU S term at legs c, c + 1 and
    mu_c at arity c + 1 share an entry.  It looks up ``glue_pair`` when
    called, so a rebinding of that sees every miss.
    """
    return canonicalize(glue_pair(rebuild(key), a, b))


def key_num_legs(key):
    return key[0]


def key_beads(key):
    return [w for (_u, _v, w) in key[2]]


def glue_pair(diagram: Diagram, a: int, b: int) -> Diagram:
    """Glue legs a and b onto a new trivalent vertex with a fresh leg.

    The fresh leg is labelled min(a, b) and the other legs are relabelled
    order-preservingly.  The new vertex's cyclic order is (fresh leg edge,
    branch to b, branch to a); the fresh edge carries bead 1.
    """
    U = diagram.num_legs
    if not (1 <= a <= U and 1 <= b <= U and a != b):
        raise DiagramError("glue_pair needs two distinct leg labels")
    legs = list(diagram.legs)
    h_stub = max(max(legs), max(map(max, diagram.tri), default=-1)) + 1
    new_tri = diagram.tri + ((h_stub, legs[b - 1], legs[a - 1]),)
    new_edges = diagram.edges + ((h_stub, h_stub + 1, IDENTITY),)
    legs[min(a, b) - 1] = h_stub + 1
    del legs[max(a, b) - 1]
    return Diagram._trusted(tuple(legs), new_tri, new_edges)


def ihx_at_edge(diagram: Diagram, index: int):
    """The three IHX terms [(+1, I), (-1, H), (+1, X)] at an internal edge.

    The internal edge's bead is first gauged to 1.  With cyclic orders
    (e, a, b) and (e, c, d) at the two endpoints, the terms rewire the four
    outer half-edges as (a,b|c,d), (a,c|b,d), (b,c|a,d).
    """
    vert = diagram.vertex_of()
    tail, head, w = diagram.edges[index]
    u, v = vert[tail], vert[head]
    U = diagram.num_legs
    if u < U or v < U or u == v:
        raise DiagramError("IHX applies to internal edges joining two trivalent vertices")
    if w:
        diagram = regauge(diagram, {v: inv_letters(w)})
    triples = list(diagram.tri)
    tu = triples[u - U]
    tv = triples[v - U]
    p = tu.index(tail)
    a, b = tu[(p + 1) % 3], tu[(p + 2) % 3]
    q = tv.index(head)
    c, d = tv[(q + 1) % 3], tv[(q + 2) % 3]

    def rewired(u_pair, v_pair):
        t2 = list(triples)
        t2[u - U] = (tail, u_pair[0], u_pair[1])
        t2[v - U] = (head, v_pair[0], v_pair[1])
        moved = {u_pair[0]: u, u_pair[1]: u, v_pair[0]: v, v_pair[1]: v}
        return Diagram._trusted(diagram.legs, tuple(t2), diagram.edges, {**vert, **moved})

    return [
        (1, diagram),
        (-1, rewired((a, c), (b, d))),
        (1, rewired((b, c), (a, d))),
    ]


def internal_edges(diagram: Diagram):
    """Indices of edges joining two distinct trivalent vertices."""
    vert = diagram.vertex_of()
    U = diagram.num_legs
    out = []
    for i, (tail, head, _w) in enumerate(diagram.edges):
        u, v = vert[tail], vert[head]
        if u >= U and v >= U and u != v:
            out.append(i)
    return out


def _structures(num_legs: int, num_tri: int, loops: bool = True):
    """Half-edge pairings of U legs and T trivalent vertices, pruned by symmetry.

    Slots of a trivalent vertex are used in order and vertices are activated
    in order, so each isomorphism class appears at least once and without the
    (3!)^T T! relabelling blow-up.  Half-edges are matched lowest first, so
    a vertex's matched slots are a prefix, and each order check reads one
    flag.  The slots of one vertex differ only by the sign of its cyclic
    order, so the vertices their partners sit on (legs counting as vertices
    0..U-1) never fall from one slot to the next: each vertex-level shape,
    the sorted multiset of (vertex, vertex) edges, comes exactly once.  A
    partial pairing is dropped as soon as it closes a legless component,
    which no completion can reopen.  With ``loops`` false no pair joins two
    slots of one vertex, and the subtree below such a pair is never
    searched: for a caller with no bead to put on a loop, since a bead-free
    loop is zero.  Yields Diagram presentations as they are found, with
    bead-free edges and the slot order as cyclic order; without loops, the
    others in the same order.
    """
    U, T = num_legs, num_tri
    if U == 0 < T:
        return  # with no legs every component is legless
    H = U + 3 * T
    matched = [False] * H
    partner = [-1] * H
    pairs = []

    def closes_legless(v):
        # the component of trivalent vertex v: every slot paired, no leg reached
        seen, todo = {v}, [v]
        while todo:
            base = U + 3 * (todo.pop() - U)
            for h in range(base, base + 3):
                if partner[h] < U:  # unpaired (-1) or a leg
                    return False
                w = U + (partner[h] - U) // 3
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return True

    def rec(h):  # every half-edge before h is matched
        while h < H and matched[h]:
            h += 1
        if h == H:
            yield list(pairs)
            return
        matched[h] = True
        # the slots after h on h's own vertex would pair it into a loop
        start = U + 3 * ((h - U) // 3 + 1) if h >= U and not loops else h + 1
        if h >= U and (h - U) % 3:
            # slots of one vertex differ only by sign, so the partner's vertex
            # is no lower than that of the slot before: one pairing per shape
            p = partner[h - 1]
            start = max(start, p if p < U else p - (p - U) % 3)
        for h2 in range(start, H):
            if matched[h2]:
                continue
            if h2 >= U:
                s = (h2 - U) % 3  # the slot before is used; the vertex before is active
                if (not matched[h2 - 1]) if s else (h2 >= U + 3 and not matched[h2 - 3]):
                    continue
            matched[h2] = True
            partner[h], partner[h2] = h2, h
            pairs.append((h, h2))
            # only the new edge's component can close, once both its end vertices are full
            if (h < U or not matched[h + 2 - (h - U) % 3] or not matched[h2 + 2 - (h2 - U) % 3]
                    or not closes_legless(U + (h - U) // 3)):
                yield from rec(h + 1)
            pairs.pop()
            partner[h] = partner[h2] = -1
            matched[h2] = False
        matched[h] = False

    legs = tuple(range(U))
    tri = tuple((U + 3 * t, U + 3 * t + 1, U + 3 * t + 2) for t in range(T))
    vert = {h: h if h < U else U + (h - U) // 3 for h in range(H)}  # shared, read-only
    for pairing in rec(0):
        yield Diagram._trusted(legs, tri, tuple((a, b, IDENTITY) for a, b in pairing), vert)


def enumerate_diagrams(d: int, m: int, alphabet):
    """All canonical keys of degree d with m legs and canonical beads in the
    alphabet; zero diagrams excluded; deterministic order.

    Every skeleton of :func:`_structures`, each vertex-level shape exactly
    once, gets every bead on every edge, except that a loop gets only the
    beads other than 1: a bead-free loop is zero.  The other pairings of a
    shape differ only in sign and in reversed loops, whose bead choices are
    closed under inversion.  Over the trivial alphabet no skeleton with a
    loop is made.
    """
    if d < 0 or m < 0:
        raise ValueError("d and m must be >= 0")
    T = 2 * d - m
    if T < 0:
        return []
    if d == 0:
        return [(0, 0, ())] if m == 0 else []
    # with legs, _structures nests a generator per pair, 3d - m of them, and
    # calls at most 4 frames below the deepest; refuse what the stack cannot hold
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    if m and depth + 3 * d - m + 4 > sys.getrecursionlimit():
        raise ValueError("degree %d with %d legs is too large: the pairing search nests "
                         "%d deep, too close to the recursion limit %d"
                         % (d, m, 3 * d - m, sys.getrecursionlimit()))
    letters = alphabet.letter_elements()
    loop_letters = tuple(w for w in letters if w)
    found = set()
    for skeleton in _structures(m, T, loops=bool(loop_letters)):
        vert = skeleton.vertex_of()
        choices = [loop_letters if vert[t] == vert[h] else letters
                   for t, h, _ in skeleton.edges]
        for beads in itertools.product(*choices):
            dia = Diagram._trusted(skeleton.legs, skeleton.tri, tuple(
                (t, h, w) for (t, h, _), w in zip(skeleton.edges, beads)), vert)
            key, _sign = canonicalize(dia)
            if key is ZERO:
                continue
            if all(w in alphabet._members for w in key_beads(key)):
                found.add(key)
    return sorted(found)


# ---------------------------------------------------------------------------
# JSON diagram schema


def diagram_to_json(diagram: Diagram) -> dict:
    vertices = []
    for i, h in enumerate(diagram.legs):
        vertices.append({"id": i, "kind": "uni", "label": i + 1, "halfedge": h})
    for j, t in enumerate(diagram.tri):
        vertices.append({"id": diagram.num_legs + j, "kind": "tri", "cyclic": list(t)})
    edges = []
    for i, (tail, head, w) in enumerate(diagram.edges):
        beads = [] if not w else [format_letters(w)]
        edges.append({"id": i, "from": tail, "to": head, "beads": beads})
    return {"vertices": vertices, "edges": edges}


def _halfedge_id(value):
    if not isinstance(value, int) or isinstance(value, bool):
        raise DiagramError("half-edge ids must be integers, got %r" % (value,))
    return value


def diagram_from_json(obj) -> Diagram:
    """Parse the JSON diagram schema, rejecting invariant violations."""
    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise DiagramError("diagram JSON needs 'vertices' and 'edges'")
    if not all(
        isinstance(obj[part], list) and all(isinstance(x, dict) for x in obj[part])
        for part in ("vertices", "edges")
    ):
        raise DiagramError("'vertices' and 'edges' must be lists of objects")
    legs = {}
    tri = []
    for v in obj["vertices"]:
        kind = v.get("kind")
        if kind == "uni":
            if "label" not in v or "halfedge" not in v:
                raise DiagramError("uni vertex needs 'label' and 'halfedge'")
            label = v["label"]
            if not isinstance(label, int) or isinstance(label, bool) or label < 1:
                raise DiagramError("leg label must be a positive integer, got %r" % (label,))
            if label in legs:
                raise DiagramError("duplicate leg label %d" % label)
            legs[label] = _halfedge_id(v["halfedge"])
        elif kind == "tri":
            cyc = v.get("cyclic")
            if not isinstance(cyc, list) or len(cyc) != 3:
                raise DiagramError("tri vertex needs 'cyclic' with 3 half-edges")
            tri.append(tuple(_halfedge_id(h) for h in cyc))
        else:
            raise DiagramError("vertex kind must be 'uni' or 'tri', got %r" % (kind,))
    if legs and sorted(legs) != list(range(1, len(legs) + 1)):
        raise DiagramError("leg labels must be a bijection onto 1..m, got %s" % sorted(legs))
    edges = []
    for e in obj["edges"]:
        if "from" not in e or "to" not in e:
            raise DiagramError("edge needs 'from' and 'to' half-edges")
        beads = e.get("beads", [])
        if not isinstance(beads, list) or not all(isinstance(b, str) for b in beads):
            raise DiagramError("edge 'beads' must be a list of words")
        beads = [parse_letters(b) for b in beads]
        edges.append((_halfedge_id(e["from"]), _halfedge_id(e["to"]), tuple(beads)))
    ordered_legs = [legs[i] for i in range(1, len(legs) + 1)]
    return Diagram(ordered_legs, tri, edges)
