"""The half-edge pairings that ``diagrams._structures`` yielded before it
gave one pairing per vertex-level shape, kept verbatim as the test oracles'
skeleton source.

This enumerator yields every slot pairing, so one shape comes once per way
of spreading its edges over the slots of each vertex.  The oracles build
their corpora from it, so their pinned sizes do not move with the library,
and a library enumerator checked against them is not checked against
itself.

``shape_structures`` is ``diagrams._structures`` as it was when it first
yielded one pairing per shape, with range scans for the slot-order and
vertex-activation checks, kept verbatim: the library's pairings must equal
its output, in order.
"""

from beadiag import diagrams as dg


def structures(num_legs: int, num_tri: int, loops: bool = True):
    """Half-edge pairings of U legs and T trivalent vertices, pruned by symmetry.

    Slots of a trivalent vertex are used in order and vertices are activated
    in order, so each isomorphism class appears at least once and without the
    (3!)^T T! relabelling blow-up.  A partial pairing is dropped as soon as
    it closes a legless component, which no completion can reopen.  With
    ``loops`` false no pair joins two slots of one vertex, and the subtree
    below such a pair is never searched: for a caller with no bead to put
    on a loop, since a bead-free loop is zero.  Yields Diagram presentations
    with bead-free edges and the slot order as cyclic order; without loops,
    the others in the same order.
    """
    U, T = num_legs, num_tri
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

    def rec():
        h = -1
        for i in range(H):
            if not matched[i]:
                h = i
                break
        if h < 0:
            yield list(pairs)
            return
        matched[h] = True
        # the slots after h on h's own vertex would pair it into a loop
        start = U + 3 * ((h - U) // 3 + 1) if h >= U and not loops else h + 1
        for h2 in range(start, H):
            if matched[h2]:
                continue
            if h2 >= U:
                t = (h2 - U) // 3
                s = (h2 - U) % 3
                base = U + 3 * t
                if any(not matched[base + s2] for s2 in range(s)):
                    continue  # use slots of a vertex in order
                if s == 0 and t > 0:
                    prev = U + 3 * (t - 1)
                    if not any(matched[prev + s2] for s2 in range(3)):
                        continue  # activate vertices in order
            matched[h2] = True
            partner[h], partner[h2] = h2, h
            pairs.append((h, h2))
            # the new edge's component is the only one this pair can close
            if h < U or not closes_legless(U + (h - U) // 3):
                yield from rec()
            pairs.pop()
            partner[h] = partner[h2] = -1
            matched[h2] = False
        matched[h] = False

    legs = tuple(range(U))
    tri = tuple((U + 3 * t, U + 3 * t + 1, U + 3 * t + 2) for t in range(T))
    for pairing in rec():
        yield dg.Diagram._trusted(legs, tri, tuple((a, b, dg.IDENTITY) for a, b in pairing))


def shape_structures(num_legs: int, num_tri: int, loops: bool = True):
    """Half-edge pairings of U legs and T trivalent vertices, pruned by symmetry.

    Slots of a trivalent vertex are used in order and vertices are activated
    in order, so each isomorphism class appears at least once and without the
    (3!)^T T! relabelling blow-up.  The slots of one vertex differ only by
    the sign of its cyclic order, so the vertices their partners sit on
    (legs counting as vertices 0..U-1) never fall from one slot to the next:
    each vertex-level shape, the sorted multiset of (vertex, vertex) edges,
    comes exactly once.  A partial pairing is dropped as soon as it closes a
    legless component, which no completion can reopen.  With ``loops`` false
    no pair joins two slots of one vertex, and the subtree below such a pair
    is never searched: for a caller with no bead to put on a loop, since a
    bead-free loop is zero.  Yields Diagram presentations with bead-free
    edges and the slot order as cyclic order; without loops, the others in
    the same order.
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

    def rec():
        h = -1
        for i in range(H):
            if not matched[i]:
                h = i
                break
        if h < 0:
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
                t = (h2 - U) // 3
                s = (h2 - U) % 3
                base = U + 3 * t
                if any(not matched[base + s2] for s2 in range(s)):
                    continue  # use slots of a vertex in order
                if s == 0 and t > 0:
                    prev = U + 3 * (t - 1)
                    if not any(matched[prev + s2] for s2 in range(3)):
                        continue  # activate vertices in order
            matched[h2] = True
            partner[h], partner[h2] = h2, h
            pairs.append((h, h2))
            # the new edge's component is the only one this pair can close
            if h < U or not closes_legless(U + (h - U) // 3):
                yield from rec()
            pairs.pop()
            partner[h] = partner[h2] = -1
            matched[h2] = False
        matched[h] = False

    legs = tuple(range(U))
    tri = tuple((U + 3 * t, U + 3 * t + 1, U + 3 * t + 2) for t in range(T))
    for pairing in rec():
        yield dg.Diagram._trusted(legs, tri, tuple((a, b, dg.IDENTITY) for a, b in pairing))
