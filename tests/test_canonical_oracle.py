"""canonicalize against the exhaustive search it replaced.

The functions from ``_cyclic_parity`` to ``canonicalize`` below are the
earlier canonical form, kept verbatim as a brute-force oracle: it tries
every numbering x every loop-flip mask x every spanning-tree gauge branch,
recomputes the gauges for each mask and rescans every edge at each Prim
step.  Canonical keys name cache entries and golden reports, so the
library's ``canonicalize`` must return the identical (key, sign) on every
input, ZERO verdicts included.
"""

import itertools
import random

import pytest

from beadiag import diagrams as dg
from beadiag.diagrams import ZERO, Diagram
from beadiag.words import (
    IDENTITY,
    Word,
    alphabet_from_spec,
    inv_letters,
    mul_letters,
    word_key,
)

from frozen_structures import structures
from move_fuzzer import random_move_sequence, seed_diagrams

GEN11 = alphabet_from_spec("gen:1:1")
GEN22 = alphabet_from_spec("gen:2:2")


def _cyclic_parity(intrinsic, reference):
    """+1 if the reference triple lies in the cyclic class of the intrinsic one."""
    p = intrinsic.index(reference[0])
    rotated = (intrinsic[p], intrinsic[(p + 1) % 3], intrinsic[(p + 2) % 3])
    if rotated == tuple(reference):
        return 1
    return -1


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


def _colour_classes(diagram: Diagram):
    """Trivalent vertices grouped by an isomorphism-invariant colour.

    Colours use only structure and leg labels (never beads or orientations),
    so gauge moves and edge reversals preserve them.  Classes come back in a
    deterministic order; canonical numbering assigns ids blockwise.
    """
    U, T = diagram.num_legs, diagram.num_tri
    if T == 0:
        return []
    vert = diagram.vertex_of()
    incident = {U + j: [] for j in range(T)}
    neighbours = {U + j: [] for j in range(T)}
    for tail, head, _ in diagram.edges:
        a, b = vert[tail], vert[head]
        for x, y in ((a, b), (b, a)):
            if x >= U:
                if y == x:
                    incident[x].append(("loop",))
                elif y < U:
                    incident[x].append(("leg", y))
                else:
                    incident[x].append(("tri", 0))
                    neighbours[x].append(y)
    colour = {v: tuple(sorted(incident[v])) for v in incident}
    while True:
        refined = {
            v: (colour[v], tuple(sorted(colour[x] for x in neighbours[v])))
            for v in colour
        }
        if len(set(refined.values())) == len(set(colour.values())):
            break
        colour = refined
    # colours are nested tuples of one depth, so they hash and compare
    classes = {}
    for v, c in colour.items():
        classes.setdefault(c, []).append(v)
    return [sorted(classes[c]) for c in sorted(classes)]


def _numberings(diagram: Diagram):
    """Candidate maps presentation trivalent id -> canonical id."""
    U = diagram.num_legs
    classes = _colour_classes(diagram)
    sizes = [len(c) for c in classes]
    offsets = []
    acc = U
    for s in sizes:
        offsets.append(acc)
        acc += s
    for perms in itertools.product(*[itertools.permutations(c) for c in classes]):
        cmap = {i: i for i in range(U)}
        for cls_idx, perm in enumerate(perms):
            for k, v in enumerate(perm):
                cmap[v] = offsets[cls_idx] + k
        yield cmap


def _gauge_branches(U, cmap, working, components):
    """All canonical-gauge assignments gamma (one per spanning-tree branch).

    ``working`` is a list of (tail_v, head_v, tail_h, head_h, bead).  Per
    component the tree grows Prim-style from the lowest leg, always towards
    the unvisited trivalent vertex of least canonical id; parallel edges to
    that vertex branch.  gamma(child) solves gamma(tail)^-1 w gamma(head)=1
    along each tree edge.
    """

    def grow(comp_idx, gamma):
        if comp_idx == len(components):
            yield gamma
            return
        comp = components[comp_idx]
        tri_left = {v for v in comp if v >= U}
        if not tri_left:
            yield from grow(comp_idx + 1, gamma)
            return
        root = min(v for v in comp if v < U)

        def step(visited, remaining, gamma):
            if not remaining:
                yield from grow(comp_idx + 1, gamma)
                return
            cands = []
            for ei, (tv, hv, _th, _hh, w) in enumerate(working):
                for a, b in ((tv, hv), (hv, tv)):
                    if a in visited and b in remaining:
                        cands.append((cmap[b], cmap[a], ei, a, b))
            best = min(cands)[:2]
            for cb, ca, ei, a, b in cands:
                if (cb, ca) != best:
                    continue
                tv, hv, _th, _hh, w = working[ei]
                if tv == a:
                    gb = mul_letters(inv_letters(w), gamma.get(a, IDENTITY))
                else:
                    gb = mul_letters(w, gamma.get(a, IDENTITY))
                gamma2 = dict(gamma)
                gamma2[b] = gb
                yield from step(visited | {b}, remaining - {b}, gamma2)

        yield from step({root}, tri_left, gamma)

    yield from grow(0, {})


def canonicalize(diagram: Diagram):
    """Canonical form of a diagram: (key, sign), or (ZERO, 0) if it is zero.

    The key is (num_legs, num_tri, sorted edge entries) with entries
    (u, v, bead_letters) in canonical orientation; equivalent inputs yield
    identical keys, an antisymmetry swap flips the sign, and a diagram with
    a sign-reversing symmetry returns (ZERO, 0).
    """
    U, T = diagram.num_legs, diagram.num_tri
    if not diagram.edges:
        return ((U, T, ()), 1)
    vert = diagram.vertex_of()
    base = [(vert[t], vert[h], t, h, w) for (t, h, w) in diagram.edges]
    loops = [i for i, e in enumerate(base) if e[0] == e[1]]
    comps = _components(U + T, [(e[0], e[1]) for e in base])
    comps.sort(key=lambda c: min(c))

    best_cert = None
    best_signs = set()
    for cmap in _numberings(diagram):
        for flip_mask in itertools.product((False, True), repeat=len(loops)):
            working = list(base)
            for li, flip in zip(loops, flip_mask):
                if flip:
                    tv, hv, th, hh, w = working[li]
                    working[li] = (tv, hv, hh, th, inv_letters(w))
            for gamma in _gauge_branches(U, cmap, working, comps):
                entries = []
                for tv, hv, th, hh, w in working:
                    w2 = mul_letters(
                        inv_letters(gamma.get(tv, IDENTITY)),
                        mul_letters(w, gamma.get(hv, IDENTITY)),
                    )
                    cu, cv = cmap[tv], cmap[hv]
                    if cu > cv:
                        cu, cv, th, hh, w2 = cv, cu, hh, th, inv_letters(w2)
                    entries.append((cu, cv, w2, th, hh))
                entries.sort(key=lambda e: (e[0], e[1], word_key(e[2])))
                cert = (U, T, tuple(e[:3] for e in entries))
                if best_cert is not None and cert > best_cert:
                    continue
                ref = {}
                for cu, cv, _w2, th, hh in entries:
                    if cu >= U:
                        ref.setdefault(cu, []).append(th)
                    if cv >= U:
                        ref.setdefault(cv, []).append(hh)
                sign = 1
                for j, triple in enumerate(diagram.tri):
                    sign *= _cyclic_parity(triple, ref[cmap[U + j]])
                if cert == best_cert:
                    best_signs.add(sign)
                else:
                    best_cert = cert
                    best_signs = {sign}
    if len(best_signs) == 2:
        return (ZERO, 0)
    return (best_cert, best_signs.pop())



# ---------------------------------------------------------------------------


def assert_same_as_oracle(diagrams):
    count = 0
    for dia in diagrams:
        assert dg.canonicalize(dia) == canonicalize(dia), (dia.legs, dia.tri, dia.edges)
        count += 1
    return count


def with_beads(skeleton, beads):
    return Diagram(
        skeleton.legs,
        skeleton.tri,
        [(t, h, (w,)) for (t, h, _), w in zip(skeleton.edges, beads)],
    )


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_every_skeleton(d):
    skeletons = (
        sk for m in range(1, 2 * d + 1) for sk in structures(m, 2 * d - m)
    )
    assert assert_same_as_oracle(skeletons) == {1: 2, 2: 13, 3: 134, 4: 1861}[d]


def test_every_bead_assignment_up_to_degree_two():
    letters = GEN11.letter_elements()
    diagrams = (
        with_beads(sk, beads)
        for d in (1, 2)
        for m in range(1, 2 * d + 1)
        for sk in structures(m, 2 * d - m)
        for beads in itertools.product(letters, repeat=len(sk.edges))
    )
    assert assert_same_as_oracle(diagrams) == 1119


@pytest.mark.parametrize("alphabet, cells", [
    (GEN11, ((1, 1), (1, 2), (2, 2), (2, 3))),
    (GEN22, ((1, 1), (1, 2), (2, 4))),
])
def test_move_fuzzer_presentations(alphabet, cells):
    rng = random.Random(11)
    seeds = seed_diagrams(alphabet, cells=cells)
    moved = (random_move_sequence(rng, rng.choice(seeds), alphabet, moves=8)[0]
             for _ in range(1000))
    assert assert_same_as_oracle(moved) == 1000


def tadpole(stem="1", loop="1"):
    return Diagram([0], [(1, 2, 3)], [(0, 1, (Word.parse(stem),)), (2, 3, (Word.parse(loop),))])


def digon(first, second):
    """Legs 1, 2 on two trivalent vertices joined by two parallel edges."""
    return Diagram(
        [0, 1],
        [(2, 3, 4), (5, 6, 7)],
        [(0, 2, ()), (1, 5, ()), (3, 6, (Word.parse(first),)), (4, 7, (Word.parse(second),))],
    )


@pytest.mark.parametrize("dia, zero", [
    # loop flips: a bead-free loop makes the diagram zero, a beaded one not
    (tadpole(), True),
    (tadpole(stem="x1"), True),
    (tadpole(loop="x1"), False),
    (tadpole(loop="x1^-1"), False),
    (tadpole(stem="x2", loop="x1*x2"), False),
    # parallel tree edges: equal beads give one gauge, different beads two
    (digon("1", "1"), False),
    (digon("x1", "x1"), False),
    (digon("x1", "x2"), False),
    (digon("x1", "x1^-1"), False),
    (digon("1", "x1"), False),
    # several components, with and without trivalent vertices
    (Diagram([0, 1, 2, 3, 4], [(5, 6, 7)],
             [(0, 1, (Word.parse("x1"),)), (2, 5, ()), (3, 6, (Word.parse("x2"),)),
              (4, 7, ())]), False),
    (Diagram([0, 1, 2, 3], [(4, 5, 6), (7, 8, 9)],
             [(0, 4, (Word.parse("x1"),)), (5, 6, (Word.parse("x2"),)), (1, 2, ()),
              (3, 7, (Word.parse("x2^-1"),)), (8, 9, (Word.parse("x1"),))]), False),
])
def test_hand_made_shortcuts(dia, zero):
    assert_same_as_oracle([dia])
    assert (dg.canonicalize(dia)[0] is ZERO) == zero


def test_colour_classes_at_degree_five():
    # refinement past the first round first changes keys at degree 5, so
    # compare the classes on every skeleton of J_5(2) instead of running the
    # slow oracle on them
    count = 0
    for sk in structures(2, 8):
        assert dg._colour_classes(sk) == _colour_classes(sk), sk.edges
        count += 1
    assert count == 3629
