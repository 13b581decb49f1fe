"""Random local-move fuzzing helpers shared by diagram tests and acceptance."""

import random

from beadiag import diagrams as dg
from beadiag.words import Word, inv_letters, mul_letters


def reverse_edge(diagram, index):
    """Reverse the orientation of one edge, inverting its bead."""
    edges = list(diagram.edges)
    tail, head, w = edges[index]
    edges[index] = (head, tail, inv_letters(w))
    return dg.Diagram._trusted(diagram.legs, diagram.tri, tuple(edges))


def shuffle_presentation(rng, dia):
    """Re-present the same diagram: relabel half-edges, permute the vertex and
    edge lists, rotate cyclic orders.  Equivalence class and sign unchanged."""
    halfedges = list(dia.legs) + [h for t in dia.tri for h in t]
    new_ids = list(range(0, 3 * len(halfedges), 3))
    rng.shuffle(new_ids)
    remap = dict(zip(halfedges, new_ids))
    legs = [remap[h] for h in dia.legs]
    tri = []
    for t in dia.tri:
        r = rng.randrange(3)
        tri.append(tuple(remap[t[(r + i) % 3]] for i in range(3)))
    rng.shuffle(tri)
    edges = [(remap[t], remap[h], (w,)) for (t, h, w) in dia.edges]
    rng.shuffle(edges)
    return dg.Diagram(legs, tri, edges)


def swap_cyclic(rng, dia):
    """Swap two entries of one cyclic order; the diagram's sign flips."""
    if not dia.tri:
        return dia, 1
    j = rng.randrange(len(dia.tri))
    t = list(dia.tri[j])
    a, b = rng.sample(range(3), 2)
    t[a], t[b] = t[b], t[a]
    tri = list(dia.tri)
    tri[j] = tuple(t)
    return dg.Diagram(dia.legs, tri, dia.edges), -1


def random_move_sequence(rng, dia, alphabet, moves=6):
    """Apply a random sequence of equivalence moves; returns (dia, sign)."""
    sign = 1
    words = list(alphabet.letter_elements())
    for _ in range(moves):
        kind = rng.choice(("gauge", "reverse", "shuffle", "swap", "split"))
        if kind == "gauge" and dia.num_tri:
            v = dia.num_legs + rng.randrange(dia.num_tri)
            g = Word(rng.choice(words)) * Word(rng.choice(words))
            dia = dg.gauge_at_vertex(dia, v, g)
        elif kind == "reverse" and dia.edges:
            dia = reverse_edge(dia, rng.randrange(len(dia.edges)))
        elif kind == "shuffle":
            dia = shuffle_presentation(rng, dia)
        elif kind == "swap":
            dia, s = swap_cyclic(rng, dia)
            sign *= s
        elif kind == "split" and dia.edges:
            # replace a bead w by the pair (w*u, u^-1): merging restores it
            i = rng.randrange(len(dia.edges))
            t, h, w = dia.edges[i]
            u = Word(rng.choice(words))
            edges = list(dia.edges)
            edges[i] = (t, h, (Word(w) * u, u.inverse()))
            dia = dg.Diagram(dia.legs, dia.tri, edges)
    return dia, sign


def seed_diagrams(alphabet, cells=((1, 1), (1, 2), (2, 2), (2, 3), (2, 4), (3, 3))):
    """Nonzero canonical diagrams over the alphabet for fuzzing."""
    out = []
    for d, m in cells:
        for key in dg.enumerate_diagrams(d, m, alphabet):
            out.append(dg.rebuild(key))
    return out


# ---------------------------------------------------------------------------
# raw arc-diagram moves


def _leg_edge_index(dashed, label):
    h = dashed.legs[label - 1]
    for i, (t, hd, _w) in enumerate(dashed.edges):
        if h in (t, hd):
            return i, t == h
    raise AssertionError


def _deposit_on_leg(dashed, label, letters):
    """Left-multiply the leg's bead by ``letters`` reading away from the arc."""
    idx, tail_at_leg = _leg_edge_index(dashed, label)
    edges = list(dashed.edges)
    t, h, w = edges[idx]
    if tail_at_leg:
        edges[idx] = (t, h, (mul_letters(letters, w),))
    else:
        edges[idx] = (t, h, (mul_letters(w, inv_letters(letters)),))
    return dg.Diagram(dashed.legs, dashed.tri, edges)


def random_arc_moves(rng, arcs, dashed, alphabet, moves=8):
    """Random arc-level and dashed-level equivalence moves; returns
    (arcs, dashed, sign)."""
    arcs = [list(items) for items in arcs]
    sign = 1
    words = list(alphabet.letter_elements())
    for _ in range(moves):
        kind = rng.choice(
            ("slide_fwd", "slide_back", "insert_one", "split", "dash_gauge",
             "dash_reverse", "dash_swap", "dash_shuffle")
        )
        if kind in ("slide_fwd", "slide_back"):
            j = rng.randrange(len(arcs))
            items = arcs[j]
            if kind == "slide_fwd":
                spots = [
                    i
                    for i in range(len(items) - 1)
                    if items[i][0] == "bead" and items[i + 1][0] == "leg"
                ]
                if not spots:
                    continue
                i = rng.choice(spots)
                w = items[i][1]
                label = items[i + 1][1]
                dashed = _deposit_on_leg(dashed, label, w)
                items[i], items[i + 1] = items[i + 1], items[i]
            else:
                spots = [
                    i
                    for i in range(len(items) - 1)
                    if items[i][0] == "leg" and items[i + 1][0] == "bead"
                ]
                if not spots:
                    continue
                i = rng.choice(spots)
                w = items[i + 1][1]
                label = items[i][1]
                dashed = _deposit_on_leg(dashed, label, inv_letters(w))
                items[i], items[i + 1] = items[i + 1], items[i]
        elif kind == "insert_one":
            j = rng.randrange(len(arcs))
            arcs[j].insert(rng.randint(0, len(arcs[j])), ("bead", ()))
        elif kind == "split":
            j = rng.randrange(len(arcs))
            spots = [i for i, (k, _) in enumerate(arcs[j]) if k == "bead"]
            if not spots:
                continue
            i = rng.choice(spots)
            w = arcs[j][i][1]
            u = rng.choice(words)
            arcs[j][i] = ("bead", mul_letters(w, u))
            arcs[j].insert(i + 1, ("bead", inv_letters(u)))
        elif kind == "dash_gauge" and dashed.num_tri:
            v = dashed.num_legs + rng.randrange(dashed.num_tri)
            dashed = dg.gauge_at_vertex(dashed, v, Word(rng.choice(words)))
        elif kind == "dash_reverse" and dashed.edges:
            dashed = reverse_edge(dashed, rng.randrange(len(dashed.edges)))
        elif kind == "dash_swap":
            dashed, s = swap_cyclic(rng, dashed)
            sign *= s
        elif kind == "dash_shuffle":
            # keep leg labels fixed: shuffle tri order, edges, rotations only
            tri = list(dashed.tri)
            rng.shuffle(tri)
            tri = [tuple(t[(r := rng.randrange(3)) :] + t[:r]) for t in tri]
            edges = list(dashed.edges)
            rng.shuffle(edges)
            dashed = dg.Diagram(dashed.legs, tri, edges)
    return arcs, dashed, sign
