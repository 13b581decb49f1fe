"""Jacobi diagrams on ordered oriented arcs, modulo STU, IHX and bead moves.

An arc diagram is a dashed open Jacobi part (module ``diagrams``) whose legs
attach at totally ordered points of m oriented arcs; arcs may carry beads.
Sliding an arc bead across an attachment point deposits the bead on the
dashed leg, so the canonical form holds one bead at the start of each arc
(the arc's holonomy) and none elsewhere; class-0 diagrams have none at all.

Canonical keys are ``(m, arc_beads, per_arc_leg_counts, dashed_key)`` where
the dashed part's legs are relabelled 1..U in (arc, position) order.  Every
operation below acts on the arc data and the labelled key; raw presentations
(item lists per arc) are only the input of ``arc_canonicalize``.

The one-sided functor structure over free groups acts through the five
Hopf generators: eta inserts a bare arc, eps deletes an arc (zero if legs
remain on it), mu concatenates adjacent arcs, the antipode reverses an arc
(legs reversed, bead inverted, sign (-1)^#legs), and delta doubles an arc
summing over all leg shuffles.  STU reads: (legs p then q adjacent on an
arc) minus (q then p) equals the diagram with p, q glued onto a tripod
rooted at that spot.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from . import cache
from . import catlie as cl
from . import diagrams as dg
from .jspaces import ClosureDiverged, _grow, full_residue, ihx_relations
from .linalg import echelonize, vec
from .words import IDENTITY, inv_letters, mul_letters

ZERO = dg.ZERO


class ArityMismatch(ValueError):
    """Operand arity does not match the arc diagram."""


# ---------------------------------------------------------------------------
# the canonical form; raw presentations are its input


def _lift(m, arc_beads, counts, dashed, order, deposits):
    """Arc data over a dashed part, as (canonical arc key, sign) or (ZERO, 0).

    ``dashed`` is a canonical labelled key, or at the raw boundary a
    Diagram.  Its leg ``order[i]`` becomes leg i + 1, after the edge at each
    leg l in ``deposits`` takes the holonomy ``deposits[l]`` slid onto it
    (gauge at the attachment point).  A key with nothing to deposit is only
    renumbered (``diagrams.relabel_key``).  Neither step changes which
    automorphisms fix the legs, so from a key the result is never ZERO.
    """
    if not isinstance(dashed, dg.Diagram):
        if not deposits:
            dkey, sign = dg.relabel_key(dashed, tuple(order))
            return ((m, arc_beads, counts, dkey), sign)
        dashed = dg.rebuild(dashed)
    U = dashed.num_legs
    vert = dashed.vertex_of()
    new_edges = []
    for tail, head, w in dashed.edges:
        tv, hv = vert[tail], vert[head]
        if tv < U and tv + 1 in deposits:
            w = mul_letters(inv_letters(deposits[tv + 1]), w)
        if hv < U and hv + 1 in deposits:
            w = mul_letters(w, deposits[hv + 1])
        new_edges.append((tail, head, w))
    legs = tuple(dashed.legs[old - 1] for old in order)
    dkey, sign = dg.canonicalize(dg.Diagram._trusted(legs, dashed.tri, tuple(new_edges)))
    if dkey is ZERO:
        return (ZERO, 0)
    return ((m, arc_beads, counts, dkey), sign)


# raw arcs: list over arcs of item lists; item = ("bead", letters) | ("leg", label)


def arc_canonicalize(arcs, dashed):
    """Canonical form of a raw arc diagram: (key, sign) or (ZERO, 0).

    Pushes every arc bead to the start of its arc; a bead slid backwards
    across a leg deposits the suffix holonomy on that leg's dashed edge
    (gauge at the attachment point).  The dashed part is then relabelled in
    (arc, position) order and canonicalised.
    """
    arc_beads = []
    counts = []
    deposits = {}  # leg label -> letters
    order = []  # leg labels in (arc, position) order
    for items in arcs:
        legs_here = []
        suffix = IDENTITY  # product of bead letters after the current point
        for kind, value in reversed(items):
            if kind == "bead":
                suffix = mul_letters(tuple(value), suffix)
            elif kind == "leg":
                if suffix:
                    deposits[value] = suffix
                legs_here.append(value)
            else:
                raise ValueError("arc item kind must be 'bead' or 'leg'")
        legs_here.reverse()
        arc_beads.append(suffix)  # total holonomy of the arc
        counts.append(len(legs_here))
        order.extend(legs_here)
    if sorted(order) != list(range(1, dashed.num_legs + 1)):
        raise ArityMismatch(
            "arc legs must reference the dashed legs 1..%d exactly once" % dashed.num_legs
        )
    return _lift(len(arcs), tuple(arc_beads), tuple(counts), dashed, order, deposits)


def on_bare_arcs(fibers, jvector):
    """A vector of labelled keys glued onto bare arcs, the legs of fiber j
    attached to arc j in order; returns a vector over canonical arc keys.

    On bare arcs no bead slides onto a leg, so the canonical form is the
    labelled key with its legs relabelled in (arc, position) order.
    """
    order = tuple(label for fiber in fibers for label in fiber)
    m = len(fibers)
    bare = tuple([IDENTITY] * m)
    counts = tuple(len(fiber) for fiber in fibers)
    return vec(
        ((m, bare, counts, dkey), coeff * sign)
        for key, coeff in jvector.items()
        for dkey, sign in [dg.relabel_key(key, order)]
    )


def arc_key_m(key):
    return key[0]


def arc_key_trivalents(key):
    return key[3][1]


def _leg_blocks(counts):
    """The leg labels on each arc, in order."""
    blocks = []
    start = 1
    for c in counts:
        blocks.append(list(range(start, start + c)))
        start += c
    return blocks


# ---------------------------------------------------------------------------
# STU and IHX relations, closure


def _swap_and_glue(dkey, l):
    """The dashed parts of the STU instance at legs l, l + 1 of a labelled
    key: the key with the two legs swapped, as (key, sign), and the two legs
    glued onto a tripod (a vector)."""
    swapped = (*range(1, l), l + 1, l, *range(l + 2, dg.key_num_legs(dkey) + 1))
    return dg.relabel_key(dkey, swapped), cl.glue_pair_key(dkey, l, l + 1)


def _unglued(dkey):
    """Per leg label of a labelled key, the canonical keys of that leg's
    ungluings (``diagrams.unglue_leg``)."""
    dashed = dg.rebuild(dkey)
    return [[k for dia in dg.unglue_leg(dashed, label)
             for k, _sign in [dg.canonicalize(dia)] if k is not ZERO]
            for label in range(1, dashed.num_legs + 1)]


def stu_relations(key, swap_and_glue=None):
    """One STU relation per adjacent leg pair on an arc: T - U - S = 0.

    For legs l, l + 1 adjacent on arc j: T is the key, U swaps the two
    labels, and S glues the two legs onto a tripod whose free end, leg l,
    takes their place on the arc.  The dashed parts of U and S come from
    ``swap_and_glue(dkey, l)``, by default :func:`_swap_and_glue`.
    """
    m, arc_beads, counts, dkey = key
    swap_and_glue = swap_and_glue or _swap_and_glue
    rels = []
    for j, block in enumerate(_leg_blocks(counts)):
        counts_s = counts[:j] + (counts[j] - 1,) + counts[j + 1 :]
        for l in block[:-1]:
            (u_dkey, u_sign), glued = swap_and_glue(dkey, l)
            rel = vec(
                [(key, 1), ((m, arc_beads, counts, u_dkey), -u_sign)]
                + [((m, arc_beads, counts_s, k), -c) for k, c in glued.items()]
            )
            if rel:
                rels.append(rel)
    return rels


def _unglue_neighbours(key, unglued=None):
    """Keys of the T and U terms of STU instances whose S term is this key.

    Needed so that the closure contains every STU instance touching it: each
    leg whose dashed edge ends at a trivalent vertex is unglued back onto
    its arc in both orders, one more leg there.  The dashed keys come from
    ``unglued(dkey)``, by default :func:`_unglued`.
    """
    m, arc_beads, counts, dkey = key
    per_label = (unglued or _unglued)(dkey)
    out = []
    for j, block in enumerate(_leg_blocks(counts)):
        counts_t = counts[:j] + (counts[j] + 1,) + counts[j + 1 :]
        for label in block:
            out.extend((m, arc_beads, counts_t, k) for k in per_label[label - 1])
    return out


def ihx_relations_arc(key, ihx=None):
    """IHX relations at internal dashed edges, arc structure unchanged; the
    dashed relations come from ``ihx(dkey)``, by default ``ihx_relations``."""
    m, arc_beads, counts, dkey = key
    return [{(m, arc_beads, counts, k): c for k, c in rel.items()}
            for rel in (ihx or ihx_relations)(dkey)]


def arc_closure(seed_keys, relations):
    """Close a key set under STU (both directions) and IHX neighbours.

    Every STU and IHX relation of every member is appended to the list
    ``relations``.  The dashed-key part of that work (IHX relations, leg
    swaps and gluings, ungluings) depends on neither arc beads nor leg
    counts, so it is done once per dashed key (and leg) of this call and
    rewrapped onto each arc key.  Raises
    :class:`beadiag.jspaces.ClosureDiverged` on unbounded bead growth, as
    for the labelled-diagram closure.
    """
    swap_and_glue = functools.cache(_swap_and_glue)
    unglued = functools.cache(_unglued)
    ihx = functools.cache(ihx_relations)

    def expand(key):
        rels = stu_relations(key, swap_and_glue) + ihx_relations_arc(key, ihx)
        neighbours = set()
        for rel in rels:
            neighbours.update(rel)
        neighbours.update(_unglue_neighbours(key, unglued))
        return rels, neighbours

    return _grow(seed_keys, relations, expand,
                 lambda key: dg.key_beads(key[3]) + list(key[1]))


# ---------------------------------------------------------------------------
# spanning sets and spaces


def leg_placements(c, m):
    """All ways to place legs 1..c on m arcs with a fiber order: yields
    per-arc leg sequences.  Count is the rising factorial m(m+1)...(m+c-1)."""
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


def enumerate_arc_diagrams(m, d, alphabet, class0=True):
    """All canonical arc keys of degree d on m arcs with canonical beads in
    the alphabet (arc beads forced trivial when class0).

    The keys are {per-arc leg counts} x {canonical labelled keys with that
    many legs} x {arc bead choices}.  A diagram glued onto bare arcs
    canonicalizes to its dashed part relabelled in (arc, position) order,
    and for fixed leg counts the leg placements only relabel the legs, so
    they reach exactly the canonical labelled keys of ``enumerate_diagrams``;
    arc beads sit at the arc starts, untouched by the dashed part.
    """
    if class0:
        bead_choices = [tuple([IDENTITY] * m)]
    else:
        bead_choices = list(itertools.product(alphabet.letter_elements(), repeat=m))
    found = []
    for c in range(0, 2 * d + 1):
        dkeys = dg.enumerate_diagrams(d, c, alphabet)
        for counts in itertools.product(range(c + 1), repeat=m):
            if sum(counts) != c:
                continue
            for arc_beads in bead_choices:
                found.extend((m, arc_beads, counts, dkey) for dkey in dkeys)
    return sorted(found)


class ASpace:
    """A truncated space of degree-d arc diagrams modulo STU/IHX/AS."""

    def __init__(self, m, d, alphabet, class0, span, relations):
        self.m = m
        self.d = d
        self.alphabet = alphabet
        self.class0 = class0
        self.span = span
        self.relations = relations

    def reduce(self, vector):
        return self.relations.reduce(vector)

    def dim(self, min_trivalent=0) -> int:
        """Dimension of the image of the span keys K with at least
        ``min_trivalent`` trivalent vertices.  The rows are inter-reduced, so
        it is |K minus pivots| plus the rank of K's pivot rows outside K."""
        if min_trivalent < 0:
            raise ValueError("min_trivalent must be >= 0")
        rows = self.relations.rows
        keys = {k for k in self.span if arc_key_trivalents(k) >= min_trivalent}
        tails = [{k2: c for k2, c in rows[k].items() if k2 not in keys} for k in keys & rows.keys()]
        return len(keys) - len(tails) + echelonize(tails).rank


def a_space(n, m, d, alphabet, class0=True) -> ASpace:
    """The space of degree-d diagrams on m arcs over the alphabet; query its
    dimension (optionally of the at-least-t-trivalent subspace) via .dim(t)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if d < 0 or m < 0:
        raise ValueError("d and m must be >= 0")
    if alphabet.rank > n:
        raise ValueError("alphabet uses generators beyond rank %d" % n)

    def build():
        span = tuple(enumerate_arc_diagrams(m, d, alphabet, class0))
        rels = []
        try:
            arc_closure(span, rels)
        except ClosureDiverged as exc:
            raise ClosureDiverged("%sA_%d(%d, %d) over %s: %s" % (
                "class-0 " if class0 else "", d, n, m, alphabet.label, exc)) from None
        return ASpace(m=m, d=d, alphabet=alphabet, class0=class0, span=span,
                      relations=echelonize(rels))

    return cache.space("aspace", (m, d, alphabet.rank, alphabet.elements, class0), ASpace, build)


def _is_zero_in_full_space(vector, d, alphabet) -> bool:
    """Whether a class-0 arc vector of degree d vanishes in the untruncated
    STU/IHX quotient: its residue after the relations of the a_space at the
    vector's arc count, then modulo the closure of what is left."""
    if not vector:
        return True
    space = a_space(alphabet.rank, arc_key_m(next(iter(vector))), d, alphabet, class0=True)
    return not full_residue(vector, space.relations, arc_closure)


# ---------------------------------------------------------------------------
# the five Hopf generator actions


def check_position(gen, pos, m):
    """Raise unless ``gen`` is a Hopf generator that acts at position pos on
    m arcs: eta at 1..m+1, mu at 1..m-1, the others at 1..m."""
    top = {"eta": m + 1, "eps": m, "mu": m - 1, "antipode": m, "delta": m}.get(gen)
    if top is None:
        raise ValueError("unknown generator %r" % gen)
    if not 1 <= pos <= top:
        raise ArityMismatch("%s position out of range" % gen)


def _act_arc_key(gen, pos, key):
    """Action of one generator at arc position pos on a canonical key, as
    (key, sign) terms."""
    m, arc_beads, counts, dkey = key
    check_position(gen, pos, m)
    if gen == "eta":
        return [(insert_bare_arc(key, pos), 1)]
    j = pos - 1
    labels = list(range(1, sum(counts) + 1))
    start, end = sum(counts[:j]), sum(counts[:pos])
    before, here, after = labels[:start], labels[start:end], labels[end:]
    if gen == "eps":
        if here:
            return []
        return [((m - 1, arc_beads[:j] + arc_beads[pos:], counts[:j] + counts[pos:], dkey), 1)]
    if gen == "mu":
        # the second arc's bead slides back across the first arc's legs
        bead = arc_beads[pos]
        merged_beads = arc_beads[:j] + (mul_letters(arc_beads[j], bead),) + arc_beads[pos + 1 :]
        merged_counts = counts[:j] + (counts[j] + counts[pos],) + counts[pos + 1 :]
        deposits = dict.fromkeys(here, bead) if bead else {}
        return [_lift(m - 1, merged_beads, merged_counts, dkey, labels, deposits)]
    if gen == "antipode":
        # reversed legs; the inverted bead slides back across all of them
        bead = inv_letters(arc_beads[j])
        deposits = dict.fromkeys(here, bead) if bead else {}
        beads2 = arc_beads[:j] + (bead,) + arc_beads[pos:]
        key2, sign = _lift(m, beads2, counts, dkey, before + here[::-1] + after, deposits)
        return [(key2, sign * (-1) ** len(here))]
    # delta: both copies start with the arc's bead; sum over leg shuffles
    beads2 = arc_beads[:j] + (arc_beads[j],) + arc_beads[j:]
    terms = []
    for mask in itertools.product((0, 1), repeat=len(here)):
        one = [l for l, side in zip(here, mask) if not side]
        two = [l for l, side in zip(here, mask) if side]
        counts2 = counts[:j] + (len(one), len(two)) + counts[pos:]
        terms.append(_lift(m + 1, beads2, counts2, dkey, before + one + two + after, {}))
    return terms


def gr_act(gen, pos, vector, act=_act_arc_key):
    """Linear action of a Hopf generator at an arc position on a vector;
    ``act`` is :func:`_act_arc_key` or a caller's memo of it."""
    return vec((k2, coeff * c) for key, coeff in vector.items() for k2, c in act(gen, pos, key))


def perm_arcs(sigma, vector):
    """Permute arcs; sigma[old_position] = new_position (1-based)."""
    pairs = []
    for key, coeff in vector.items():
        m, arc_beads, counts, dkey = key
        blocks = _leg_blocks(counts)
        olds = [None] * m  # new position - 1 -> old position - 1
        for old0 in range(m):
            olds[sigma[old0 + 1] - 1] = old0
        k2, sign = _lift(
            m, tuple(arc_beads[o] for o in olds), tuple(counts[o] for o in olds), dkey,
            [l for o in olds for l in blocks[o]], {})
        pairs.append((k2, coeff * sign))
    return vec(pairs)


# ---------------------------------------------------------------------------
# cross-effects and the polynomiality witness


# a computable functor family N = A_d(n,-) or its class-0 subfunctor
FunctorSpec = namedtuple("FunctorSpec", "n d alphabet class0")


def insert_bare_arc(key, pos):
    """The image of a canonical key under inserting a bare arc at pos."""
    m, arc_beads, counts, dkey = key
    if not 1 <= pos <= m + 1:
        raise ArityMismatch("insertion position out of range")
    beads2 = arc_beads[: pos - 1] + (IDENTITY,) + arc_beads[pos - 1 :]
    counts2 = counts[: pos - 1] + (0,) + counts[pos - 1 :]
    return (m + 1, beads2, counts2, dkey)


def _insertion_images(spec: FunctorSpec, k: int):
    """The space N(F_k) and the echelon basis of the images of the k bare-arc
    insertions N(F_{k-1})^k -> N(F_k), each reduced by its relations."""
    target = a_space(spec.n, k, spec.d, spec.alphabet, spec.class0)
    source = a_space(spec.n, k - 1, spec.d, spec.alphabet, spec.class0)
    images = echelonize(
        target.reduce({insert_bare_arc(key, pos): 1})
        for key in source.span
        for pos in range(1, k + 1)
    )
    return target, images


def cross_effect_dim(spec: FunctorSpec, k: int) -> int:
    """dim of the k-th cross-effect at (1,...,1): the cokernel of the k
    bare-arc insertions N(F_{k-1})^k -> N(F_k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    target, images = _insertion_images(spec, k)
    return target.dim(0) - images.rank


def nonpoly_witness(n, d, k, alphabet):
    """The chain-of-struts diagram with one beaded bare arc, plus a
    certificate that its cross-effect class is nonzero.

    Returns (key, reduced_vector); the reduced vector is nonzero iff the
    class survives in the cokernel.
    """
    nontrivial = [w for w in alphabet.letter_elements() if w]
    if not nontrivial:
        raise ValueError("alphabet has no nontrivial bead")
    if k < 2 * d + 1:
        raise ValueError("need k >= 2d+1 so the beaded arc is bare")
    w = nontrivial[0]
    legs = list(range(2 * d))
    edges = [(2 * i, 2 * i + 1, ()) for i in range(d)]
    dashed = dg.Diagram(legs, [], edges)
    arcs = []
    for j in range(1, k + 1):
        if j <= 2 * d:
            arcs.append([("leg", j)])
        elif j < k:
            arcs.append([])
        else:
            arcs.append([("bead", w)])
    key, sign = arc_canonicalize(arcs, dashed)
    if key is ZERO:
        raise RuntimeError("the chain-of-struts witness canonicalized to zero")
    target, images = _insertion_images(FunctorSpec(n=n, d=d, alphabet=alphabet, class0=False), k)
    return key, images.reduce(target.reduce({key: sign}))
