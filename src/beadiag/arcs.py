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
from . import diagrams as dg
from .jspaces import ClosureDiverged, Space, _closed_span, _diverged
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
    (``diagrams.regauge``).  A key with nothing to deposit is only
    renumbered: as it is when the order is the identity, else by
    ``diagrams.relabel_key``, which no other arc operation calls.  Neither
    step changes which automorphisms fix the legs, so from a key the result
    is never ZERO.
    """
    if not isinstance(dashed, dg.Diagram):
        if not deposits:
            order = tuple(order)
            if order == _leg_blocks((len(order),))[0]:  # 1..U, the identity
                return ((m, arc_beads, counts, dashed), 1)
            dkey, sign = dg.relabel_key(dashed, order)
            return ((m, arc_beads, counts, dkey), sign)
        dashed = dg.rebuild(dashed)
    dashed = dg.regauge(dashed, {l - 1: w for l, w in deposits.items()})
    dkey, sign = dg.relabel(dashed, order)
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


def _glue_key(fibers, key):
    """One labelled key glued onto bare arcs, the legs of fiber j attached
    to arc j in order: (canonical arc key, sign).

    On bare arcs no bead slides onto a leg, so the canonical form is the
    labelled key with its legs relabelled in (arc, position) order.
    """
    m = len(fibers)
    return _lift(m, (IDENTITY,) * m, tuple(map(len, fibers)), key, itertools.chain(*fibers), {})


def on_bare_arcs(fibers, jvector):
    """A vector of labelled keys glued onto bare arcs (:func:`_glue_key`);
    returns a vector over canonical arc keys."""
    return vec((akey, coeff * sign) for key, coeff in jvector.items()
               for akey, sign in [_glue_key(fibers, key)])


def arc_key_m(key):
    return key[0]


def arc_key_trivalents(key):
    return key[3][1]


@functools.lru_cache(maxsize=1 << 12)
def _leg_blocks(counts):
    """The leg labels on each arc, in order: the fibers of the block map
    with these leg counts."""
    return tuple(tuple(range(end - c + 1, end + 1))
                 for c, end in zip(counts, itertools.accumulate(counts)))


def compositions(c, m):
    """The m-tuples of leg counts that sum to c, in lexicographic order: one
    per choice of m - 1 bars among c + m - 1 places (stars and bars)."""
    if m == 0:
        if c == 0:
            yield ()
        return
    places = c + m - 1
    for bars in itertools.combinations(range(places), m - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, places)))


# ---------------------------------------------------------------------------
# STU relations, closure


def stu_relations(key):
    """One STU relation per adjacent leg pair on an arc: T - U - S = 0.

    For legs l, l + 1 adjacent on arc j: T is the key, U swaps the two
    labels (:func:`_lift`), and S glues the two legs onto a
    tripod whose free end, leg l, takes their place on the arc
    (``diagrams.glue_key``; a zero S term, sign 0, drops out of ``vec``).
    """
    m, arc_beads, counts, dkey = key
    n = sum(counts)
    rels = []
    for j, block in enumerate(_leg_blocks(counts)):
        counts_s = counts[:j] + (counts[j] - 1,) + counts[j + 1 :]
        for l in block[:-1]:
            u_key, u_sign = _lift(m, arc_beads, counts, dkey,
                                  (*range(1, l), l + 1, l, *range(l + 2, n + 1)), {})
            s_dkey, s_sign = dg.glue_key(dkey, l, l + 1)
            rel = vec([(key, 1), (u_key, -u_sign), ((m, arc_beads, counts_s, s_dkey), -s_sign)])
            if rel:
                rels.append(rel)
    return rels


def arc_closure(keys, relations):
    """The sorted keys, refused unless closed under STU, which implies IHX
    on them (:class:`ASpace`); ``jspaces._closed_span`` appends the keys'
    STU relations to ``relations``."""
    return _closed_span(keys, relations, stu_relations)


# ---------------------------------------------------------------------------
# spanning sets and spaces


@functools.lru_cache(maxsize=1 << 6)
def _labelled_keys(d, c, alphabet):
    """``diagrams.enumerate_diagrams(d, c, alphabet)`` as a tuple, read once
    per process: the arc spans of every arc count share it."""
    return tuple(dg.enumerate_diagrams(d, c, alphabet))


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
        dkeys = _labelled_keys(d, c, alphabet)
        for counts in compositions(c, m):
            for arc_beads in bead_choices:
                found.extend((m, arc_beads, counts, dkey) for dkey in dkeys)
    return sorted(found)


class ASpace(Space):
    """A truncated space of degree-d arc diagrams modulo STU/IHX/AS.

    Its span is its enumeration, its rows echelonize the STU relations of
    its keys alone.  STU implies IHX on diagrams whose every dashed
    component has a leg on an arc (Bar-Natan, Topology 34, 1995), as every
    enumerated one has, and beaded arc spaces build only at d <= 1, with no
    internal edge.  No leg is unglued: an STU instance whose S term is in
    the span has a T term of the same degree, arc count and arc beads, so
    enumerated over the trivial alphabet, and the instance is T's relation
    (``tests/test_closure_premise.py`` checks beaded cells by growing).
    """

    FIELDS = ("m", "d", "alphabet", "class0")

    def __str__(self):
        return "%sA_%d on %d arcs over %s" % (
            "class-0 " if self.class0 else "", self.d, self.m, self.alphabet.label)

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
        rels = []
        try:
            span = arc_closure(enumerate_arc_diagrams(m, d, alphabet, class0), rels)
        except ClosureDiverged as exc:
            name = "%sA_%d(%d, %d)" % ("class-0 " if class0 else "", d, n, m)
            beads = dg.key_beads(exc.key[3]) + list(exc.key[1])
            raise _diverged(name, "STU", exc, beads, alphabet) from None
        # largest pivots first fill in least: A(0, 2, 4) in 0.9 s, 3.9 s in key order
        return ASpace(m=m, d=d, alphabet=alphabet, class0=class0, span=span,
                      relations=echelonize(sorted(rels, key=min, reverse=True)))

    return cache.space("aspace", (m, d, alphabet.rank, alphabet.elements, class0), ASpace, build)


def _is_zero_in_full_space(vector, d, alphabet) -> bool:
    """Whether a class-0 arc vector of degree d vanishes in the untruncated
    STU/IHX quotient: whether the a_space at the vector's arc count reduces
    it to zero.  Its rows are STU relations only, which is exact (see
    :class:`ASpace`), so the bridge checks test the J-spaces' IHX rows
    against STU alone.  Raises ``ValueError`` if the vector leaves the
    space's span."""
    if not vector:
        return True
    space = a_space(alphabet.rank, arc_key_m(next(iter(vector))), d, alphabet, class0=True)
    return not space.reduce(vector)


# ---------------------------------------------------------------------------
# the five Hopf generator actions


# each Hopf generator acts on m arcs at positions 1..m + its offset here
_GEN_RANGES = {"eta": 1, "eps": 0, "mu": -1, "antipode": 0, "delta": 0}


def check_position(gen, pos, m):
    """Raise unless ``gen`` is a Hopf generator that acts at position pos on
    m arcs: eta at 1..m+1, mu at 1..m-1, the others at 1..m.  With m None
    only the generator and pos >= 1 are checked."""
    if gen not in _GEN_RANGES:
        raise ValueError("unknown generator %r" % gen)
    if pos < 1 or (m is not None and pos > m + _GEN_RANGES[gen]):
        raise ArityMismatch("%s position out of range" % gen)


@functools.lru_cache(maxsize=1 << 12)
def _moves(gen, start, count, total):
    """The leg bookkeeping of the antipode or delta at an arc with ``count``
    legs after ``start`` legs on earlier arcs, of keys with ``total`` legs:
    (the labels of the arc's legs, the terms), one term (leg counts that
    replace the arc's, leg order, sign) per image, the leg order as
    :func:`_lift` takes it.  delta has one term per split of the arc's legs
    between the two copies, in the order of
    ``itertools.product((0, 1), repeat=count)`` over the legs' copies."""
    labels = tuple(range(1, total + 1))
    before, here, after = labels[:start], labels[start : start + count], labels[start + count :]
    if gen == "antipode":
        return here, (((len(here),), before + here[::-1] + after, (-1) ** len(here)),)
    splits = [((), ())]  # (first copy, second copy), the last leg's side varying fastest
    for l in here:
        splits = [s for one, two in splits for s in ((one + (l,), two), (one, two + (l,)))]
    return here, tuple(((len(one), len(two)), before + one + two + after, 1) for one, two in splits)


def _act_arc_key(gen, pos, key):
    """Action of one generator at arc position pos on a canonical key, as
    (key, sign) terms; :func:`gr_act` has checked the position.  eta, eps
    and mu keep every leg label; the antipode and delta read their leg
    orders from :func:`_moves`, and per key this builds the arc beads and
    lifts the dashed key once per term."""
    m, arc_beads, counts, dkey = key
    if gen == "eta":
        return [(insert_bare_arc(key, pos), 1)]
    j = pos - 1
    if gen == "eps":
        # zero on an arc with legs; else the dashed key stays as it is
        return [] if counts[j] else [
            ((m - 1, arc_beads[:j] + arc_beads[pos:], counts[:j] + counts[pos:], dkey), 1)]
    if gen == "mu":
        # the second arc's bead slides back across the first arc's legs
        bead = arc_beads[pos]
        beads2 = arc_beads[:j] + (mul_letters(arc_beads[j], bead),) + arc_beads[pos + 1 :]
        counts2 = counts[:j] + (counts[j] + counts[pos],) + counts[pos + 1 :]
        deposits = dict.fromkeys(_leg_blocks(counts)[j], bead) if bead else {}
        return [_lift(m - 1, beads2, counts2, dkey, range(1, sum(counts) + 1), deposits)]
    if gen == "antipode":
        # reversed legs; the inverted bead slides back across all of them
        bead = inv_letters(arc_beads[j])
        m2, beads2 = m, arc_beads[:j] + (bead,) + arc_beads[pos:]
    else:
        # delta: both copies start with the arc's bead; nothing slides
        bead = IDENTITY
        m2, beads2 = m + 1, arc_beads[:j] + (arc_beads[j],) + arc_beads[j:]
    here, terms = _moves(gen, sum(counts[:j]), counts[j], sum(counts))
    deposits = dict.fromkeys(here, bead) if bead else {}
    head, tail = counts[:j], counts[pos:]
    return [(key2, sign * s) for split, order, s in terms
            for key2, sign in [_lift(m2, beads2, head + split + tail, dkey, order, deposits)]]


def gr_act(gen, pos, vector, act=_act_arc_key):
    """Linear action of a Hopf generator at an arc position on a vector;
    ``act`` is :func:`_act_arc_key` or a caller's memo of it.  The position
    is checked once per arc count of the vector, before any action; on the
    zero vector, the generator and pos >= 1 still are."""
    for m in {arc_key_m(key) for key in vector} or (None,):
        check_position(gen, pos, m)
    return vec((k2, coeff * c) for key, coeff in vector.items() for k2, c in act(gen, pos, key))


@functools.lru_cache(maxsize=1 << 10)
def _permuted(news, counts):
    """Arc permutation bookkeeping: news[old] = new position (0-based) gives
    (old position per new position, new leg counts, leg order)."""
    olds = [None] * len(news)  # new position -> old position
    for old, new in enumerate(news):
        olds[new] = old
    blocks = _leg_blocks(counts)
    return (tuple(olds), tuple(counts[o] for o in olds),
            tuple(l for o in olds for l in blocks[o]))


def perm_arcs(sigma, vector):
    """Permute arcs; sigma[old_position] = new_position (1-based)."""
    pairs = []
    for key, coeff in vector.items():
        m, arc_beads, counts, dkey = key
        olds, counts2, order = _permuted(tuple(sigma[o] - 1 for o in range(1, m + 1)), counts)
        k2, sign = _lift(m, tuple(arc_beads[o] for o in olds), counts2, dkey, order, {})
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
    if spec.d < 0:
        raise ValueError("d must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    target, images = _insertion_images(spec, k)
    return target.dim(0) - images.rank


def nonpoly_witness(n, d, k, alphabet):
    """The chain-of-struts diagram on k arcs, its 2d legs one per arc on
    arcs 1..2d and every later arc bare but for a bead, plus a certificate
    that its cross-effect class is nonzero.  An arc bare of beads too would
    make it the image of a bare-arc insertion, zero in the cross-effect.

    Returns (key, reduced_vector); the reduced vector is nonzero iff the
    class survives in the cokernel.
    """
    nontrivial = [w for w in alphabet.letter_elements() if w]
    if not nontrivial:
        raise ValueError("alphabet has no nontrivial bead")
    if k < 2 * d + 1:
        raise ValueError("need k >= 2d+1 so that some arc carries a bead and no leg")
    w = nontrivial[0]
    legs = list(range(2 * d))
    edges = [(2 * i, 2 * i + 1, ()) for i in range(d)]
    dashed = dg.Diagram(legs, [], edges)
    arcs = [[("leg", j)] if j <= 2 * d else [("bead", w)] for j in range(1, k + 1)]
    key, sign = arc_canonicalize(arcs, dashed)
    if key is ZERO:
        raise RuntimeError("the chain-of-struts witness canonicalized to zero")
    target, images = _insertion_images(FunctorSpec(n=n, d=d, alphabet=alphabet, class0=False), k)
    return key, images.reduce(target.reduce({key: sign}))
