"""Spaces of beaded open Jacobi diagrams modulo AS and IHX.

Antisymmetry is folded into canonical signs (module ``diagrams``), so only
IHX is materialised as relation vectors.  A space is presented by a
spanning set of canonical keys closed under IHX neighbours, together with
the echelonised relation matrix; any IHX instance touching the closure has
all three terms inside it, so membership and dimension questions about the
untruncated quotient restrict exactly to the closure.
"""

from __future__ import annotations

from . import cache
from . import diagrams as dg
from .linalg import EchelonBasis, echelonize, vec

MAX_CLOSURE_BEAD_LENGTH = 128


class ClosureDiverged(ValueError):
    """The relation closure keeps producing longer and longer beads.

    Happens for nontrivial bead alphabets once diagrams have internal edges
    (degree >= 2): rewiring recombines holonomies into unboundedly long
    products, so the closure of an alphabet-truncated seed set is infinite
    and the truncated quotient is not computable by closure.  A bad input,
    so a ``ValueError``.
    """


def canonical_vector(terms):
    """Sum of (coeff, Diagram) terms as a sparse vector over canonical keys."""
    pairs = []
    for coeff, dia in terms:
        key, sign = dg.canonicalize(dia)
        if key is not dg.ZERO:
            pairs.append((key, coeff * sign))
    return vec(pairs)


def ihx_relations(key, done=None):
    """One IHX relation vector per internal edge of the canonical diagram.

    The I term is the key itself with sign +1: ``rebuild(key)``
    canonicalizes to (key, +1), and the gauge move of
    :func:`diagrams.ihx_at_edge` changes neither.  So only H and X are
    canonicalized, by ``diagrams._canonical_form``, which also says which
    key entry the rewired edge becomes.  With a set ``done``, those (key,
    entry) pairs are added to it, and the edges of ``key`` found in it are
    skipped: such an edge carries the IHX instance of an earlier relation,
    so its relation is the same up to sign.  An edge whose ends a second
    edge also joins, both bead-free, is skipped: H or X has a bead-free
    loop, zero by AS, and the other is -I, so the relation is 0.
    """
    dia = dg.rebuild(key)
    entries = key[2]
    out = []
    for index in dg.internal_edges(dia):
        if done is not None and (key, index) in done:
            continue
        if not entries[index][2] and entries.count(entries[index]) > 1:
            continue
        pairs = [(key, 1)]
        for coeff, term in dg.ihx_at_edge(dia, index)[1:]:
            term_key, sign, order = dg._canonical_form(term)
            if term_key is not dg.ZERO:
                pairs.append((term_key, coeff * sign))
                if done is not None:
                    done.add((term_key, order.index(index)))
        rel = vec(pairs)
        if rel:
            out.append(rel)
    return out


def _grow(seed_keys, relations, expand, beads_of):
    """Smallest superset of the seeds closed under the neighbours ``expand``
    reports; the one closure loop behind :func:`closure` and
    ``arcs.arc_closure``.

    ``expand(key)`` returns the key's relations and its neighbours; every
    relation is appended to ``relations``, so a caller echelonizes them
    instead of generating them again.  Raises :class:`ClosureDiverged` when
    a new key has a bead (``beads_of(key)``) longer than
    ``MAX_CLOSURE_BEAD_LENGTH`` letters, naming how many keys the closure
    had reached and how many of them were still waiting to be expanded.
    """
    seen = set(seed_keys)
    frontier = list(seen)
    while frontier:
        rels, neighbours = expand(frontier.pop())
        relations.extend(rels)
        for nb in neighbours:
            if nb not in seen:
                if any(len(w) > MAX_CLOSURE_BEAD_LENGTH for w in beads_of(nb)):
                    raise ClosureDiverged(
                        "relation closure produced a bead longer than %d letters after"
                        " reaching %d keys, with %d still waiting to be expanded"
                        % (MAX_CLOSURE_BEAD_LENGTH, len(seen), len(frontier))
                    )
                seen.add(nb)
                frontier.append(nb)
    return tuple(sorted(seen))


def closure(seed_keys, relations):
    """Smallest superset of the seeds closed under IHX neighbours.

    The members' IHX relations are appended to the list ``relations``; one
    ``done`` set shared by their :func:`ihx_relations` calls skips each
    edge that carries the IHX instance of an earlier relation.  Raises
    :class:`ClosureDiverged` on unbounded bead growth (see the class
    docstring for when that happens).
    """
    done = set()

    def expand(key):
        rels = ihx_relations(key, done)
        return rels, (nb for rel in rels for nb in rel)

    return _grow(seed_keys, relations, expand, dg.key_beads)


def full_residue(vector, relations, close):
    """The reduced form of a vector in the untruncated quotient.

    Reduces by the echelon rows ``relations``, which must lie in the
    quotient's relation span, then reduces what is left modulo the relations
    of the closure of its support under ``close`` (:func:`closure` or
    ``arcs.arc_closure``).  Exact: a relation that meets a closed key set
    lies inside it, so the result is zero iff the vector lies in the full
    relation span, and it is the same as modulo any larger closed key set.
    """
    residue = relations.reduce(vector)
    if not residue:
        return residue
    rels = []
    close(residue.keys(), rels)
    return echelonize(rels).reduce(residue)


class JSpace:
    """A truncated space J_d(m) over a finite bead alphabet."""

    def __init__(self, d, m, alphabet, span, relations):
        self.d = d
        self.m = m
        self.alphabet = alphabet
        self.span = span  # closure of the enumerated canonical keys
        self.relations = relations

    def __setstate__(self, state):
        # the closure holds every key its relations touch, so a loaded entry
        # whose rows leave the span is corrupt; raising makes it a cache miss
        if not {k for row in state["relations"].rows.values() for k in row} <= set(state["span"]):
            raise ValueError("relation rows reach keys outside the span")
        self.__dict__.update(state)

    @property
    def dimension(self) -> int:
        # the relations lie inside the span; as a property it also shadows
        # the count that entries pickled before it carry
        return len(self.span) - self.relations.rank

    @property
    def free_keys(self):
        """Keys forming a basis of the quotient (non-pivots of the relations)."""
        pivots = set(self.relations.rows)
        return tuple(k for k in self.span if k not in pivots)

    def reduce(self, vector):
        """Quotient coordinates of a vector (support on free keys only)."""
        return self.relations.reduce(vector)


def j_space(d: int, m: int, alphabet) -> JSpace:
    """The truncated quotient space spanned by degree-d, m-leg diagrams with
    canonical beads in the alphabet, modulo AS (signs) and IHX."""

    def build():
        rels = []
        try:
            span = closure(dg.enumerate_diagrams(d, m, alphabet), rels)
        except ClosureDiverged as exc:
            raise ClosureDiverged("J_%d(%d) over %s: %s" % (d, m, alphabet.label, exc)) from None
        return JSpace(d=d, m=m, alphabet=alphabet, span=span, relations=echelonize(rels))

    return cache.space("jspace", (d, m, alphabet.rank, alphabet.elements), JSpace, build)


def vector_is_zero_in_full_space(vector) -> bool:
    """Whether a diagram vector vanishes in the untruncated AS/IHX quotient."""
    return not full_residue(vector, EchelonBasis(), closure)
