"""Spaces of beaded open Jacobi diagrams modulo AS and IHX.

Antisymmetry is folded into canonical signs (module ``diagrams``), so only
IHX is materialised as relation vectors.  A space's span is its
enumeration and its rows the echelonised IHX relations of those keys.  An
IHX instance touching a key is, up to sign, the key's relation at an
edge, so a span that no relation leaves (any other is refused) answers
questions about the untruncated quotient exactly; ``Space.reduce``, the
one zero test, refuses a vector with a key outside it.
"""

from __future__ import annotations

from . import cache
from . import diagrams as dg
from .linalg import echelonize, vec
from .words import format_letters


class ClosureDiverged(ValueError):
    """A relation of a span key reaches ``key``, outside the span.

    A relation keeps to its cell, and a span holds every key of its cell
    with beads in the alphabet, so ``key`` has a bead outside that.  This
    happens for nontrivial beads once diagrams have internal edges
    (degree >= 2): rewiring recombines holonomies into longer products, and
    a closure grown from the span was never seen to stop.  Its rows would
    not decide zero in the untruncated quotient, so the space is refused;
    a bad input, so a ``ValueError``.
    """

    def __init__(self, message, key):
        super().__init__(message)
        self.key = key


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
    key entry the rewired edge becomes under each of its edge orders, so
    along the entry's orbit under the key's automorphisms.  With a set
    ``done``, those (key, entry) pairs are added to it, and the edges of
    ``key`` found in it are skipped: such an edge carries the IHX instance
    of an earlier relation, or its image under an automorphism, so its
    relation is the same up to sign.  An edge whose ends a second
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
            term_key, sign, orders = dg._canonical_form(term)
            if term_key is not dg.ZERO:
                pairs.append((term_key, coeff * sign))
                if done is not None:
                    done.update((term_key, order.index(index)) for order in orders)
        rel = vec(pairs)
        if rel:
            out.append(rel)
    return out


def _closed_span(keys, relations, relations_of):
    """The sorted keys, a space's span: each key's relations
    (``relations_of(key)``) are appended to ``relations``, in key order.
    Raises :class:`ClosureDiverged`, naming the least key outside the span,
    at the first relation that leaves it."""
    span = tuple(sorted(set(keys)))
    members = frozenset(span)
    for key in span:
        for rel in relations_of(key):
            if not members.issuperset(rel):
                outside = min(k for k in rel if k not in members)
                raise ClosureDiverged("a relation reaches a key outside the span", outside)
            relations.append(rel)
    return span


def closure(keys, relations):
    """The sorted keys, refused unless closed under IHX (:func:`_closed_span`);
    one ``done`` set shared by their :func:`ihx_relations` calls skips each
    edge carrying the IHX instance of an earlier relation, up to automorphism."""
    done = set()
    return _closed_span(keys, relations, lambda key: ihx_relations(key, done))


def _diverged(name, kind, exc, beads, alphabet):
    """Space ``name``'s refusal: the first of ``beads`` (the outside key's) not in the alphabet."""
    bead = next(w for w in beads if w not in alphabet)
    return ClosureDiverged("%s over %s: an %s relation reaches the bead %s, outside the alphabet"
                           % (name, alphabet.label, kind, format_letters(bead)), exc.key)


class Space:
    """A truncated quotient (:class:`JSpace`, ``arcs.ASpace``): the ``FIELDS``
    parameters, a ``span`` of keys, and echelonized ``relations`` inside it."""

    FIELDS = ()

    def __init__(self, *args, **kwargs):
        names = self.FIELDS + ("span", "relations")
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or set(values) != set(names):
            raise TypeError("%s takes %s" % (type(self).__name__, ", ".join(names)))
        self.__dict__.update((name, values[name]) for name in names)
        self._span_keys = frozenset(self.span)

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_span_keys"}

    def __setstate__(self, state):
        # the span holds every key its relations touch, so a loaded entry
        # whose rows leave the span is corrupt; raising makes it a cache miss
        span_keys = frozenset(state["span"])
        if not all(span_keys.issuperset(row) for row in state["relations"].rows.values()):
            raise ValueError("relation rows reach keys outside the span")
        self.__dict__.update(state, _span_keys=span_keys)

    def reduce(self, vector):
        """Quotient coordinates of a vector (support on free keys only), exact
        in the untruncated quotient as the span is closed under the relations.
        Raises ``ValueError`` if the vector leaves the span."""
        if not self._span_keys.issuperset(vector):
            raise ValueError("a vector leaves the span of %s" % self)
        return self.relations.reduce(vector)


class JSpace(Space):
    """A truncated space J_d(m) over a finite bead alphabet, spanned by its keys."""

    FIELDS = ("d", "m", "alphabet")

    def __str__(self):
        return "J_%d(%d) over %s" % (self.d, self.m, self.alphabet.label)

    @property
    def dimension(self) -> int:
        # as a property it also shadows the count older pickled entries carry
        return len(self.span) - self.relations.rank

    @property
    def free_keys(self):
        """Keys forming a basis of the quotient (non-pivots of the relations)."""
        pivots = set(self.relations.rows)
        return tuple(k for k in self.span if k not in pivots)


def j_space(d: int, m: int, alphabet) -> JSpace:
    """The truncated quotient space spanned by degree-d, m-leg diagrams with
    canonical beads in the alphabet, modulo AS (signs) and IHX."""

    def build():
        rels = []
        try:
            span = closure(dg.enumerate_diagrams(d, m, alphabet), rels)
        except ClosureDiverged as exc:
            raise _diverged("J_%d(%d)" % (d, m), "IHX", exc, dg.key_beads(exc.key),
                            alphabet) from None
        return JSpace(d=d, m=m, alphabet=alphabet, span=span, relations=echelonize(rels))

    return cache.space("jspace", (d, m, alphabet.rank, alphabet.elements), JSpace, build)
