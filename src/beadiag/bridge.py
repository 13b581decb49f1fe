"""The bridge between labelled-diagram modules and arc-diagram functors.

Gluing a degree-d diagram's legs onto arcs along a fiber-ordered set map
realises the equivalence between the Lie-PROP module of labelled diagrams
and the class-0 arc functor.  The dimension of the arc space at l arcs can
be computed without diagrams on arcs, as the sum over arities i of the
S_i-coinvariants of (set maps i -> l) tensor J_d(i), each a sum of J_d(i)
quotients by Young subgroups; both routes are implemented and compared,
with the coequalizer identity (the STU relation) and naturality over the
five Hopf generators.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import namedtuple
from fractions import Fraction

from . import arcs as ar
from . import catlie as cl
from . import diagrams as dg
from .jspaces import j_space
from .linalg import echelonize, vaxpy, vscale


class FiberOrderedMap(namedtuple("FiberOrderedMap", "source target fibers")):
    """A set map {1..c} -> {1..l} with a total order on each fiber; ``fibers``
    holds, per target 1..l, the ordered tuple of its preimages."""

    __slots__ = ()

    def __new__(cls, source, target, fibers):
        flat = sorted(x for f in fibers for x in f)
        if flat != list(range(1, source + 1)) or len(fibers) != target:
            raise ValueError("fibers must partition 1..source over target slots")
        return super().__new__(cls, source, target, fibers)


def cat_ass_basis(c, l):
    """All fiber-ordered maps {1..c} -> {1..l}, deterministically ordered.

    Count equals the rising factorial l(l+1)...(l+c-1).
    """
    out = [
        FiberOrderedMap(source=c, target=l, fibers=placement)
        for placement in ar.leg_placements(c, l)
    ]
    out.sort(key=lambda f: f.fibers)
    return out


def glue_vector(fom: FiberOrderedMap, jvector):
    """Glue labelled diagrams' legs onto bare arcs in fiber order; returns a
    vector over canonical arc keys."""
    for jkey in jvector:
        if dg.key_num_legs(jkey) != fom.source:
            raise ar.ArityMismatch(
                "diagram has %d legs, map has source %d" % (dg.key_num_legs(jkey), fom.source)
            )
    return ar.on_bare_arcs(fom.fibers, jvector)


def glue(fom: FiberOrderedMap, jkey):
    """:func:`glue_vector` of one labelled key: a one-term vector (possibly
    empty)."""
    return glue_vector(fom, {jkey: 1})


# ---------------------------------------------------------------------------
# dimension of the glued functor, computed on the labelled-diagram side


def _orbit_count(parts, l):
    """Number of S_i-orbits of maps i -> l whose fiber sizes sort to ``parts``."""
    count = math.factorial(l) // math.factorial(l - len(parts))
    return count // math.prod(math.factorial(parts.count(p)) for p in set(parts))


def coinvariant_dim(space, i, l) -> int:
    """dim of the S_i-coinvariants of (maps i -> l) tensor the space.

    By Shapiro's lemma, the sum over S_i-orbits of maps of the space's
    coinvariants under their stabilisers, Young subgroups, one partition of
    i into at most l parts per conjugacy class: the space modulo (1 - s)k,
    for k its free keys and s the adjacent leg swaps inside consecutive
    blocks, of dimension ``len(free) - echelonize(relations).rank``.  Most of
    these relations have one or two terms, which ``echelonize`` merges
    without elimination.  Raises ``ValueError`` if a swap leaves the span.
    """
    if (l == 0 and i > 0) or space.dimension == 0:
        return 0
    span = set(space.span)
    free = space.free_keys
    # unmemoised: each (key, swap) is asked once; the memo is for the bridge checks
    relabel = dg.relabel_key.__wrapped__

    @functools.cache
    def swapped(key, j):
        """s key reduced to the free keys, for s swapping legs j and j + 1."""
        image, sign = relabel(key, (*range(1, j), j + 1, j, *range(j + 2, i + 1)))
        if image not in span:
            raise ValueError("a leg swap leaves the span of J_%d(%d)" % (space.d, i))
        return space.reduce({image: sign})

    def quotient_dim(parts):
        relations = (vaxpy({key: 1}, -1, swapped(key, j))
                     for p, end in zip(parts, itertools.accumulate(parts))
                     for j, key in itertools.product(range(end - p + 1, end), free))
        return len(free) - echelonize(relations).rank

    return sum(_orbit_count(parts, l) * quotient_dim(parts)
               for parts in cl._parts(i, i) if len(parts) <= l)


def alpha_dim(d, alphabet, l, max_arity=None) -> int:
    """The glued functor's dimension at l arcs: sum over arities i of the
    coinvariant dimensions; ``max_arity`` truncates the module."""
    if l < 0:
        raise ValueError("l must be >= 0")
    top = 2 * d if max_arity is None else min(2 * d, max_arity)
    return sum(coinvariant_dim(j_space(d, i, alphabet), i, l) for i in range(top + 1))


# ---------------------------------------------------------------------------
# the mirrored generator action on fiber-ordered maps


def _act_fibers(gen, pos, fibers):
    """:func:`catass_act` on bare fiber tuples: [(coeff, fibers')].  The
    images partition the same source, so nothing is re-validated."""
    ar.check_position(gen, pos, len(fibers))
    j = pos - 1
    if gen == "eta":
        return [(1, fibers[:j] + ((),) + fibers[j:])]
    f = fibers[j]
    if gen == "eps":
        return [] if f else [(1, fibers[:j] + fibers[pos:])]
    if gen == "mu":
        return [(1, fibers[:j] + (f + fibers[pos],) + fibers[pos + 1 :])]
    if gen == "antipode":
        return [((-1) ** len(f), fibers[:j] + (f[::-1],) + fibers[pos:])]
    out = []  # delta
    for mask in itertools.product((0, 1), repeat=len(f)):
        one = tuple(x for x, b in zip(f, mask) if b == 0)
        two = tuple(x for x, b in zip(f, mask) if b == 1)
        out.append((1, fibers[:j] + (one, two) + fibers[pos:]))
    return out


def catass_act(gen, pos, fom: FiberOrderedMap):
    """Action of a Hopf generator on a fiber-ordered map, mirroring the arc
    operations and their position ranges; returns [(coeff, fom')]."""
    return [(coeff, FiberOrderedMap(fom.source, len(fibers), fibers))
            for coeff, fibers in _act_fibers(gen, pos, fom.fibers)]


def _mu_lifted_maps(fibers, i):
    """The fiber tuples of the two maps {1..c+1} -> {1..l} through which the
    i-th gluing of a map with these fibers factors: the new element c+1
    lands just after, resp. just before, i inside its fiber."""
    c = sum(map(len, fibers))
    t = next(t for t, f in enumerate(fibers) if i in f)
    f, p = fibers[t], fibers[t].index(i)
    return [fibers[:t] + (f[: p + 1] + (c + 1,) + f[p + 1 :],) + fibers[t + 1 :],
            fibers[:t] + (f[:p] + (c + 1,) + f[p:],) + fibers[t + 1 :]]  # [i < c+1, c+1 < i]


# ---------------------------------------------------------------------------
# verification drivers


def verify_bridge(d, alphabet, l, seed=0, sample=None):
    """Check the glued-functor correspondence at l arcs.

    Checks: (a) gluing kills IHX relations in the arc quotient,
    (b) gluing surjects onto the arc space, (c) the two dimension
    computations agree, (d) gluing is natural for the five Hopf generators,
    (e) the coequalizer identity f(L(..)) = f(R(..)) (an STU instance).
    Exhaustive when ``sample`` is None; otherwise a seeded sample caps each
    check's tuple count (in (a), each arity's).
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    if sample is not None and sample < 1:
        raise ValueError("sample must be >= 1")
    rng = random.Random(seed)
    aspace = ar.a_space(alphabet.rank, l, d, alphabet, class0=True)
    checks = []

    def record(name, ok, counterexample=None):
        entry = {"name": name, "pass": bool(ok)}
        if counterexample is not None:
            entry["counterexample"] = repr(counterexample)
        checks.append(entry)

    def first_failure(tuples, counterexample):
        """The first counterexample among the tuples, or among a seeded
        sample of them when there are more than ``sample``."""
        if sample is not None and len(tuples) > sample:
            tuples = rng.sample(tuples, sample)
        return next(filter(None, (counterexample(*t) for t in tuples)), None)

    def vanishes(vector):
        return ar._is_zero_in_full_space(vector, d, alphabet)

    spaces = {c: j_space(d, c, alphabet) for c in range(0, 2 * d + 1)}
    foms = {c: cat_ass_basis(c, l) for c in spaces}

    # (a) IHX relations die after gluing; the echelon rows span them all, in
    # key order.  One sample per arity, and none after the first failure.
    def ihx_counterexample(c, r, fom):
        if not vanishes(glue_vector(fom, r)):
            # reported with Fraction coefficients, whichever exact type a row holds
            return (c, fom.fibers, {k: Fraction(v) for k, v in r.items()})

    for c, space in spaces.items():
        rows = [dict(sorted(r.items())) for _, r in sorted(space.relations.rows.items())]
        bad = first_failure([(c, r, f) for r in rows for f in foms[c]], ihx_counterexample)
        if bad:
            break
    record("ihx_image_vanishes", bad is None, bad)

    # (b) surjectivity of gluing onto the arc space; the rank cannot pass
    # the dimension, so the images stop once it is reached
    dim_arc = aspace.dim(0)
    basis = echelonize([])
    images = (glue(fom, key) for c, space in spaces.items() for fom in foms[c]
              for key in space.span)
    for img in images:
        if img:
            basis.insert(aspace.reduce(img))
        if basis.rank == dim_arc:
            break
    record("glue_surjective", basis.rank == dim_arc, (basis.rank, dim_arc))

    # (c) dimension equality
    dim_alpha = alpha_dim(d, alphabet, l)
    record("dimension_equality", dim_alpha == dim_arc, (dim_alpha, dim_arc))

    # (d) naturality for the five generators, modulo the arc relations.  On
    # bare arcs gluing only relabels legs, and each generator moves the
    # flattened leg order of a map by a permutation of the fiber sizes alone,
    # so the difference vector of a (key, map, move) is s/s0 times that of
    # the first pair glued to the same arc key, s and s0 the gluing signs
    # (both +-1).  The vectors are made once per arc key of this call.
    gens = [("eta", range(1, l + 2)), ("eps", range(1, l + 1)),
            ("mu", range(1, l)), ("antipode", range(1, l + 1)),
            ("delta", range(1, l + 1))]
    moves = [(gen, pos) for gen, positions in gens for pos in positions]
    natural = {}  # arc key -> (gluing sign, difference vector per move)

    def naturality_vectors(key, fibers, akey, sign):
        out = []
        for gen, pos in moves:
            # acting after gluing minus gluing after acting, in one pass and
            # in the item order that vec gives
            total = {}
            for k, c in ar.gr_act(gen, pos, {akey: 1}).items():
                total[k] = total.get(k, 0) + sign * c
            for coeff, fibers2 in _act_fibers(gen, pos, fibers):
                for k, c in ar.on_bare_arcs(fibers2, {key: 1}).items():
                    total[k] = total.get(k, 0) - coeff * c
            out.append({k: c for k, c in total.items() if c})
        return out

    def naturality_counterexample(key, fom):
        [(akey, sign)] = ar.on_bare_arcs(fom.fibers, {key: 1}).items()
        if akey not in natural:
            natural[akey] = (sign, naturality_vectors(key, fom.fibers, akey, sign))
        sign0, vectors = natural[akey]
        for n, vector in enumerate(vectors):
            if not vanishes(vscale(vector, sign * sign0)):
                return (*moves[n], fom.fibers, key)

    bad = first_failure(
        [(key, fom) for c, space in spaces.items() for key in space.span for fom in foms[c]],
        naturality_counterexample,
    )
    record("naturality", bad is None, bad)

    # (e) coequalizer identity via the STU relation.  Glued along ``after``,
    # i and c + 1 are the adjacent legs q + 1 and q + 2 of the arc key, q
    # the place of i in the flattened fibers; ``before`` swaps them and the
    # gluing glues them, so the vector depends on (arc key, q) up to sign.
    coequal = {}  # (arc key, q) -> (gluing sign, difference vector)

    def coequalizer_counterexample(c, key, fom, i):
        after, before = _mu_lifted_maps(fom.fibers, i)
        [(akey, sign)] = ar.on_bare_arcs(after, {key: 1}).items()
        cls = (akey, list(itertools.chain(*after)).index(i))
        if cls not in coequal:
            lhs = vaxpy({akey: sign}, -1, ar.on_bare_arcs(before, {key: 1}))
            rhs = ar.on_bare_arcs(fom.fibers, cl.mu_action(i, {key: 1}, c + 1))
            coequal[cls] = (sign, vaxpy(lhs, -1, rhs))
        sign0, vector = coequal[cls]
        if not vanishes(vscale(vector, sign * sign0)):
            return (c, key, fom.fibers, i)

    bad = first_failure(
        [(c, key, fom, i) for c in range(1, 2 * d) for key in spaces[c + 1].span
         for fom in foms[c] for i in range(1, c + 1)],
        coequalizer_counterexample,
    )
    record("coequalizer", bad is None, bad)

    return {
        "d": d,
        "alphabet": alphabet.label,
        "l": l,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def verify_filtration(d, alphabet, l, t) -> bool:
    """The truncation-to-filtration correspondence at one cell: the glued
    dimension restricted to arities <= 2d-t equals the dimension of the
    at-least-t-trivalent arc subspace."""
    if t < 0:
        raise ValueError("t must be >= 0")
    lhs = alpha_dim(d, alphabet, l, max_arity=2 * d - t)
    rhs = ar.a_space(alphabet.rank, l, d, alphabet, class0=True).dim(t)
    return lhs == rhs
