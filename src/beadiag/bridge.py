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

import itertools
import math
import random
from fractions import Fraction

from . import arcs as ar
from . import catlie as cl
from . import diagrams as dg
from .jspaces import j_space
from .linalg import echelonize, vaxpy, vec


def glue(fibers, jvector):
    """Glue labelled diagrams' legs onto bare arcs, the legs of fiber j
    attached to arc j in order; returns a vector over canonical arc keys.
    Raises ``ArityMismatch`` unless the fibers partition the legs 1..c of
    every key."""
    flat = sorted(itertools.chain(*fibers))
    for jkey in jvector:
        if flat != list(range(1, dg.key_num_legs(jkey) + 1)):
            raise ar.ArityMismatch("fibers must partition the legs 1..%d"
                                   % dg.key_num_legs(jkey))
    return ar.on_bare_arcs(fibers, jvector)


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
    without elimination.  Each free key is rebuilt once for its i - 1 swaps,
    and a swap sending it to a free key also gives that key's image, the
    swap being an involution.  Raises ``ValueError`` if a swap leaves the
    span (from ``space.reduce``).
    """
    if (l == 0 and i > 0) or space.dimension == 0:
        return 0
    free = space.free_keys
    free_set = set(free)
    swapped = {}  # (key, j) -> s key reduced to the free keys, s swapping legs j, j + 1
    for key in free:
        dia = dg.rebuild(key)
        for j in range(1, i):
            if (key, j) in swapped:
                continue
            image, sign = dg.relabel(dia, (*range(1, j), j + 1, j, *range(j + 2, i + 1)))
            swapped[key, j] = space.reduce({image: sign})
            if image in free_set:
                swapped[image, j] = {key: sign}

    def quotient_dim(parts):
        relations = (vaxpy({key: 1}, -1, swapped[key, j])
                     for p, end in zip(parts, itertools.accumulate(parts))
                     for j, key in itertools.product(range(end - p + 1, end), free))
        return len(free) - echelonize(relations).rank

    return sum(_orbit_count(parts, l) * quotient_dim(parts)
               for parts in cl._parts(i, i) if len(parts) <= l)


def alpha_dim(d, alphabet, l, max_arity=None) -> int:
    """The glued functor's dimension at l arcs: sum over arities i of the
    coinvariant dimensions; ``max_arity`` truncates the module."""
    if d < 0:
        raise ValueError("d must be >= 0")
    if l < 0:
        raise ValueError("l must be >= 0")
    top = 2 * d if max_arity is None else min(2 * d, max_arity)
    return sum(coinvariant_dim(j_space(d, i, alphabet), i, l) for i in range(top + 1))


# ---------------------------------------------------------------------------
# the mirrored generator action on fiber-ordered maps


def _act_fibers(gen, pos, fibers):
    """Action of a Hopf generator on the fibers of a fiber-ordered map,
    mirroring the arc operations: [(coeff, fibers')].  The caller passes a
    position in the generator's arc range, and the images partition the
    same source, so nothing is validated."""
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

    Every check glues along block maps only, one per composition of the
    arity c into l leg counts, whose fibers are the leg blocks in order.
    Any fiber-ordered map glues a key as its block map glues the key with
    its legs relabelled by the map's flattened order, and a leg relabelling
    maps the span of J_d(c), and the span of its IHX relations, onto itself.
    So the other maps glue nothing that the block maps miss.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
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
        """The first counterexample among the tuples, streamed, or among a
        seeded sample of them when there are more than ``sample``."""
        if sample is not None:
            tuples = list(tuples)
            if len(tuples) > sample:
                tuples = rng.sample(tuples, sample)
        return next(filter(None, (counterexample(*t) for t in tuples)), None)

    def vanishes(vector):
        return ar._is_zero_in_full_space(vector, d, alphabet)

    spaces = {c: j_space(d, c, alphabet) for c in range(0, 2 * d + 1)}
    maps = {c: [ar._leg_blocks(counts) for counts in ar.compositions(c, l)]  # sorted
            for c in spaces}

    # (a) IHX relations die after gluing, modulo the A-space's rows (the zero
    # test).  Those are STU relations alone, so the J rows are held against
    # the arc side only.  The echelon rows span them all, in key order.  One
    # sample per arity.
    def ihx_counterexample(c, r, fibers):
        if not vanishes(ar.on_bare_arcs(fibers, r)):
            # reported with Fraction coefficients, whichever exact type a row holds
            return (c, fibers, {k: Fraction(v) for k, v in r.items()})

    for c, space in spaces.items():
        rows = [dict(sorted(r.items())) for _, r in sorted(space.relations.rows.items())]
        bad = first_failure(((c, r, f) for r in rows for f in maps[c]), ihx_counterexample)
        if bad:
            break
    record("ihx_image_vanishes", bad is None, bad)

    # (b) surjectivity of gluing onto the arc space; the rank cannot pass
    # the dimension, so the images stop once it is reached
    dim_arc = aspace.dim(0)
    basis = echelonize([])
    images = (ar._glue_key(fibers, key) for c, space in spaces.items() for fibers in maps[c]
              for key in space.span)
    for akey, sign in images:
        basis.insert(aspace.reduce({akey: sign}))
        if basis.rank == dim_arc:
            break
    record("glue_surjective", basis.rank == dim_arc, (basis.rank, dim_arc))

    # (c) dimension equality
    dim_alpha = alpha_dim(d, alphabet, l)
    record("dimension_equality", dim_alpha == dim_arc, (dim_alpha, dim_arc))

    # (d) naturality for the five generators, modulo the arc relations
    moves = [(gen, pos) for gen, top in ar._GEN_RANGES.items() for pos in range(1, l + top + 1)]

    def naturality_counterexample(key, fibers):
        glued = dict([ar._glue_key(fibers, key)])
        for gen, pos in moves:
            # acting after gluing minus gluing after acting
            vector = vaxpy(ar.gr_act(gen, pos, glued), -1, vec(
                (k, coeff * sign) for coeff, image in _act_fibers(gen, pos, fibers)
                for k, sign in [ar._glue_key(image, key)]))
            if not vanishes(vector):
                return (gen, pos, fibers, key)

    bad = first_failure(
        ((key, f) for c, space in spaces.items() for key in space.span for f in maps[c]),
        naturality_counterexample,
    )
    record("naturality", bad is None, bad)

    # (e) coequalizer identity via the STU relation: glued along ``after``,
    # i and c + 1 are adjacent legs, ``before`` swaps them and the
    # right-hand side glues them onto a tripod.  mu_i of a key does not
    # depend on the map, and the tuples reach a key's maps in a row, so its
    # images are held until the tuples move on to the next key (a sample
    # may come back to a key, and takes its images again)
    last, images = None, {}  # the last (c, key) the tuples reached, and its mu_i by i

    def coequalizer_counterexample(c, key, fibers, i):
        nonlocal last
        if last != (c, key):
            last = (c, key)
            images.clear()
        if i not in images:
            images[i] = cl.mu_action(i, {key: 1}, c + 1)
        after, before = _mu_lifted_maps(fibers, i)
        (akey, sign), (bkey, bsign) = ar._glue_key(after, key), ar._glue_key(before, key)
        lhs = vec([(akey, sign), (bkey, -bsign)])
        rhs = ar.on_bare_arcs(fibers, images[i])
        if not vanishes(vaxpy(lhs, -1, rhs)):
            return (c, key, fibers, i)

    bad = first_failure(
        ((c, key, f, i) for c in range(1, 2 * d) for key in spaces[c + 1].span
         for f in maps[c] for i in range(1, c + 1)),
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
