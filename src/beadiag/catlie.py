"""The Lie-PROP module structure on spaces of labelled open Jacobi diagrams.

Arity k carries the space J_d(k); permutations relabel legs and the gluing
generators mu_i send J_d(k+1) to J_d(k) by joining legs i and k+1 onto a
tripod whose free end becomes the new leg i.  The natural map at arity k is
the sum over i of the gluings; a module is *outer* when this map vanishes
at every arity.
"""

from __future__ import annotations

import itertools

from . import diagrams as dg
from .jspaces import canonical_vector, closure, full_residue, j_space
from .linalg import echelonize, vec


def _parts(n, largest):
    """Partitions of n with parts at most ``largest``, weakly decreasing,
    lexicographic from the largest part."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _parts(n - first, first):
            yield (first,) + rest


def perm_action(sigma, vector):
    """Relabel legs by a permutation; sigma[old_label] = new_label (1-based)."""
    if sorted(sigma.values()) != list(range(1, len(sigma) + 1)):
        raise dg.DiagramError("new leg labels must be a bijection onto 1..%d" % len(sigma))
    order = tuple(sorted(sigma, key=sigma.__getitem__))
    return vec(
        (k2, coeff * sign)
        for key, coeff in vector.items()
        for k2, sign in [dg.relabel_key(key, order)]
    )


def glue_pair_key(key, a, b):
    """Glue legs a and b of a canonical diagram; a one-term vector (or zero)."""
    return canonical_vector([(1, dg.glue_pair(dg.rebuild(key), a, b))])


def _check_arity(vector, arity):
    if any(dg.key_num_legs(key) != arity for key in vector):
        raise ValueError("vector not supported in arity %d" % arity)


def mu_action(i: int, vector, arity: int):
    """The gluing generator mu_i from arity ``arity`` down to ``arity - 1``."""
    if not (1 <= i <= arity - 1):
        raise ValueError("mu_%d undefined at arity %d" % (i, arity))
    _check_arity(vector, arity)
    return canonical_vector(
        (coeff, dg.glue_pair(dg.rebuild(key), i, arity)) for key, coeff in vector.items()
    )


def mu_sum(vector, arity: int):
    """Sum of mu_i over i = 1..arity-1 (the outer-property transformation),
    rebuilding each key once."""
    _check_arity(vector, arity)
    rebuilt = [(coeff, dg.rebuild(key)) for key, coeff in vector.items()]
    return canonical_vector((coeff, dg.glue_pair(dia, i, arity))
                            for i in range(1, arity) for coeff, dia in rebuilt)


def mu_transform(d: int, k: int, alphabet) -> dict:
    """The mu map at arity k (source arity k+1): {free key of J_d(k+1), in
    ``free_keys`` order: its image}.

    Each image is reduced in the untruncated target quotient, so an image
    reduces to zero iff it vanishes there.
    """
    source = j_space(d, k + 1, alphabet)
    target = j_space(d, k, alphabet)
    return {
        key: full_residue(mu_sum({key: 1}, k + 1), target.relations, closure)
        for key in source.free_keys
    }


def outer_check(d: int, alphabet):
    """True iff every mu transform vanishes for arities k <= 2d-1.

    Returns (verdict, witness); the witness is (k, source_key, image_vector)
    for the first nonvanishing image, or None.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    for k in range(0, 2 * d):
        for key, img in mu_transform(d, k, alphabet).items():
            if img:
                return False, (k, key, img)
    return True, None


def outer_quotient(d: int, k: int, alphabet) -> int:
    """Dimension of the cokernel of the mu transform at arity k."""
    target = j_space(d, k, alphabet)
    return target.dimension - echelonize(mu_transform(d, k, alphabet).values()).rank


# ---------------------------------------------------------------------------
# Morphism bases of the Lie PROP


def _surjections(m, n):
    for images in itertools.product(range(1, n + 1), repeat=m):
        if len(set(images)) == n:
            yield images


def catlie_basis(m: int, n: int) -> tuple:
    """Basis of the PROP's (m, n) morphism space: surjections with a
    left-normed Lie bracket basis on each fiber, as (surjection images,
    per-fiber orders) pairs.  Its length, the dimension, is the sum over
    surjections of the product of (fiber size - 1)! factors."""
    elements = []
    for images in _surjections(m, n):
        fibers = [tuple(i for i in range(1, m + 1) if images[i - 1] == t) for t in range(1, n + 1)]
        # left-normed brackets [[...[a1, w2], ...], wj] with a1 the least
        # fiber element: (j-1)! per fiber
        per_fiber = [
            [(f[0],) + rest for rest in itertools.permutations(f[1:])] for f in fibers
        ]
        for orders in itertools.product(*per_fiber):
            elements.append((images, tuple(orders)))
    return tuple(elements)

