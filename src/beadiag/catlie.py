"""The Lie-PROP module structure on spaces of labelled open Jacobi diagrams.

Arity k carries the space J_d(k); permutations relabel legs and the gluing
generators mu_i send J_d(k+1) to J_d(k) by joining legs i and k+1 onto a
tripod whose free end becomes the new leg i.  The natural map at arity k is
the sum over i of the gluings; a module is *outer* when this map vanishes
at every arity.
"""

from __future__ import annotations

from . import diagrams as dg
from .jspaces import canonical_vector, j_space
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

    Each image is reduced by the target space J_d(k), so an image reduces to
    zero iff it vanishes in the untruncated quotient.  Raises ``ValueError``
    if an image leaves the target's span, as the images of beaded J_2(4)
    leave that of J_2(3).
    """
    source = j_space(d, k + 1, alphabet)
    target = j_space(d, k, alphabet)
    return {key: target.reduce(mu_sum({key: 1}, k + 1)) for key in source.free_keys}


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
