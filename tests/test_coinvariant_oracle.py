"""``bridge.coinvariant_dim``, one Young-subgroup quotient per partition.

The oracle is the route it replaced: average the traces of the leg
permutations, one per S_i cycle type, weighted by l^cycles.  Both must give
the same dimension on every cell below, and the quotient route must make
fewer canonical forms.  Most swap relations identify two free keys up to
sign, so only a few reach elimination.
"""

import math
from fractions import Fraction

import pytest

from beadiag import bridge
from beadiag import diagrams as dg
from beadiag.catlie import _parts
from beadiag.jspaces import j_space
from beadiag.linalg import EchelonBasis
from beadiag.words import TRIVIAL_ALPHABET, alphabet_from_spec

GEN11 = alphabet_from_spec("gen:1:1")
GEN21 = alphabet_from_spec("gen:2:1")
GEN22 = alphabet_from_spec("gen:2:2")


# --- the trace route, kept verbatim as the oracle ----------------------------


def _cycle_types(k: int):
    """(cycle type, class size, cycle count) over the symmetric group S_k."""
    for typ in _parts(k, k):
        denom = 1
        counts = {}
        for p in typ:
            denom *= p
            counts[p] = counts.get(p, 0) + 1
        for mult in counts.values():
            denom *= math.factorial(mult)
        yield typ, math.factorial(k) // denom, len(typ)


def _perm_from_type(typ):
    perm = []
    start = 1
    for p in typ:
        perm.extend(list(range(start + 1, start + p)) + [start])
        start += p
    return tuple(perm)


def _perm_trace(space, perm):
    """Trace of a leg permutation acting on a J-space quotient."""
    sigma = {i + 1: perm[i] for i in range(len(perm))}
    order = tuple(sorted(sigma, key=sigma.__getitem__))  # as in catlie.perm_action
    # the unmemoised body: each (key, order) is asked once, so memoising
    # them would only crowd the memo that the bridge checks reuse
    relabel = dg.relabel_key.__wrapped__
    tr = 0
    for key in space.free_keys:
        image, sign = relabel(key, order)
        tr += space.reduce({image: sign}).get(key, 0)
    return tr


def trace_coinvariant_dim(space, i, l) -> int:
    """dim of the S_i-coinvariants of (maps i -> l) tensor the space, via the
    averaging idempotent: (1/i!) sum over sigma of l^cycles(sigma) tr(sigma)."""
    if space.dimension == 0:
        return 0
    total = Fraction(0)
    for typ, size, cycles in _cycle_types(i):
        tr = _perm_trace(space, _perm_from_type(typ))
        if tr:
            total += size * Fraction(l) ** cycles * tr
    total /= math.factorial(i)
    if total.denominator != 1 or total < 0:
        raise ArithmeticError("coinvariant dimension %s is not a nonnegative integer" % total)
    return int(total)


# --- the cells -----------------------------------------------------------------


def _cells():
    for d in range(5):
        for i in range(2 * d + 1):
            for l in sorted({0, 1, 2, 3, 4, 2 * d}):
                yield TRIVIAL_ALPHABET, d, i, l
    for alphabet in (GEN11, GEN22):
        for d in range(2):
            for i in range(2 * d + 1):
                for l in range(4):
                    yield alphabet, d, i, l
    for alphabet in (GEN11, GEN21):
        for l in range(6):
            yield alphabet, 2, 4, l


CELLS = list(_cells())


@pytest.mark.parametrize(
    "alphabet,d,i,l", CELLS,
    ids=["%s-d%d-i%d-l%d" % (a.label, d, i, l) for a, d, i, l in CELLS])
def test_quotient_route_equals_the_trace_route(alphabet, d, i, l):
    space = j_space(d, i, alphabet)
    assert bridge.coinvariant_dim(space, i, l) == trace_coinvariant_dim(space, i, l)


def _canonical_forms(monkeypatch, coinvariant_dim, spaces):
    calls = 0
    canonicalize = dg.canonicalize

    def counted(dia):
        nonlocal calls
        calls += 1
        return canonicalize(dia)

    monkeypatch.setattr(dg, "canonicalize", counted)
    dims = [coinvariant_dim(space, i, 1) for i, space in spaces]
    monkeypatch.setattr(dg, "canonicalize", canonicalize)
    return dims, calls


def test_quotient_route_makes_fewer_canonical_forms(monkeypatch):
    # alpha_dim(d, trivial, 1) for d <= 4, spaces built beforehand
    spaces = [(i, j_space(d, i, TRIVIAL_ALPHABET)) for d in range(5) for i in range(2 * d + 1)]
    dims, calls = _canonical_forms(monkeypatch, bridge.coinvariant_dim, spaces)
    oracle_dims, oracle_calls = _canonical_forms(monkeypatch, trace_coinvariant_dim, spaces)
    assert dims == oracle_dims
    assert 0 < calls < oracle_calls


def test_signed_orbits_leave_few_relations_to_eliminate(monkeypatch):
    # alpha_dim(d, trivial, 1) for d <= 4, spaces built beforehand: of the
    # 2,088 (free key, adjacent swap) images, all but 15 are +-1 times one
    # free key, and each image is one canonical form
    spaces = [(i, j_space(d, i, TRIVIAL_ALPHABET)) for d in range(5) for i in range(2 * d + 1)]
    oracle_dims = [trace_coinvariant_dim(space, i, 1) for i, space in spaces]
    inserts = 0
    insert = EchelonBasis.insert

    def counted(basis, vector):
        nonlocal inserts
        inserts += 1
        return insert(basis, vector)

    monkeypatch.setattr(EchelonBasis, "insert", counted)
    dims, calls = _canonical_forms(monkeypatch, bridge.coinvariant_dim, spaces)
    assert dims == oracle_dims
    assert 0 < inserts <= 15
    bound = sum((i - 1) * len(space.free_keys) for i, space in spaces if i > 1 and space.dimension)
    assert calls <= bound == 2088
