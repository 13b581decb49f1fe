"""``diagrams.relabel_key``, the memoised leg renumbering of canonical keys.

The oracle is the unmemoised route it replaced: rebuild the key, relabel
its legs, canonicalize.  The memo must return exactly that (key, sign) for
every order, and its fixed bound must hold a bridge check without eviction.
"""

import itertools
import random
from fractions import Fraction

import pytest

from beadiag import bridge
from beadiag import diagrams as dg
from beadiag.catlie import perm_action
from beadiag.words import TRIVIAL_ALPHABET, alphabet_from_spec

from reference_helpers import relabel_legs

GEN11 = alphabet_from_spec("gen:1:1")

CELLS = [(alphabet, d, m)
         for alphabet, top in ((TRIVIAL_ALPHABET, 3), (GEN11, 2))
         for d in range(top + 1) for m in range(2 * d + 1)]


def _orders(m, rng):
    """Every leg order up to 4 legs, else a seeded sample of them."""
    if m <= 4:
        return list(itertools.permutations(range(1, m + 1)))
    return [tuple(rng.sample(range(1, m + 1), m)) for _ in range(30)]


@pytest.mark.parametrize(
    "alphabet,d,m", CELLS, ids=["%s-d%d-m%d" % (a.label, d, m) for a, d, m in CELLS])
def test_relabel_key_is_canonicalize_of_the_relabelled_diagram(alphabet, d, m):
    dg.relabel_key.cache_clear()
    rng = random.Random(100 * d + m)
    keys = dg.enumerate_diagrams(d, m, alphabet)
    for key in keys:
        for order in _orders(m, rng):
            sigma = {old: new for new, old in enumerate(order, 1)}
            expected = dg.canonicalize(relabel_legs(dg.rebuild(key), sigma))
            assert dg.relabel_key(key, order) == expected, (key, order)
            # a second ask is answered from the memo, unchanged
            assert dg.relabel_key(key, order) == expected


@pytest.mark.parametrize("sigma", [{1: 1, 2: 1}, {1: 2, 2: 3}, {1: 1}, {1: 1, 2: 2, 3: 3},
                                   {2: 1, 3: 2}])
def test_perm_action_needs_a_bijection(sigma):
    key, _sign = dg.canonicalize(dg.Diagram([0, 1], [], [(0, 1, ())]))
    with pytest.raises(dg.DiagramError):
        perm_action(sigma, {key: Fraction(1)})


def test_bridge_relabellings_fit_the_memo():
    dg.relabel_key.cache_clear()
    assert bridge.verify_bridge(2, TRIVIAL_ALPHABET, 3)["pass"]
    info = dg.relabel_key.cache_info()
    # nothing was evicted, and most asks were answered from the memo
    assert info.misses == info.currsize
    assert info.hits > 10 * info.misses


def test_coinvariant_traces_leave_the_memo_empty():
    # the coinvariant quotients ask every (key, swap) once, so they must
    # not crowd the memo
    dg.relabel_key.cache_clear()
    assert bridge.alpha_dim(4, TRIVIAL_ALPHABET, 1) == 6
    assert dg.relabel_key.cache_info().currsize == 0
