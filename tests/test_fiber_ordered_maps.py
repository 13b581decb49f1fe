"""One enumerator of fiber-ordered maps, ``catlie.leg_placements``, against
independent constructions of its two orderings.

The oracles below build the Lie PROP basis from surjections and the CatAss
basis from a sorted list of placements, each on its own; the filtered and
sorted views of ``leg_placements`` must give the same elements in the same
order.
"""

import itertools

import pytest

from beadiag.bridge import FiberOrderedMap, cat_ass_basis
from beadiag.catlie import catlie_basis, leg_placements


def oracle_leg_placements(c, m):
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


def _surjections(m, n):
    for images in itertools.product(range(1, n + 1), repeat=m):
        if len(set(images)) == n:
            yield images


def oracle_catlie_basis(m: int, n: int) -> tuple:
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


def oracle_cat_ass_basis(c, l):
    out = [
        FiberOrderedMap(source=c, target=l, fibers=placement)
        for placement in oracle_leg_placements(c, l)
    ]
    out.sort(key=lambda f: f.fibers)
    return out


CELLS = [(m, n) for m in range(7) for n in range(5)]


@pytest.mark.parametrize("m,n", CELLS)
def test_leg_placements_match_oracle(m, n):
    assert list(leg_placements(m, n)) == list(oracle_leg_placements(m, n))


@pytest.mark.parametrize("m,n", CELLS)
def test_catlie_basis_matches_oracle(m, n):
    assert catlie_basis(m, n) == oracle_catlie_basis(m, n)


@pytest.mark.parametrize("c,l", CELLS)
def test_cat_ass_basis_matches_oracle(c, l):
    assert cat_ass_basis(c, l) == oracle_cat_ass_basis(c, l)
