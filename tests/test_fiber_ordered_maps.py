"""Block maps, the maps that ``verify_bridge`` glues along, against every
fiber-ordered map.

``arcs.compositions`` lists the leg counts of the block maps, and
``arcs._leg_blocks`` their fibers: the legs 1..c in turn.  The oracles build
every fiber-ordered map (``reference_helpers.oracle_leg_placements``) and
the Lie PROP basis (below) on their own.  The block maps must be one per
class of fiber-ordered maps under leg relabelling, in the sorted order of
the maps, and the surjective ones must be the Lie basis elements whose
fibers are blocks.
"""

import collections
import itertools
import math

import pytest

from beadiag import arcs as ar

from reference_helpers import oracle_leg_placements


def _surjections(m, n):
    for images in itertools.product(range(1, n + 1), repeat=m):
        if len(set(images)) == n:
            yield images


def oracle_catlie_basis(m: int, n: int) -> tuple:
    """The Lie PROP's (m, n) morphism basis: per surjection, the left-normed
    brackets [[...[a1, w2], ...], wj] of each fiber, a1 its least element,
    as (surjection images, per-fiber orders) pairs."""
    elements = []
    for images in _surjections(m, n):
        fibers = [tuple(i for i in range(1, m + 1) if images[i - 1] == t) for t in range(1, n + 1)]
        # (j-1)! orders per fiber
        per_fiber = [
            [(f[0],) + rest for rest in itertools.permutations(f[1:])] for f in fibers
        ]
        for orders in itertools.product(*per_fiber):
            elements.append((images, tuple(orders)))
    return tuple(elements)


def _block_maps(c, m):
    return [ar._leg_blocks(counts) for counts in ar.compositions(c, m)]


def _is_block_map(fibers):
    return sum(fibers, ()) == tuple(range(1, sum(map(len, fibers)) + 1))


def test_compositions_are_the_filtered_product_in_order():
    for c in range(8):
        for m in range(7):
            assert list(ar.compositions(c, m)) == [
                t for t in itertools.product(range(c + 1), repeat=m) if sum(t) == c]


CELLS = [(m, n) for m in range(7) for n in range(5)]


@pytest.mark.parametrize("m,n", CELLS)
def test_leg_placements_match_oracle(m, n):
    # the m-leg maps onto n arcs, each once, fall into one class of m! maps
    # per composition: those with its leg counts, a leg relabelling apart
    placements = list(oracle_leg_placements(m, n))
    assert len(placements) == len(set(placements)) == math.prod(range(n, n + m))
    classes = collections.Counter(tuple(map(len, fibers)) for fibers in placements)
    assert sorted(classes) == list(ar.compositions(m, n))
    assert set(classes.values()) <= {math.factorial(m)}


@pytest.mark.parametrize("m,n", CELLS)
def test_catlie_basis_matches_oracle(m, n):
    # the surjective block maps are the Lie basis elements whose fibers are blocks
    surjective = [fibers for fibers in _block_maps(m, n) if all(fibers)]
    assert surjective == sorted(
        fibers for _images, fibers in oracle_catlie_basis(m, n) if _is_block_map(fibers))


@pytest.mark.parametrize("c,l", CELLS)
def test_cat_ass_basis_matches_oracle(c, l):
    # the block maps, in verify_bridge's order, are the sorted fiber-ordered
    # maps whose fibers read 1..c in turn
    assert _block_maps(c, l) == [
        fibers for fibers in sorted(oracle_leg_placements(c, l)) if _is_block_map(fibers)]
