"""Arc-space construction against brute-force oracles and published values.

* ``enumerate_arc_diagrams`` builds keys from labelled keys; the oracle
  below canonicalizes every skeleton x bead tuple x leg placement.
* ``ASpace.dim`` reads dimensions off the echelon rows; the oracle reduces
  every unit vector and echelonizes the residues.
* On one arc with STU and no 1T relation, dim A(up)_d = 1, 1, 2, 3, 6 for
  d = 0..4 (Bar-Natan, "On the Vassiliev knot invariants", Topology 34,
  1995), through the arc route and through the bridge route, and 10 for
  d = 5 through the bridge route.
"""

import itertools
from fractions import Fraction

import pytest

from beadiag import arcs as ar
from beadiag import diagrams as dg
from beadiag.bridge import alpha_dim
from beadiag.linalg import echelonize
from beadiag.words import IDENTITY, TRIVIAL_ALPHABET, alphabet_from_spec

from frozen_structures import structures
from reference_helpers import oracle_leg_placements

GEN11 = alphabet_from_spec("gen:1:1")
GEN22 = alphabet_from_spec("gen:2:2")

PUBLISHED_ON_ONE_ARC = [1, 1, 2, 3, 6]


def brute_force_arc_keys(m, d, alphabet, class0=True):
    """Every raw arc diagram of degree d on m arcs, canonicalized, as the
    sets of (per-arc leg counts, dashed key) and of arc bead tuples whose
    product is the key set."""
    letters = alphabet.letter_elements()
    basic = set()  # (counts, dkey) with dashed beads in the alphabet
    for c in range(0, 2 * d + 1):
        if c == 0:
            if d == 0:
                basic.add((tuple([0] * m), (0, 0, ())))
            continue
        for skeleton in structures(c, 2 * d - c):
            for beads in itertools.product(letters, repeat=len(skeleton.edges)):
                dashed = dg.Diagram(
                    skeleton.legs,
                    skeleton.tri,
                    [(t, h, (w,)) for (t, h, _), w in zip(skeleton.edges, beads)],
                )
                for placement in oracle_leg_placements(c, m):
                    key, _sign = ar.arc_canonicalize(
                        [[("leg", lab) for lab in fiber] for fiber in placement], dashed
                    )
                    if key is ar.ZERO:
                        continue
                    if all(w in alphabet._members for w in dg.key_beads(key[3])):
                        basic.add((key[2], key[3]))
    if class0:
        bead_choices = [tuple([IDENTITY] * m)]
    else:
        bead_choices = list(itertools.product(letters, repeat=m))
    return basic, set(bead_choices)


def brute_force_dim(space, min_trivalent):
    vecs = [
        space.relations.reduce({k: Fraction(1)})
        for k in space.span
        if ar.arc_key_trivalents(k) >= min_trivalent
    ]
    return echelonize(vecs).rank


ENUMERATION_CELLS = (
    [(m, d, TRIVIAL_ALPHABET, c0) for m in range(4) for d in range(3) for c0 in (True, False)]
    + [(m, d, a, c0) for a in (GEN11, GEN22) for m in range(4) for d in range(2)
       for c0 in (True, False)]
)


@pytest.mark.parametrize(
    "m,d,alphabet,class0",
    ENUMERATION_CELLS,
    ids=["m%d-d%d-%s-%s" % (m, d, a.label, "class0" if c0 else "full")
         for m, d, a, c0 in ENUMERATION_CELLS],
)
def test_arc_enumeration_matches_brute_force(m, d, alphabet, class0):
    keys = ar.enumerate_arc_diagrams(m, d, alphabet, class0)
    basic, bead_choices = brute_force_arc_keys(m, d, alphabet, class0)
    # distinct keys, all in basic x bead_choices and as many as that
    # product: the two key sets are equal (without building the product,
    # which has 600k members on three fully beaded arcs over gen:2:2)
    assert all(a < b for a, b in zip(keys, keys[1:]))  # sorted and distinct
    assert all(key[0] == m for key in keys)
    assert {(key[2], key[3]) for key in keys} <= basic
    assert {key[1] for key in keys} <= bead_choices
    assert len(keys) == len(basic) * len(bead_choices)


def test_arc_key_counts_at_degree_three():
    assert len(ar.enumerate_arc_diagrams(1, 3, TRIVIAL_ALPHABET)) == 41
    assert len(ar.enumerate_arc_diagrams(2, 3, TRIVIAL_ALPHABET)) == 235


DIM_CELLS = [
    (0, 1, 2, TRIVIAL_ALPHABET, True),
    (0, 2, 2, TRIVIAL_ALPHABET, True),
    (0, 3, 2, TRIVIAL_ALPHABET, True),
    (0, 1, 3, TRIVIAL_ALPHABET, True),
    (0, 2, 0, TRIVIAL_ALPHABET, False),
    (1, 2, 1, GEN11, True),
    (1, 2, 1, GEN11, False),
    (1, 1, 1, GEN11, False),
    (2, 1, 1, GEN22, True),
    (2, 1, 1, GEN22, False),
    (2, 2, 0, GEN22, False),
]


@pytest.mark.parametrize(
    "n,m,d,alphabet,class0",
    DIM_CELLS,
    ids=["n%d-m%d-d%d-%s-%s" % (n, m, d, a.label, "class0" if c0 else "full")
         for n, m, d, a, c0 in DIM_CELLS],
)
def test_dim_matches_reducing_every_unit_vector(n, m, d, alphabet, class0):
    space = ar.a_space(n, m, d, alphabet, class0)
    for t in range(0, 2 * d + 2):
        assert space.dim(t) == brute_force_dim(space, t), t


# with the published one-arc cells that DIM_CELLS lacks
SPAN_CELLS = DIM_CELLS + [(0, 1, d, TRIVIAL_ALPHABET, True) for d in (0, 1, 4)]


@pytest.mark.parametrize(
    "n,m,d,alphabet,class0",
    SPAN_CELLS,
    ids=["n%d-m%d-d%d-%s-%s" % (n, m, d, a.label, "class0" if c0 else "full")
         for n, m, d, a, c0 in SPAN_CELLS],
)
def test_stu_closure_adds_no_key_to_the_span(n, m, d, alphabet, class0):
    # these cells build: no STU relation of an enumerated key leaves the
    # span, so the A-space's rows decide every vector on it and
    # Space.reduce refuses none that the checks form
    span = ar.a_space(n, m, d, alphabet, class0).span
    assert ar.arc_closure(span, []) == span


@pytest.mark.parametrize("d", range(len(PUBLISHED_ON_ONE_ARC)))
def test_published_dims_on_one_arc(d):
    assert ar.a_space(0, 1, d, TRIVIAL_ALPHABET).dim(0) == PUBLISHED_ON_ONE_ARC[d]
    assert alpha_dim(d, TRIVIAL_ALPHABET, 1) == PUBLISHED_ON_ONE_ARC[d]


def test_published_d5_dim_on_one_arc_through_the_bridge():
    # every J_5(i) and its coinvariants; the arc route at d = 5 is too slow
    # for tier-1
    assert alpha_dim(5, TRIVIAL_ALPHABET, 1) == 10
