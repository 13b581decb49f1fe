import math
from fractions import Fraction

import pytest

from beadiag import arcs as ar
from beadiag import diagrams as dg
from beadiag.bridge import (
    FiberOrderedMap,
    alpha_dim,
    cat_ass_basis,
    coinvariant_dim,
    glue,
    glue_vector,
    verify_bridge,
    verify_filtration,
)
from beadiag.jspaces import j_space
from beadiag.words import TRIVIAL_ALPHABET, Word, alphabet_from_spec

from reference_helpers import arc_key_counts, catass_act

GEN11 = alphabet_from_spec("gen:1:1")


def rising_factorial(l, c):
    out = 1
    for i in range(c):
        out *= l + i
    return out


def test_cat_ass_counts():
    assert len(cat_ass_basis(0, 3)) == 1
    assert len(cat_ass_basis(2, 1)) == 2
    # direct count oracle: sum over set maps of prod |fiber|!
    def oracle(c, l):
        import itertools

        total = 0
        for images in itertools.product(range(l), repeat=c):
            prod = 1
            for t in range(l):
                prod *= math.factorial(sum(1 for x in images if x == t))
            total += prod
        return total

    for c in range(0, 5):
        for l in range(1, 4):
            n = len(cat_ass_basis(c, l))
            assert n == oracle(c, l) == rising_factorial(l, c)
    assert len(cat_ass_basis(2, 2)) == 6


def test_glue_examples():
    strut = dg.Diagram([0, 1], [], [(0, 1, ())])
    key, _ = dg.canonicalize(strut)
    # bijection onto two arcs
    fom = FiberOrderedMap(2, 2, ((1,), (2,)))
    (akey, coeff), = glue(fom, key).items()
    assert arc_key_counts(akey) == (1, 1)
    # constant map with order 1 < 2
    fom = FiberOrderedMap(2, 1, ((1, 2),))
    (akey, coeff), = glue(fom, key).items()
    assert arc_key_counts(akey) == (2,)
    # arity mismatch
    with pytest.raises(ar.ArityMismatch):
        glue(FiberOrderedMap(3, 1, ((1, 2, 3),)), key)
    # fibers that do not partition the source over the target slots
    for source, target, fibers in [(2, 2, ((1,), (1,))), (2, 1, ((1,), (2,))), (1, 1, ((2,),))]:
        with pytest.raises(ValueError, match="^fibers must partition 1..source over target slots$"):
            FiberOrderedMap(source, target, fibers)


def test_glue_is_the_raw_route_on_bare_arcs():
    # gluing relabels the legs in fiber order; the raw route places the
    # legs on bare arcs and canonicalizes the arc diagram
    cells = [(TRIVIAL_ALPHABET, d) for d in (1, 2)] + [(GEN11, 1)]
    pairs = 0
    for alphabet, d in cells:
        for c in range(2 * d + 1):
            for key in dg.enumerate_diagrams(d, c, alphabet):
                for l in range(4):
                    for fom in cat_ass_basis(c, l):
                        bare = [[("leg", lab) for lab in fiber] for fiber in fom.fibers]
                        akey, sign = ar.arc_canonicalize(bare, dg.rebuild(key))
                        expect = {} if akey is ar.ZERO else {akey: Fraction(sign)}
                        assert glue(fom, key) == expect
                        pairs += 1
    assert pairs > 1000
    with pytest.raises(ar.ArityMismatch, match="^diagram has 2 legs, map has source 3$"):
        glue_vector(FiberOrderedMap(3, 1, ((3, 1, 2),)), {key: Fraction(1)})


def test_glue_order_difference_is_the_glued_tree_mod_stu():
    # swapping the fiber order differs by the image of the gluing generator
    from beadiag.bridge import _mu_lifted_maps
    from beadiag import catlie as cl

    key, sign = dg.canonicalize(dg.Diagram([0, 1], [], [(0, 1, (Word.parse("x1"),))]))
    v = {key: Fraction(sign)}
    fom = FiberOrderedMap(1, 1, ((1,),))
    lifted = _mu_lifted_maps(fom.fibers, 1)
    assert lifted == [((1, 2),), ((2, 1),)]
    after, before = (FiberOrderedMap(2, 1, fibers) for fibers in lifted)
    lhs = glue(after, key)
    for k, c in glue(before, key).items():
        lhs[k] = lhs.get(k, 0) - c
        if not lhs[k]:
            del lhs[k]
    rhs = {}
    for k, c in cl.mu_action(1, v, 2).items():
        for k2, c2 in glue(fom, k).items():
            rhs[k2] = rhs.get(k2, 0) + c * c2
    diff = dict(lhs)
    for k, c in rhs.items():
        diff[k] = diff.get(k, 0) - c
        if not diff[k]:
            del diff[k]
    assert ar._is_zero_in_full_space(diff, 1, GEN11)


def test_sc_balance_of_glue():
    # gluing after a leg permutation equals gluing along the composed map
    from beadiag.catlie import perm_action

    space = j_space(2, 3, TRIVIAL_ALPHABET)
    sigma = {1: 2, 2: 3, 3: 1}
    for key in space.free_keys:
        for fom in cat_ass_basis(3, 2)[:6]:
            # compose the map with sigma: fiber entries relabelled by sigma^-1
            inv = {v: k for k, v in sigma.items()}
            fibers = tuple(tuple(inv[x] for x in f) for f in fom.fibers)
            fom2 = FiberOrderedMap(3, 2, fibers)
            lhs = glue(fom2, key)
            rhs = {}
            for k, c in perm_action(sigma, {key: Fraction(1)}).items():
                for k2, c2 in glue(fom, k).items():
                    rhs[k2] = rhs.get(k2, 0) + c * c2
            assert lhs == rhs


def test_alpha_dim_examples():
    for m in (1, 2, 3, 4):
        assert alpha_dim(1, TRIVIAL_ALPHABET, m) == m * (m + 1) // 2
    assert alpha_dim(1, TRIVIAL_ALPHABET, 0) == 0
    assert alpha_dim(2, TRIVIAL_ALPHABET, 0) == 0
    # bridge equality as a derived oracle
    assert alpha_dim(2, TRIVIAL_ALPHABET, 2) == ar.a_space(
        0, 2, 2, TRIVIAL_ALPHABET
    ).dim(0)
    assert alpha_dim(1, GEN11, 3) == ar.a_space(1, 3, 1, GEN11).dim(0)


def test_alpha_dim_rejects_a_negative_degree():
    # no arity has a diagram of negative degree, so the sum was an empty 0
    with pytest.raises(ValueError, match="^d must be >= 0$"):
        alpha_dim(-1, TRIVIAL_ALPHABET, 1)
    with pytest.raises(ValueError, match="^d must be >= 0$"):
        verify_filtration(-1, TRIVIAL_ALPHABET, 1, 0)


@pytest.mark.parametrize("spec", ["gen:1:1", "gen:2:1", "gen:1:2"])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_coinvariants_need_the_legs_to_permute_inside_the_span(spec, l):
    # The canonical gauge is rooted at the lowest leg, so swapping legs can
    # push a bead past the alphabet's depth: S_3 does not act on J_2(3).
    space = j_space(2, 3, alphabet_from_spec(spec))
    with pytest.raises(ValueError, match="leaves the span"):
        coinvariant_dim(space, 3, l)


def test_catass_act_eta_eps_mu_shapes():
    fom = FiberOrderedMap(2, 2, ((1, 2), ()))
    (c1, up), = catass_act("eta", 1, fom)
    assert up.target == 3 and up.fibers == ((), (1, 2), ())
    assert catass_act("eps", 1, fom) == []
    (c2, down), = catass_act("eps", 2, fom)
    assert down.target == 1 and down.fibers == ((1, 2),)
    (c3, merged), = catass_act("mu", 1, fom)
    assert merged.fibers == ((1, 2),)
    (c4, rev), = catass_act("antipode", 1, fom)
    assert rev.fibers == ((2, 1), ()) and c4 == 1
    assert len(catass_act("delta", 1, fom)) == 4


# generator -> (valid positions, out-of-range positions) on two arcs; the
# ranges of arcs._act_arc_key: eta 1..l+1, mu 1..l-1, the others 1..l
_POSITIONS = {
    "eta": ((1, 2, 3), (-1, 0, 4, 5)),
    "eps": ((1, 2), (-1, 0, 3, 4)),
    "mu": ((1,), (-1, 0, 2, 3)),
    "antipode": ((1, 2), (-1, 0, 3, 4)),
    "delta": ((1, 2), (-1, 0, 3, 4)),
}


@pytest.mark.parametrize("gen", sorted(_POSITIONS))
def test_catass_act_rejects_positions_the_arc_action_rejects(gen):
    fom = FiberOrderedMap(2, 2, ((1, 2), ()))
    key, _sign = dg.canonicalize(dg.Diagram([0, 1], [], [(0, 1, ())]))
    glued = glue(fom, key)
    valid, invalid = _POSITIONS[gen]
    for pos in valid:
        assert all(image.source == 2 for _coeff, image in catass_act(gen, pos, fom))
        ar.gr_act(gen, pos, glued)
    for pos in invalid:
        with pytest.raises(ar.ArityMismatch, match="^%s position out of range$" % gen):
            catass_act(gen, pos, fom)
        with pytest.raises(ar.ArityMismatch, match="^%s position out of range$" % gen):
            ar.gr_act(gen, pos, glued)


def test_catass_act_rejects_an_unknown_generator():
    with pytest.raises(ValueError, match="^unknown generator 'nu'$"):
        catass_act("nu", 1, FiberOrderedMap(0, 1, ((),)))


def test_verify_bridge_cells():
    for l in (1, 2, 3):
        assert verify_bridge(1, TRIVIAL_ALPHABET, l)["pass"]
    for l in (1, 2):
        assert verify_bridge(1, GEN11, l)["pass"]
    assert verify_bridge(2, TRIVIAL_ALPHABET, 2)["pass"]


@pytest.mark.parametrize("d, l, dim", [(3, 1, 3), (3, 2, 23), (3, 3, 111), (4, 1, 6)])
def test_verify_bridge_reach_cells(d, l, dim):
    # exhaustive, past the d <= 2 cells above
    report = verify_bridge(d, TRIVIAL_ALPHABET, l)
    assert report["pass"]
    assert report["checks"][1] == {"name": "glue_surjective", "pass": True,
                                   "counterexample": repr((dim, dim))}


def test_verify_filtration_cells():
    assert verify_filtration(1, TRIVIAL_ALPHABET, 2, 0)
    assert verify_filtration(1, GEN11, 2, 2)  # both sides zero at t = 2d
    assert verify_filtration(2, TRIVIAL_ALPHABET, 2, 2)


def test_degree_two_matches_known_schur_decomposition():
    # the beadless degree-2 functor decomposes as S(4)+S(2,2)+S(1,1,1)+S(2)
    from beadiag.reference import schur_dim

    for m in (1, 2, 3, 4, 5):
        expect = sum(
            schur_dim(lam, m) for lam in ((4,), (2, 2), (1, 1, 1), (2,))
        )
        assert alpha_dim(2, TRIVIAL_ALPHABET, m) == expect


def test_degree_three_dimension_bridge():
    # the two pipelines agree at degree 3 as well
    assert ar.a_space(0, 1, 3, TRIVIAL_ALPHABET).dim(0) == alpha_dim(
        3, TRIVIAL_ALPHABET, 1
    ) == 3
    assert ar.a_space(0, 2, 3, TRIVIAL_ALPHABET).dim(0) == alpha_dim(
        3, TRIVIAL_ALPHABET, 2
    ) == 23
