from fractions import Fraction

import pytest

from beadiag import arcs as ar
from beadiag import diagrams as dg
from beadiag.bridge import alpha_dim, coinvariant_dim, glue, verify_bridge, verify_filtration
from beadiag.jspaces import j_space
from beadiag.words import TRIVIAL_ALPHABET, Word, alphabet_from_spec

from reference_helpers import arc_key_counts, catass_act, oracle_leg_placements

GEN11 = alphabet_from_spec("gen:1:1")


def test_glue_examples():
    strut = dg.Diagram([0, 1], [], [(0, 1, ())])
    key, _ = dg.canonicalize(strut)
    # bijection onto two arcs
    (akey, coeff), = glue(((1,), (2,)), {key: 1}).items()
    assert arc_key_counts(akey) == (1, 1)
    # constant map with order 1 < 2
    (akey, coeff), = glue(((1, 2),), {key: 1}).items()
    assert arc_key_counts(akey) == (2,)
    # fibers that do not partition the legs: too many, repeated, missing, out of range
    for fibers in [((1, 2, 3),), ((1,), (1,)), ((1,), ()), ((2,),), ((1,), (3,))]:
        with pytest.raises(ar.ArityMismatch, match=r"^fibers must partition the legs 1\.\.2$"):
            glue(fibers, {key: 1})


def test_glue_is_the_raw_route_on_bare_arcs():
    # gluing relabels the legs in fiber order; the raw route places the
    # legs on bare arcs and canonicalizes the arc diagram
    cells = [(TRIVIAL_ALPHABET, d) for d in (1, 2)] + [(GEN11, 1)]
    pairs = 0
    for alphabet, d in cells:
        for c in range(2 * d + 1):
            for key in dg.enumerate_diagrams(d, c, alphabet):
                for l in range(4):
                    for fibers in oracle_leg_placements(c, l):
                        bare = [[("leg", lab) for lab in fiber] for fiber in fibers]
                        akey, sign = ar.arc_canonicalize(bare, dg.rebuild(key))
                        expect = {} if akey is ar.ZERO else {akey: Fraction(sign)}
                        assert glue(fibers, {key: 1}) == expect
                        pairs += 1
    assert pairs > 1000
    with pytest.raises(ar.ArityMismatch, match=r"^fibers must partition the legs 1\.\.2$"):
        glue(((3, 1, 2),), {key: Fraction(1)})


def test_glue_order_difference_is_the_glued_tree_mod_stu():
    # swapping the fiber order differs by the image of the gluing generator
    from beadiag.bridge import _mu_lifted_maps
    from beadiag import catlie as cl

    key, sign = dg.canonicalize(dg.Diagram([0, 1], [], [(0, 1, (Word.parse("x1"),))]))
    v = {key: Fraction(sign)}
    fibers = ((1,),)
    after, before = _mu_lifted_maps(fibers, 1)
    assert (after, before) == (((1, 2),), ((2, 1),))
    lhs = glue(after, {key: 1})
    for k, c in glue(before, {key: 1}).items():
        lhs[k] = lhs.get(k, 0) - c
        if not lhs[k]:
            del lhs[k]
    rhs = {}
    for k, c in cl.mu_action(1, v, 2).items():
        for k2, c2 in glue(fibers, {k: 1}).items():
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
        for fibers in sorted(oracle_leg_placements(3, 2))[:6]:
            # compose the map with sigma: fiber entries relabelled by sigma^-1
            inv = {v: k for k, v in sigma.items()}
            lhs = glue(tuple(tuple(inv[x] for x in f) for f in fibers), {key: 1})
            rhs = {}
            for k, c in perm_action(sigma, {key: Fraction(1)}).items():
                for k2, c2 in glue(fibers, {k: 1}).items():
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
    fibers = ((1, 2), ())
    (c1, up), = catass_act("eta", 1, fibers)
    assert up == ((), (1, 2), ())
    assert catass_act("eps", 1, fibers) == []
    (c2, down), = catass_act("eps", 2, fibers)
    assert down == ((1, 2),)
    (c3, merged), = catass_act("mu", 1, fibers)
    assert merged == ((1, 2),)
    (c4, rev), = catass_act("antipode", 1, fibers)
    assert rev == ((2, 1), ()) and c4 == 1
    assert len(catass_act("delta", 1, fibers)) == 4


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
    fibers = ((1, 2), ())
    key, _sign = dg.canonicalize(dg.Diagram([0, 1], [], [(0, 1, ())]))
    glued = glue(fibers, {key: 1})
    valid, invalid = _POSITIONS[gen]
    for pos in valid:
        assert all(sorted(sum(image, ())) == [1, 2]
                   for _coeff, image in catass_act(gen, pos, fibers))
        ar.gr_act(gen, pos, glued)
    for pos in invalid:
        with pytest.raises(ar.ArityMismatch, match="^%s position out of range$" % gen):
            catass_act(gen, pos, fibers)
        with pytest.raises(ar.ArityMismatch, match="^%s position out of range$" % gen):
            ar.gr_act(gen, pos, glued)


def test_catass_act_rejects_an_unknown_generator():
    with pytest.raises(ValueError, match="^unknown generator 'nu'$"):
        catass_act("nu", 1, ((),))


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
