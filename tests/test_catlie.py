import itertools
from fractions import Fraction

import pytest

from beadiag import diagrams as dg
from beadiag.catlie import (
    mu_action,
    mu_sum,
    mu_transform,
    outer_check,
    outer_quotient,
    perm_action,
)
from beadiag.jspaces import j_space
from beadiag.linalg import vec
from beadiag.words import TRIVIAL_ALPHABET, Word, alphabet_from_spec

from reference_helpers import (
    check_jacobi,
    check_mu_well_defined,
    key_num_tri,
    truncate,
    vector_is_zero_in_full_space,
)

GEN11 = alphabet_from_spec("gen:1:1")


def unit(key):
    return {key: Fraction(1)}


def strut_key(bead="1"):
    d = dg.Diagram([0, 1], [], [(0, 1, (Word.parse(bead),))])
    key, sign = dg.canonicalize(d)
    return key, sign


def test_perm_action_identity_and_symmetric_strut():
    key, _ = strut_key()
    ident = {1: 1, 2: 2}
    assert perm_action(ident, unit(key)) == unit(key)
    swap = {1: 2, 2: 1}
    assert perm_action(swap, unit(key)) == unit(key)


def test_perm_action_inverts_strut_bead():
    key, sign = strut_key("x1")
    kinv, sinv = strut_key("x1^-1")
    swap = {1: 2, 2: 1}
    got = perm_action(swap, {key: Fraction(sign)})
    assert got == {kinv: Fraction(sinv)}


def test_mu_on_beadless_strut_is_zero():
    key, _ = strut_key()
    assert mu_action(1, unit(key), 2) == {}


def test_mu_on_beaded_strut_is_beaded_tadpole():
    key, sign = strut_key("x1")
    img = mu_action(1, {key: Fraction(sign)}, 2)
    assert len(img) == 1
    ((tkey, coeff),) = img.items()
    assert dg.key_num_legs(tkey) == 1 and key_num_tri(tkey) == 1
    # the class with bead w equals minus the class with bead w^-1
    dinv = dg.Diagram(
        [0], [(1, 2, 3)], [(0, 1, ()), (2, 3, (Word.parse("x1^-1"),))]
    )
    kinv, sinv = dg.canonicalize(dinv)
    assert kinv == tkey
    assert not vector_is_zero_in_full_space({tkey: Fraction(1)})


def test_mu_transform_examples():
    trivial = mu_transform(1, 1, TRIVIAL_ALPHABET)
    assert list(trivial) == list(j_space(1, 2, TRIVIAL_ALPHABET).free_keys)
    assert not any(trivial.values())
    assert any(mu_transform(1, 1, GEN11).values())
    # source space J_d(k+1) = 0 for k >= 2d
    for d, k in ((1, 2), (2, 4)):
        assert mu_transform(d, k, TRIVIAL_ALPHABET) == {}


def test_outer_checks():
    for d in range(5):
        assert outer_check(d, TRIVIAL_ALPHABET) == (True, None), d
    verdict, witness = outer_check(1, GEN11)
    assert verdict is False
    k, source, image = witness
    assert k == 1 and dg.key_num_legs(source) == 2
    assert image  # beaded tadpole class


def test_outer_check_d2_beaded_witness():
    # two struts, one carrying a nontrivial bead: summed gluing is nonzero
    w = Word.parse("x1")
    dia = dg.Diagram(
        [0, 1, 2, 3], [], [(0, 2, (w,)), (1, 3, ())]
    )
    key, sign = dg.canonicalize(dia)
    img = mu_sum({key: Fraction(sign)}, 4)
    assert not vector_is_zero_in_full_space(img)


def test_mu_sum_rebuilds_each_key_once(monkeypatch):
    # the source keys of outer_check(3) and outer_check(4); summing mu_action
    # over the gluing positions made 2,075 rebuild calls for these 370 keys
    keys = [(key, k + 1) for d in (3, 4) for k in range(2 * d)
            for key in j_space(d, k + 1, TRIVIAL_ALPHABET).free_keys]
    expected = [vec(p for i in range(1, arity) for p in mu_action(i, unit(key), arity).items())
                for key, arity in keys]
    rebuilt = []
    rebuild = dg.rebuild
    monkeypatch.setattr(dg, "rebuild", lambda key: rebuilt.append(key) or rebuild(key))
    assert [mu_sum(unit(key), arity) for key, arity in keys] == expected
    assert rebuilt == [key for key, _arity in keys]
    assert len(keys) == 370


def test_outer_quotient_examples():
    assert outer_quotient(1, 1, GEN11) == 0
    assert outer_quotient(1, 2, GEN11) == j_space(1, 2, GEN11).dimension
    for d, alphabet in ((1, GEN11), (2, TRIVIAL_ALPHABET)):
        assert outer_quotient(d, 2 * d, alphabet) == j_space(d, 2 * d, alphabet).dimension


@pytest.mark.parametrize("spec", ["gen:1:1", "gen:2:1", "gen:1:2"])
def test_mu_images_outside_the_target_span_are_refused(spec):
    # the mu images of beaded J_2(4) leave the span of J_2(3); reduced by
    # its rows anyway they gave cokernels of dimension -4 (gen:2:1) and -3
    # (gen:1:2)
    alphabet = alphabet_from_spec(spec)
    for compute in (mu_transform, outer_quotient):
        with pytest.raises(ValueError, match=r"leaves the span of J_2\(3\) over " + spec):
            compute(2, 3, alphabet)


def test_truncate_matches_j_space():
    dims = truncate(2, 2, TRIVIAL_ALPHABET)
    for k, val in dims.items():
        expect = j_space(2, k, TRIVIAL_ALPHABET).dimension if k <= 2 else 0
        assert val == expect


def test_mu_equivariance_under_label_fixing_perms():
    # permutations fixing the glued pair commute with the gluing
    space = j_space(2, 3, TRIVIAL_ALPHABET)
    sigma = {1: 1, 2: 2, 3: 3}  # only the identity fixes {1,3} pointwise here
    for key in space.free_keys:
        lhs = mu_action(1, perm_action(sigma, unit(key)), 3)
        rhs = perm_action({1: 1, 2: 2}, mu_action(1, unit(key), 3))
        assert lhs == rhs
    # a permutation of the untouched legs conjugates correctly
    space4 = j_space(2, 4, TRIVIAL_ALPHABET)
    sigma = {1: 1, 2: 3, 3: 2, 4: 4}  # swaps legs 2,3; fixes glued pair {1,4}
    tau = {1: 1, 2: 3, 3: 2}
    for key in space4.free_keys:
        lhs = mu_action(1, perm_action(sigma, unit(key)), 4)
        rhs = perm_action(tau, mu_action(1, unit(key), 4))
        diff = dict(lhs)
        for k, c in rhs.items():
            s = diff.get(k, 0) - c
            if s:
                diff[k] = s
            else:
                diff.pop(k, None)
        assert vector_is_zero_in_full_space(diff)


def test_as_at_the_glued_vertex():
    # swapping the two glued legs negates the gluing
    for alphabet, d in ((TRIVIAL_ALPHABET, 2), (GEN11, 1)):
        space = j_space(d, 2 * d, alphabet)
        arity = 2 * d
        swap = {i: i for i in range(1, arity + 1)}
        swap[1], swap[arity] = arity, 1
        for key in space.free_keys:
            lhs = mu_action(1, perm_action(swap, unit(key)), arity)
            rhs = {k: -c for k, c in mu_action(1, unit(key), arity).items()}
            diff = dict(lhs)
            for k, c in rhs.items():
                s = diff.get(k, 0) - c
                if s:
                    diff[k] = s
                else:
                    diff.pop(k, None)
            assert vector_is_zero_in_full_space(diff)


def test_jacobi_identity_of_gluing():
    assert check_jacobi(2, TRIVIAL_ALPHABET, 3)["pass"]
    assert check_jacobi(2, TRIVIAL_ALPHABET, 4)["pass"]
    assert check_jacobi(3, TRIVIAL_ALPHABET, 4)["pass"]


def test_mu_well_defined_on_quotients():
    assert check_mu_well_defined(2, TRIVIAL_ALPHABET, 2)["pass"]
    assert check_mu_well_defined(2, TRIVIAL_ALPHABET, 3)["pass"]


def test_mu_surjectivity_at_low_arity_trivial_beads():
    # iterated gluings from the top arity span every lower arity (d = 2)
    d = 2
    top = j_space(d, 2 * d, TRIVIAL_ALPHABET)
    vectors = {2 * d: [unit(k) for k in top.free_keys]}
    for c in range(2 * d, 1, -1):
        downs = []
        perms = [dict(zip(range(1, c + 1), p)) for p in itertools.permutations(range(1, c + 1))]
        for v in vectors[c]:
            for sigma in perms:
                moved = perm_action(sigma, v)
                for i in range(1, c):
                    downs.append(mu_action(i, moved, c))
        vectors[c - 1] = downs
    for k1 in range(1, 2 * d):
        space = j_space(d, k1, TRIVIAL_ALPHABET)
        from beadiag.linalg import echelonize

        rank = echelonize([space.reduce(v) for v in vectors[k1]]).rank
        assert rank == space.dimension


def test_mu_errors():
    key, _ = strut_key()
    with pytest.raises(ValueError):
        mu_action(2, unit(key), 2)
