import functools
import random
from fractions import Fraction

import pytest

from beadiag import arcs as ar
from beadiag import diagrams as dg
from beadiag import laws
from beadiag.bridge import verify_bridge
from beadiag.jspaces import ClosureDiverged
from beadiag.laws import check_gr_laws, check_hopf_antipode
from beadiag.words import IDENTITY, TRIVIAL_ALPHABET, Word, alphabet_from_spec

from move_fuzzer import random_arc_moves
from reference_helpers import (
    arc_key_counts,
    arc_key_degree,
    arc_key_is_class0,
    epsilon_embed,
    grown_arc_closure,
    homotopy_class,
    homotopy_class_raw,
    ihx_relations_arc,
    rebuild_arc,
    unglue_neighbours,
)

GEN11 = alphabet_from_spec("gen:1:1")


def two_leg_strut(bead="1"):
    return dg.Diagram([0, 1], [], [(0, 1, (Word.parse(bead),))])


def unit(key):
    return {key: Fraction(1)}


def test_arc_canonicalize_pushes_beads_to_start():
    w, x = Word.parse("x1"), Word.parse("x1^-1")
    dashed = two_leg_strut()
    # both legs on one arc, beads scattered: [w, leg1, x, leg2]
    arcs = [[("bead", w.letters), ("leg", 1), ("bead", x.letters), ("leg", 2)]]
    key, sign = ar.arc_canonicalize(arcs, dashed)
    assert key is not ar.ZERO
    m, beads, counts, dkey = key
    assert m == 1 and counts == (2,)
    assert beads == (IDENTITY,)  # w * x = 1: class 0
    # same class as sliding the beads off by hand
    assert homotopy_class(key) == (Word(),)


def test_bead_one_removed_and_bare_arc():
    dashed = two_leg_strut()
    arcs = [[("leg", 1), ("bead", ()), ("leg", 2)], [("bead", ())]]
    key, _ = ar.arc_canonicalize(arcs, dashed)
    m, beads, counts, dkey = key
    assert m == 2 and counts == (2, 0) and beads == (IDENTITY, IDENTITY)


def test_homotopy_class_examples():
    w, x = Word.parse("x1"), Word.parse("x1")
    dashed = two_leg_strut()
    arcs = [[("bead", w.letters), ("leg", 1), ("bead", x.letters), ("leg", 2)]]
    assert homotopy_class_raw(arcs) == (Word.parse("x1^2"),)
    key, _ = ar.arc_canonicalize(arcs, dashed)
    assert homotopy_class(key) == (Word.parse("x1^2"),)
    # class-0 canonical forms carry no arc beads
    arcs0 = [[("bead", w.letters), ("leg", 1), ("bead", w.inverse().letters), ("leg", 2)]]
    key0, _ = ar.arc_canonicalize(arcs0, dashed)
    assert arc_key_is_class0(key0)


def test_arc_move_fuzzer_canonical_and_class_invariance():
    rng = random.Random(99)
    space = ar.a_space(1, 2, 1, GEN11, class0=False)
    seeds = list(space.span)[:20]
    for _ in range(250):
        key = rng.choice(seeds)
        arcs, dashed = rebuild_arc(key)
        expected_class = homotopy_class(key)
        arcs2, dashed2, sign = random_arc_moves(rng, arcs, dashed, GEN11, moves=8)
        key2, s2 = ar.arc_canonicalize(arcs2, dashed2)
        assert key2 == key
        assert s2 == sign
        assert homotopy_class_raw(arcs2) == expected_class


def test_stu_relation_shape():
    # strut with both legs adjacent on one arc: T - U - S with S the tadpole
    dashed = two_leg_strut("x1")
    arcs = [[("leg", 1), ("leg", 2)]]
    key, sign = ar.arc_canonicalize(arcs, dashed)
    rels = ar.stu_relations(key)
    assert len(rels) == 1
    (rel,) = rels
    tri_counts = sorted(ar.arc_key_trivalents(k) for k in rel)
    assert tri_counts == [0, 0, 1]  # T, U and the glued tripod term
    classes = {homotopy_class(k) for k in rel}
    assert len(classes) == 1  # STU preserves the homotopy class


def test_stu_none_for_single_legs():
    dashed = two_leg_strut()
    arcs = [[("leg", 1)], [("leg", 2)]]
    key, _ = ar.arc_canonicalize(arcs, dashed)
    assert ar.stu_relations(key) == []


def test_stu_closure_fixpoint():
    dashed = two_leg_strut("x1")
    arcs = [[("leg", 1), ("leg", 2)]]
    key, _ = ar.arc_canonicalize(arcs, dashed)
    # the library refuses a key set that one of its STU relations leaves,
    # naming the least key outside it; the oracle grows it instead
    outside = "^a relation reaches a key outside the span$"
    with pytest.raises(ClosureDiverged, match=outside) as caught:
        ar.arc_closure([key], [])
    clo = grown_arc_closure([key], [])
    assert key in clo and caught.value.key in clo
    assert caught.value.key == min(k for k in ar.stu_relations(key)[0] if k != key)
    assert grown_arc_closure(clo, []) == clo
    rels = []
    assert ar.arc_closure(clo, rels) == clo
    assert rels == [rel for k in clo for rel in ar.stu_relations(k)]
    # every relation and every ungluing of a member stays inside the closure
    for k in clo:
        for rel in ar.stu_relations(k) + ihx_relations_arc(k):
            assert set(rel) <= set(clo)
        assert set(unglue_neighbours(k)) <= set(clo)


def test_zero_test_refuses_a_vector_outside_the_span():
    # the bead x1*x1 lies outside gen:1:1, so this STU relation and its key
    # leave the cached a_space's span, where its rows cannot decide zero
    dashed = two_leg_strut("x1*x1")
    key, _ = ar.arc_canonicalize([[("leg", 1), ("leg", 2)]], dashed)
    (rel,) = ar.stu_relations(key)
    for vector in (rel, unit(key)):
        with pytest.raises(ValueError, match="leaves the span of class-0 A_1 on 1 arcs over gen:1:1"):
            ar._is_zero_in_full_space(vector, 1, GEN11)
        with pytest.raises(ValueError, match="leaves the span"):
            ar.a_space(1, 1, 1, GEN11).reduce(vector)


def test_a_space_dims_degree_one():
    for m in (1, 2, 3, 4):
        assert ar.a_space(0, m, 1, TRIVIAL_ALPHABET).dim(0) == m * (m + 1) // 2
    assert ar.a_space(0, 2, 1, TRIVIAL_ALPHABET).dim(1) == 0
    assert ar.a_space(0, 2, 1, TRIVIAL_ALPHABET).dim(2) == 0


def test_a_space_degree_zero_counts_tuples():
    for n in (1, 2):
        alphabet = alphabet_from_spec("gen:%d:2" % n)
        for m in (1, 2):
            space = ar.a_space(n, m, 0, alphabet, class0=False)
            assert space.dim(0) == len(alphabet) ** m


def test_gr_act_examples():
    space = ar.a_space(0, 2, 1, TRIVIAL_ALPHABET)
    key = space.span[0]
    v = unit(key)
    m = 2
    # eta adds a bare arc; eps deletes it again
    up = ar.gr_act("eta", 1, v)
    assert len(up) == 1 and next(iter(up))[0] == m + 1
    assert ar.gr_act("eps", 1, up) == v
    # delta on an arc with k legs: 2^k terms (counted with multiplicity)
    both_on_one = next(k for k in space.span if arc_key_counts(k) == (2, 0))
    doubled = ar.gr_act("delta", 1, unit(both_on_one))
    assert sum(abs(c) for c in doubled.values()) == 4
    # eps kills arcs carrying a leg
    assert ar.gr_act("eps", 1, unit(both_on_one)) == {}


@pytest.mark.parametrize("gen, pos, error, match", [
    ("bogus", 1, ValueError, "unknown generator"),
    ("delta", 0, ar.ArityMismatch, "position out of range"),
])
def test_gr_act_refuses_a_bad_generator_or_position_on_the_zero_vector(gen, pos, error, match):
    # the same refusal as on a unit vector, whatever the vector holds
    key = ar.enumerate_arc_diagrams(1, 1, TRIVIAL_ALPHABET)[0]
    for vector in ({}, unit(key)):
        with pytest.raises(error, match=match):
            ar.gr_act(gen, pos, vector)
    # the top of a position's range depends on the arc count, which {} lacks
    assert ar.gr_act("delta", 5, {}) == {}


def test_gr_act_degree_and_trivalent_monotone():
    space = ar.a_space(0, 2, 2, TRIVIAL_ALPHABET)
    for key in space.span[:8]:
        for gen, pos in (("delta", 1), ("mu", 1), ("antipode", 2), ("eta", 2)):
            out = ar.gr_act(gen, pos, unit(key))
            for k2 in out:
                assert arc_key_degree(k2) == arc_key_degree(key)
                assert ar.arc_key_trivalents(k2) >= ar.arc_key_trivalents(key)


def test_gr_act_preserves_class_zero():
    space = ar.a_space(1, 2, 1, GEN11, class0=True)
    for key in space.span:
        for gen, pos in (("delta", 1), ("antipode", 1), ("mu", 1), ("eta", 1)):
            for k2 in ar.gr_act(gen, pos, unit(key)):
                assert arc_key_is_class0(k2)


def test_gr_laws_suites():
    assert check_gr_laws(1, TRIVIAL_ALPHABET, 1)["pass"]
    assert check_gr_laws(1, TRIVIAL_ALPHABET, 2)["pass"]
    assert check_gr_laws(1, TRIVIAL_ALPHABET, 3)["pass"]
    assert check_gr_laws(2, TRIVIAL_ALPHABET, 2)["pass"]
    assert check_gr_laws(1, GEN11, 2)["pass"]
    assert check_hopf_antipode(2, TRIVIAL_ALPHABET, 3)["pass"]


def _suite_reports(monkeypatch, memo, cells, suite=check_gr_laws):
    """``suite`` at the (d, m) cells over the trivial alphabet, with the
    number of ``_act_arc_key`` computations; ``memo`` stands in for
    functools.cache."""
    calls = 0
    act = ar._act_arc_key

    def counted(gen, pos, key):
        nonlocal calls
        calls += 1
        return act(gen, pos, key)

    monkeypatch.setattr(ar, "_act_arc_key", counted)
    monkeypatch.setattr(laws.functools, "cache", memo)
    reports = [suite(d, TRIVIAL_ALPHABET, m) for d, m in cells]
    monkeypatch.undo()
    return reports, calls


def test_gr_laws_take_each_generator_image_once_per_call(monkeypatch):
    # the same reports as acting afresh at every gr_act call, with one
    # computation per distinct (generator, position, key) of each call
    cells = [(2, m) for m in range(4)]
    reports, calls = _suite_reports(monkeypatch, functools.cache, cells)
    fresh_reports, fresh_calls = _suite_reports(monkeypatch, lambda f: f, cells)
    assert reports == fresh_reports
    assert all(report["pass"] for report in reports)
    assert calls <= 4987 < fresh_calls == 10930


def test_no_identity_leg_order_reaches_relabel_key(monkeypatch):
    # arcs._lift answers an identity order with the key itself, so the
    # bridge and the law suites ask the relabel_key memo only to move legs
    asked = []
    relabel_key = dg.relabel_key

    def recording(key, order):
        asked.append(order)
        return relabel_key(key, order)

    monkeypatch.setattr(dg, "relabel_key", recording)
    assert verify_bridge(2, TRIVIAL_ALPHABET, 3)["pass"]
    assert check_gr_laws(2, TRIVIAL_ALPHABET, 3)["pass"]
    assert asked
    assert [o for o in asked if o == tuple(range(1, len(o) + 1))] == []


def test_hopf_antipode_takes_each_generator_image_once_per_call(monkeypatch):
    # the antipode suite runs through the same memo as the gr-laws suite
    cells = [(2, 3)]
    reports, calls = _suite_reports(monkeypatch, functools.cache, cells, check_hopf_antipode)
    fresh_reports, fresh_calls = _suite_reports(
        monkeypatch, lambda f: f, cells, check_hopf_antipode)
    assert reports == fresh_reports
    assert reports[0]["pass"]
    assert calls <= 1230 < fresh_calls == 1446


def multilinear_sym2_dim(k):
    """Oracle: the multilinear component of Sym^2(K^k) has a basis x_i x_j
    with i < j covering all k variables; nonzero only for k <= 2."""
    if k == 1:
        return 1  # x_1^2 is not multilinear; cr_1 counts N(F_1) mod N(F_0)=0 -> 1
    if k == 2:
        return 1  # x_1 x_2
    return 0


def test_cross_effect_dims_match_sym2_oracle():
    spec = ar.FunctorSpec(n=0, d=1, alphabet=TRIVIAL_ALPHABET, class0=True)
    assert ar.cross_effect_dim(spec, 2) == multilinear_sym2_dim(2) == 1
    assert ar.cross_effect_dim(spec, 3) == multilinear_sym2_dim(3) == 0


def test_cross_effect_class0_beaded_vanishes_at_three():
    spec = ar.FunctorSpec(n=1, d=1, alphabet=GEN11, class0=True)
    assert ar.cross_effect_dim(spec, 3) == 0


def test_epsilon_embed():
    gen21 = alphabet_from_spec("gen:2:1")
    space1 = ar.a_space(1, 2, 1, GEN11)
    space2 = ar.a_space(2, 2, 1, gen21)
    for key in space1.span:
        assert epsilon_embed(unit(key), 1) == unit(key)
    assert space1.dim(0) <= space2.dim(0)
    with pytest.raises(ValueError):
        epsilon_embed(unit(space1.span[-1]), 0)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_nonpoly_witness_survives_past_twice_the_degree(k):
    # every arc after the two strut legs carries the bead: a bead-free bare
    # arc would make the class an insertion image, zero at k = 4 and 5
    key, reduced = ar.nonpoly_witness(1, 1, k, GEN11)
    assert arc_key_counts(key) == (1, 1) + (0,) * (k - 2)
    assert all(key[1][2:]) and reduced


def test_nonpoly_witness():
    key, reduced = ar.nonpoly_witness(1, 1, 3, GEN11)
    assert reduced  # nonzero class in the cokernel
    key0, reduced0 = ar.nonpoly_witness(1, 0, 1, GEN11)
    assert reduced0
    with pytest.raises(ValueError):
        ar.nonpoly_witness(0, 1, 3, TRIVIAL_ALPHABET)  # no nontrivial bead
    with pytest.raises(ValueError):
        ar.nonpoly_witness(1, 1, 2, GEN11)  # k < 2d+1


def test_insert_bare_arc_matches_eta():
    space = ar.a_space(1, 2, 1, GEN11, class0=False)
    for key in list(space.span)[:10]:
        for pos in (1, 2, 3):
            assert ar.gr_act("eta", pos, unit(key)) == unit(
                ar.insert_bare_arc(key, pos)
            )


def test_cross_effect_vanishes_above_twice_degree():
    # polynomiality of class-0 functors: the (d, n) = (2, 0) case
    spec = ar.FunctorSpec(n=0, d=2, alphabet=TRIVIAL_ALPHABET, class0=True)
    assert ar.cross_effect_dim(spec, 5) == 0


def test_gr_act_composes_homotopy_classes():
    space = ar.a_space(1, 2, 1, GEN11, class0=False)
    for key in list(space.span)[:12]:
        w1, w2 = homotopy_class(key)
        for k2 in ar.gr_act("mu", 1, unit(key)):
            assert homotopy_class(k2) == (w1 * w2,)
        for k2 in ar.gr_act("antipode", 1, unit(key)):
            assert homotopy_class(k2) == (w1.inverse(), w2)
        for k2 in ar.gr_act("delta", 2, unit(key)):
            assert homotopy_class(k2) == (w1, w2, w2)
        for k2 in ar.gr_act("eta", 2, unit(key)):
            assert homotopy_class(k2) == (w1, Word(), w2)


def test_epsilon_embed_commutes_with_gr_act():
    space = ar.a_space(1, 2, 1, GEN11)
    for key in space.span:
        v = unit(key)
        for gen, pos in (("delta", 1), ("mu", 1), ("antipode", 2)):
            lhs = epsilon_embed(ar.gr_act(gen, pos, v), 1)
            rhs = ar.gr_act(gen, pos, epsilon_embed(v, 1))
            assert lhs == rhs
