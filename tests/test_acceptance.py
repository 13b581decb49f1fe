"""Acceptance criteria: one test per criterion, exact values, timed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with its elapsed time against the stated budget.
"""

import random
import time
from fractions import Fraction

from beadiag import arcs as ar
from beadiag import diagrams as dg
from beadiag.bridge import verify_bridge, verify_filtration
from beadiag.catlie import mu_sum, outer_check
from beadiag.jspaces import j_space
from beadiag.laws import check_gr_laws
from beadiag.reference import a11_reference_dim, b_d0_reference, b_di_dim
from beadiag.words import TRIVIAL_ALPHABET, Word, alphabet_from_spec

from move_fuzzer import random_arc_moves, random_move_sequence, seed_diagrams
from reference_helpers import (
    check_jacobi,
    homotopy_class,
    homotopy_class_raw,
    rebuild_arc,
    vector_is_zero_in_full_space,
)

GEN11 = alphabet_from_spec("gen:1:1")


def _report(name, ok, t0, budget):
    elapsed = time.time() - t0
    print("[%s] %s (%.1fs, budget %ds)" % ("PASS" if ok else "FAIL", name, elapsed, budget))
    assert ok, name
    assert elapsed < budget, "%s exceeded budget: %.1fs" % (name, elapsed)


def test_criterion_1_base_dimensions():
    t0 = time.time()
    ok = (
        j_space(1, 2, TRIVIAL_ALPHABET).dimension == 1
        and j_space(1, 1, TRIVIAL_ALPHABET).dimension == 0
    )
    _report("1: dim J_1(2)=1 and dim J_1(1)=0 over the trivial alphabet", ok, t0, 1)


def test_criterion_2_degree_one_arc_dimensions():
    t0 = time.time()
    ok = all(
        ar.a_space(0, m, 1, TRIVIAL_ALPHABET).dim(0) == m * (m + 1) // 2
        for m in (1, 2, 3, 4)
    )
    _report("2: dim A_1(0,m)_0 = m(m+1)/2 for m=1..4 via STU", ok, t0, 10)


def test_criterion_3_outer_for_trivial_beads():
    t0 = time.time()
    ok = all(outer_check(d, TRIVIAL_ALPHABET) == (True, None) for d in (1, 2, 3))
    _report("3: outer check holds for d=1,2,3 over the trivial alphabet", ok, t0, 600)


def test_criterion_4_beaded_witnesses():
    t0 = time.time()
    verdict, witness = outer_check(1, GEN11)
    ok = verdict is False and witness is not None
    if ok:
        _k, _src, image = witness
        tadpole = dg.Diagram(
            [0], [(1, 2, 3)], [(0, 1, ()), (2, 3, (Word.parse("x1^-1"),))]
        )
        tkey, _ = dg.canonicalize(tadpole)
        ok = set(image) == {tkey}
    # degree-2 witness: two struts, one bead w1 != 1
    dia = dg.Diagram([0, 1, 2, 3], [], [(0, 2, (Word.parse("x1"),)), (1, 3, ())])
    key, sign = dg.canonicalize(dia)
    img = mu_sum({key: Fraction(sign)}, 4)
    ok = ok and not vector_is_zero_in_full_space(img)
    _report("4: beaded-tadpole witness at d=1 and two-strut witness at d=2", ok, t0, 60)


def test_criterion_5_cross_effects():
    t0 = time.time()
    # class-0 families: n = 0 (trivial beads) and n = 1 (gen:1:1 beads)
    ok = ar.cross_effect_dim(ar.FunctorSpec(0, 1, TRIVIAL_ALPHABET, True), 3) == 0
    ok = ok and ar.cross_effect_dim(ar.FunctorSpec(1, 1, GEN11, True), 3) == 0
    _key, reduced = ar.nonpoly_witness(1, 1, 3, GEN11)
    ok = ok and bool(reduced)
    _report(
        "5: cr_3 vanishes for class-0 at n<=1 and the full functor's witness is nonzero",
        ok,
        t0,
        300,
    )


def test_criterion_6_bridge():
    t0 = time.time()
    ok = True
    for l in (1, 2, 3):
        ok = ok and verify_bridge(1, TRIVIAL_ALPHABET, l)["pass"]
    for l in (1, 2):
        ok = ok and verify_bridge(1, GEN11, l)["pass"]
    for l in (1, 2, 3):
        ok = ok and verify_bridge(2, TRIVIAL_ALPHABET, l)["pass"]
    _report("6: bridge verification (dims, IHX images, surjectivity, "
            "coequalizer, naturality)", ok, t0, 900)


def test_criterion_7_filtration():
    t0 = time.time()
    ok = True
    for d in (1, 2):
        for t in range(0, 2 * d + 1):
            for l in (1, 2, 3):
                ok = ok and verify_filtration(d, TRIVIAL_ALPHABET, l, t)
    _report("7: truncation/filtration correspondence for d<=2, t<=2d, l<=3", ok, t0, 600)


def test_criterion_8_schur_decomposition():
    t0 = time.time()
    ok = all(b_di_dim(2, 0, m) == b_d0_reference(2, m) for m in (1, 2, 3))
    ok = ok and b_d0_reference(2, 2) == 6 and b_d0_reference(2, 3) == 21
    _report("8: top graded piece matches the doubled-partition Schur sum", ok, t0, 120)


def test_criterion_9_a11():
    t0 = time.time()
    ok = True
    for alphabet in (TRIVIAL_ALPHABET, GEN11):
        for m in (1, 2, 3):
            lhs = a11_reference_dim(alphabet, m)
            rhs = ar.a_space(alphabet.rank, m, 1, alphabet).dim(0)
            ok = ok and lhs == rhs
    _report("9: degree-one arc dims match the dual quadratic-quotient model", ok, t0, 300)


def test_criterion_10_property_suites():
    t0 = time.time()
    rng = random.Random(20240)
    # (i) canonicalization move-invariance: >= 10^4 random move sequences
    seeds = seed_diagrams(GEN11, cells=((1, 1), (1, 2), (2, 2), (2, 3), (2, 4)))
    mismatches = 0
    for _ in range(10000):
        base = rng.choice(seeds)
        key, sign = dg.canonicalize(base)
        moved, tracked = random_move_sequence(rng, base, GEN11, moves=6)
        key2, sign2 = dg.canonicalize(moved)
        if key2 != key or sign2 != tracked * sign:
            mismatches += 1
    ok = mismatches == 0
    # (ii) functor laws including the antipode axiom, m <= 3, d <= 2
    for d in (1, 2):
        for m in (1, 2, 3):
            ok = ok and check_gr_laws(d, TRIVIAL_ALPHABET, m)["pass"]
    ok = ok and check_gr_laws(1, GEN11, 2)["pass"]
    # (iii) bracket identity of the gluing action
    ok = ok and check_jacobi(2, TRIVIAL_ALPHABET, 3)["pass"]
    ok = ok and check_jacobi(2, TRIVIAL_ALPHABET, 4)["pass"]
    # (iv) homotopy-class invariance under STU and the local moves
    space = ar.a_space(1, 2, 1, GEN11, class0=False)
    for key in space.span:
        for rel in ar.stu_relations(key):
            classes = {homotopy_class(k) for k in rel}
            ok = ok and len(classes) == 1
    for _ in range(500):
        key = rng.choice(list(space.span))
        arcs, dashed = rebuild_arc(key)
        arcs2, dashed2, _sign = random_arc_moves(rng, arcs, dashed, GEN11, moves=6)
        ok = ok and homotopy_class_raw(arcs2) == homotopy_class(key)
        key2, _s = ar.arc_canonicalize(arcs2, dashed2)
        ok = ok and key2 == key
    _report("10: move fuzzer, functor laws, bracket identity, class invariance",
            ok, t0, 600)


def test_criterion_11_degree_zero_counts():
    t0 = time.time()
    ok = True
    for n in (1, 2):
        alphabet = alphabet_from_spec("gen:%d:2" % n)
        for m in (1, 2):
            dim = ar.a_space(n, m, 0, alphabet, class0=False).dim(0)
            ok = ok and dim == len(alphabet) ** m
    _report("11: degree-zero dimensions count alphabet tuples", ok, t0, 60)
