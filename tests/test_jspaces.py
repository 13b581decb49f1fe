import os
import subprocess
import sys
from fractions import Fraction

import pytest

from beadiag import diagrams as dg
from beadiag.jspaces import (
    ClosureDiverged,
    closure,
    ihx_relations,
    j_space,
    vector_is_zero_in_full_space,
)
from beadiag.words import TRIVIAL_ALPHABET, alphabet_from_spec

from reference_helpers import key_degree, quotient_dim

GEN11 = alphabet_from_spec("gen:1:1")


def test_ihx_of_strut_is_empty():
    key = dg.enumerate_diagrams(1, 2, TRIVIAL_ALPHABET)[0]
    assert ihx_relations(key) == []


def test_ihx_of_h_shape():
    # two tripods joined by one internal edge: 6 vertices, so degree 3
    dia = dg.Diagram(
        [0, 1, 2, 3],
        [(4, 5, 6), (7, 8, 9)],
        [(0, 4, ()), (1, 5, ()), (2, 7, ()), (3, 8, ()), (6, 9, ())],
    )
    key, _ = dg.canonicalize(dia)
    rels = ihx_relations(key)
    assert len(rels) == 1
    (rel,) = rels
    # three terms: the H/I/X wirings of the four strands
    assert len(rel) == 3
    assert all(key_degree(k) == 3 and dg.key_num_legs(k) == 4 for k in rel)
    assert sorted(abs(c) for c in rel.values()) == [1, 1, 1]
    # the relation itself is zero in the quotient
    assert vector_is_zero_in_full_space(rel)


def test_closure_examples():
    matchings = dg.enumerate_diagrams(2, 4, TRIVIAL_ALPHABET)
    assert closure(matchings[:1], []) == (matchings[0],)  # struts have no IHX sites
    assert closure([], []) == ()
    bubble = dg.enumerate_diagrams(2, 2, TRIVIAL_ALPHABET)
    clo = closure(bubble, [])
    assert set(bubble) <= set(clo)
    assert closure(clo, []) == clo  # fixpoint


def test_j_space_paper_dims():
    assert j_space(1, 2, TRIVIAL_ALPHABET).dimension == 1
    assert j_space(1, 1, TRIVIAL_ALPHABET).dimension == 0
    assert j_space(1, 1, GEN11).dimension == 1
    assert j_space(2, 4, TRIVIAL_ALPHABET).dimension == 3


def test_j_space_vanishes_beyond_two_d_legs():
    for d in (1, 2):
        assert j_space(d, 2 * d + 1, TRIVIAL_ALPHABET).dimension == 0
        assert j_space(d, 2 * d + 1, GEN11).dimension == 0


def test_dimension_stability_under_seed_enlargement():
    # adding closure members to the seeds never changes the dimension
    space = j_space(2, 2, TRIVIAL_ALPHABET)
    seeds = dg.enumerate_diagrams(2, 2, TRIVIAL_ALPHABET)
    enlarged = closure(list(space.span) + seeds, [])
    rels = []
    for key in enlarged:
        rels.extend(ihx_relations(key))
    dim = quotient_dim([{k: Fraction(1)} for k in enlarged], rels)
    assert dim == space.dimension


@pytest.mark.parametrize(
    "d,m,spec",
    [(d, m, "trivial") for d in range(4) for m in range(2 * d + 2)]
    + [(d, m, "gen:1:1") for d in range(2) for m in range(2 * d + 2)],
)
def test_dimension_is_span_minus_relation_rank(d, m, spec):
    # j_space reads the dimension off the echelon rank; check it against the
    # raw IHX relations of every span key
    space = j_space(d, m, alphabet_from_spec(spec))
    rels = [rel for key in space.span for rel in ihx_relations(key)]
    assert space.dimension == quotient_dim([{k: Fraction(1)} for k in space.span], rels)


def test_quotient_reduce_kills_relations():
    space = j_space(2, 3, TRIVIAL_ALPHABET)
    for key in space.span:
        for rel in ihx_relations(key):
            assert not space.reduce(rel)


def test_beaded_closure_divergence_is_reported():
    # with nontrivial beads and internal edges, rewiring recombines
    # holonomies into ever longer products; this must fail loudly, saying
    # which space diverged and how far the closure got
    message = ("J_2(2) over gen:1:1: relation closure produced a bead longer than 128 letters"
               " after reaching 265 keys, with 137 still waiting to be expanded")
    with pytest.raises(ClosureDiverged) as caught:
        j_space(2, 2, GEN11)
    assert str(caught.value) == message
    # one line from the CLI, exit 2, the same text under two hash seeds
    for seed in ("0", "4242"):
        proc = subprocess.run(
            [sys.executable, "-m", "beadiag.cli", "dim-j", "--d", "2", "--m", "2",
             "--alphabet", "gen:1:1"],
            capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: %s\n" % message)
