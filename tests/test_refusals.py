"""Library refusals that neither the other tests nor the CLI reach: each
raises its exception type with its one-line message."""

import re

import pytest

from beadiag import arcs as ar
from beadiag import diagrams as dg
from beadiag.catlie import mu_action
from beadiag.reference import b_di_dim
from beadiag.words import BeadAlphabet, TRIVIAL_ALPHABET, alphabet_closure, alphabet_from_spec

STRUT = dg.Diagram([0, 1], [], [(0, 1, ())])
ONE_ARC_KEY = ar.enumerate_arc_diagrams(1, 1, TRIVIAL_ALPHABET)[0]
TWO_LEG_KEY = next(iter(dg.enumerate_diagrams(1, 2, TRIVIAL_ALPHABET)))

CASES = [
    ("unknown arc item", lambda: ar.arc_canonicalize([[("leg", 1), ("knot", 2)]], STRUT),
     ValueError, "arc item kind must be 'bead' or 'leg'"),
    ("arc legs outside 1..U", lambda: ar.arc_canonicalize([[("leg", 1), ("leg", 3)]], STRUT),
     ar.ArityMismatch, "arc legs must reference the dashed legs 1..2 exactly once"),
    ("arc leg twice", lambda: ar.arc_canonicalize([[("leg", 1)], [("leg", 1)]], STRUT),
     ar.ArityMismatch, "arc legs must reference the dashed legs 1..2 exactly once"),
    ("alphabet above rank", lambda: ar.a_space(0, 1, 1, alphabet_from_spec("gen:1:1")),
     ValueError, "alphabet uses generators beyond rank 0"),
    ("bare arc before 1", lambda: ar.insert_bare_arc(ONE_ARC_KEY, 0),
     ar.ArityMismatch, "insertion position out of range"),
    ("bare arc past m + 1", lambda: ar.insert_bare_arc(ONE_ARC_KEY, 3),
     ar.ArityMismatch, "insertion position out of range"),
    ("mu on another arity", lambda: mu_action(1, {TWO_LEG_KEY: 1}, 3),
     ValueError, "vector not supported in arity 3"),
    ("b_di_dim below degree 0", lambda: b_di_dim(-1, 0, 1),
     ValueError, "d and m must be >= 0"),
    ("b_di_dim below rank 0", lambda: b_di_dim(1, 0, -1),
     ValueError, "d and m must be >= 0"),
    ("b_di_dim past 2d", lambda: b_di_dim(1, 3, 1),
     ValueError, "need 0 <= i <= 2d"),
    ("b_di_dim below i = 0", lambda: b_di_dim(1, -1, 1),
     ValueError, "need 0 <= i <= 2d"),
    ("closure depth below 0", lambda: alphabet_closure([((1, 1),)], -1),
     ValueError, "depth must be >= 0"),
    ("rank below generators", lambda: BeadAlphabet([((2, 1),), ((2, -1),)], rank=1),
     ValueError, "rank 1 too small for alphabet generators"),
]


@pytest.mark.parametrize("call, error, message",
                         [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_the_library_refuses_with_its_message(call, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        call()
