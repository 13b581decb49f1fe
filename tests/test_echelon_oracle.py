"""Elimination against the in-order, all-Fraction route it replaced.

``oracle_vscale`` to ``oracle_quotient_dim`` below are the earlier
``linalg`` functions, kept verbatim as the oracle: every coefficient becomes
a ``Fraction`` on the way in, and ``echelonize`` inserts the vectors in the
order given.  The library keeps ``int`` coefficients wherever a pivot
divides them exactly and inserts the shortest vectors first.  The reduced
echelon form with smallest-key pivots is unique, so the rows must be equal as
dicts, with ``int`` or ``Fraction`` coefficients, on every space the tests
build and on random systems in any input order.
"""

import random
from fractions import Fraction

import pytest

from beadiag import arcs as ar
from beadiag import diagrams as dg
from beadiag.jspaces import closure, j_space
from beadiag.linalg import echelonize, vec
from beadiag.words import TRIVIAL_ALPHABET, alphabet_from_spec

from reference_helpers import quotient_dim

GEN11 = alphabet_from_spec("gen:1:1")


def oracle_vscale(u: dict, c) -> dict:
    c = Fraction(c)
    if not c:
        return {}
    return {key: coeff * c for key, coeff in u.items()}


def oracle_vaxpy(u: dict, c, v: dict) -> dict:
    """u + c*v, as a new dict."""
    c = Fraction(c)
    if not c:
        return dict(u)
    out = dict(u)
    for key, coeff in v.items():
        s = out.get(key, 0) + c * coeff
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


class OracleEchelonBasis:
    """Inter-reduced echelon rows of sparse vectors, pivoted on smallest keys."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = {}  # pivot key -> row vector (pivot coeff 1)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: dict) -> dict:
        """v minus its projection onto the row space; no support on pivots."""
        out = dict(v)
        # rows carry no other pivots in their support, so one pass suffices
        for pivot in sorted(set(out) & set(self.rows)):
            coeff = out.get(pivot)
            if coeff:
                out = oracle_vaxpy(out, -coeff, self.rows[pivot])
        return out

    def insert(self, v: dict) -> bool:
        """Add v to the span; returns True iff the rank grew."""
        r = self.reduce(v)
        if not r:
            return False
        pivot = min(r)
        r = oracle_vscale(r, Fraction(1) / r[pivot])
        for key, row in list(self.rows.items()):
            c = row.get(pivot)
            if c:
                self.rows[key] = oracle_vaxpy(row, -c, r)
        self.rows[pivot] = r
        return True


def oracle_echelonize(vectors) -> OracleEchelonBasis:
    """Echelonize a list of sparse vectors (row space preserved)."""
    basis = OracleEchelonBasis()
    for v in vectors:
        basis.insert(v)
    return basis


def oracle_quotient_dim(span, relations) -> int:
    basis = oracle_echelonize(relations)
    dim = 0
    for v in span:
        if basis.insert(v):
            dim += 1
    return dim


def assert_same_elimination(keys, rels):
    """The library and the oracle agree on the rows and the quotient
    dimension of a closed key set modulo its relations; returns the rows."""
    rows = echelonize(rels).rows
    expected = oracle_echelonize(rels).rows
    assert rows == expected
    assert set(rows) == set(expected)
    assert all(type(c) in (int, Fraction) for row in rows.values() for c in row.values())
    units = [{key: 1} for key in keys]
    assert quotient_dim(units, rels) == oracle_quotient_dim(units, rels) == len(keys) - len(rows)
    return rows


J_CELLS = [(d, m, TRIVIAL_ALPHABET) for d in range(5) for m in range(2 * d + 1)]
J_CELLS += [(d, m, GEN11) for d in range(2) for m in range(2 * d + 1)]


@pytest.mark.parametrize("d, m, alphabet", J_CELLS,
                         ids=["J%d(%d)-%s" % (d, m, a.label) for d, m, a in J_CELLS])
def test_j_space_rows_match_the_oracle(d, m, alphabet):
    rels = []
    span = closure(dg.enumerate_diagrams(d, m, alphabet), rels)
    assert assert_same_elimination(span, rels) == j_space(d, m, alphabet).relations.rows


A_CELLS = [(m, 1) for m in range(1, 5)] + [(m, 2) for m in range(1, 4)] + [(1, 3), (2, 3)]


@pytest.mark.parametrize("m, d", A_CELLS, ids=["A(%d,%d)" % c for c in A_CELLS])
def test_a_space_rows_match_the_oracle(m, d):
    space = ar.a_space(0, m, d, TRIVIAL_ALPHABET)
    rels = []
    keys = ar.arc_closure(ar.enumerate_arc_diagrams(m, d, TRIVIAL_ALPHABET), rels)
    assert assert_same_elimination(keys, rels) == space.relations.rows


def random_system(rng):
    dim = rng.randint(1, 9)

    def coeff():
        if rng.random() < 0.5:
            return rng.randint(-3, 3)
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    return [vec({k: coeff() for k in rng.sample(range(dim), rng.randint(1, dim))})
            for _ in range(rng.randint(0, 2 * dim))]


def test_random_systems_match_the_oracle_in_any_order():
    rng = random.Random(41)
    for _ in range(50):
        rels = random_system(rng)
        keys = sorted({k for v in rels for k in v})
        rows = assert_same_elimination(keys, rels)
        shuffled = list(rels)
        rng.shuffle(shuffled)
        assert assert_same_elimination(keys, shuffled) == rows


def short_system(rng):
    """Mostly one- and two-term vectors over few keys, so that chains and
    cycles of merged keys, with weights other than +-1, are common."""
    dim = rng.randint(2, 7)
    coeffs = (1, -1, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 2))
    return [{k: rng.choice(coeffs) for k in rng.sample(range(dim), min(size, dim))}
            for size in rng.choices((1, 2, 3), weights=(1, 8, 2), k=rng.randint(1, dim + 1))]


def test_short_systems_match_the_oracle_in_any_order():
    rng = random.Random(43)
    for _ in range(300):
        rels = short_system(rng)
        keys = sorted({k for v in rels for k in v})
        rows = assert_same_elimination(keys, rels)
        shuffled = list(rels)
        rng.shuffle(shuffled)
        assert assert_same_elimination(keys, shuffled) == rows
