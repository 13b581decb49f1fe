import random
from fractions import Fraction

import pytest

from beadiag.linalg import (
    RelationOutsideSpan,
    echelonize,
    quotient_dim,
    vec,
)


def e(key, coeff=1):
    return {key: Fraction(coeff)}


def test_vec_sums_repeated_pairs_and_drops_cancellations():
    v = vec([(1, 1), (2, Fraction(1, 2)), (1, 2), (3, 1), (3, -1)])
    assert v == {1: 3, 2: Fraction(1, 2)}
    assert all(type(c) is Fraction for c in v.values())
    assert vec((k, c) for k, c in [(1, 1), (1, -1)]) == {}
    assert vec([]) == vec() == {}


def test_vec_of_a_dict_drops_zeros():
    v = vec({1: 2, 2: 0, 3: Fraction(-1, 3)})
    assert v == {1: 2, 3: Fraction(-1, 3)}
    assert all(type(c) is Fraction for c in v.values())


def test_echelonize_examples():
    assert echelonize([vec({1: 1, 2: 1}), vec({2: 1})]).rank == 2
    assert echelonize([vec({1: 1}), vec({1: 2})]).rank == 1
    assert echelonize([]).rank == 0


def test_reduce_mod_examples():
    b = echelonize([e(1)])
    assert b.reduce(vec({1: 1, 2: 1})) == e(2)
    assert b.reduce(e(1)) == {}
    assert echelonize([]).reduce(e(1)) == e(1)


def test_quotient_dim_examples():
    assert quotient_dim([e(1), e(2)], [vec({1: 1, 2: 1})]) == 1
    assert quotient_dim([e(1)], []) == 1
    assert quotient_dim([e(1), e(2), e(3)], [vec({1: 1, 2: -1}), vec({2: 1, 3: -1})]) == 1


def test_relation_outside_span():
    with pytest.raises(RelationOutsideSpan):
        quotient_dim([e(1)], [vec({1: 1, 7: 1})])


def random_vec(rng, dim=6):
    return vec({k: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for k in range(dim)})


def test_quotient_dim_invariances():
    rng = random.Random(3)
    for _ in range(30):
        span = [random_vec(rng) for _ in range(4)]
        rels = [random_vec(rng) for _ in range(2)]
        base = quotient_dim(span, rels)
        rng.shuffle(span)
        rng.shuffle(rels)
        assert quotient_dim(span, rels) == base
        scaled = [
            {k: c * Fraction(rng.randint(1, 5)) for k, c in v.items()} for v in span
        ]
        assert quotient_dim(scaled, rels) == base


def test_reduce_mod_idempotent():
    rng = random.Random(5)
    for _ in range(30):
        basis = echelonize([random_vec(rng) for _ in range(3)])
        v = random_vec(rng)
        once = basis.reduce(v)
        assert basis.reduce(once) == once


def test_echelon_rows_are_reduced_and_pivot_normalised():
    rng = random.Random(9)
    vs = [random_vec(rng) for _ in range(5)]
    basis = echelonize(vs)
    pivots = set(basis.rows)
    for pivot, row in basis.rows.items():
        assert row[pivot] == 1
        assert set(row) & pivots == {pivot}


def test_echelon_is_canonical_for_the_row_space():
    rng = random.Random(13)
    vs = [random_vec(rng) for _ in range(4)]
    b1 = echelonize(vs)
    shuffled = list(vs)
    rng.shuffle(shuffled)
    b2 = echelonize(shuffled + [vs[0]])
    assert b1.rows == b2.rows
