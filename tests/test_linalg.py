import copy
import random
from fractions import Fraction

import pytest

from beadiag.linalg import (
    echelonize,
    EchelonBasis,
    vaxpy,
    vec,
    vscale,
)

from reference_helpers import RelationOutsideSpan, quotient_dim


def e(key, coeff=1):
    return {key: Fraction(coeff)}


def test_vec_sums_repeated_pairs_and_drops_cancellations():
    v = vec([(1, 1), (2, Fraction(1, 2)), (1, 2), (3, 1), (3, -1)])
    assert v == {1: 3, 2: Fraction(1, 2)}
    assert type(v[1]) is int and type(v[2]) is Fraction
    assert vec((k, c) for k, c in [(1, 1), (1, -1)]) == {}
    assert vec([]) == vec() == {}


def test_vec_of_a_dict_drops_zeros():
    v = vec({1: 2, 2: 0, 3: Fraction(-1, 3)})
    assert v == {1: 2, 3: Fraction(-1, 3)}
    assert type(v[1]) is int and type(v[3]) is Fraction


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



def random_int_vec(rng, dim=6):
    return vec({k: rng.randint(-3, 3) for k in range(dim)})


def coeff_types(*vectors):
    return {type(c) for v in vectors for c in v.values()}


def test_vector_arithmetic_on_ints_stays_int():
    rng = random.Random(17)
    for _ in range(30):
        u, v = random_int_vec(rng), random_int_vec(rng)
        c = rng.randint(-3, 3)
        summed = vec(list(u.items()) + list(v.items()))
        assert coeff_types(summed, vscale(u, c), vaxpy(u, c, v)) <= {int}


def test_vector_arithmetic_with_a_fraction_gives_fractions():
    rng = random.Random(19)
    for _ in range(30):
        u, v = random_int_vec(rng), random_int_vec(rng)
        f = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(2, 4))
        fv = vscale(v, f)
        assert coeff_types(fv) <= {Fraction}
        assert coeff_types(vec(fv)) <= {Fraction}
        assert coeff_types(vscale(fv, rng.randint(1, 3))) <= {Fraction}
        w = vaxpy(u, f, v)
        assert coeff_types({k: c for k, c in w.items() if k in v}) <= {Fraction}
        assert coeff_types({k: c for k, c in w.items() if k not in v}) <= {int}
        w = vaxpy(u, 1, fv)
        assert coeff_types({k: c for k, c in w.items() if k in fv}) <= {Fraction}
        assert coeff_types(vaxpy(fv, rng.randint(-2, 2), u)) <= {int, Fraction}


def test_vector_arithmetic_never_makes_floats():
    rng = random.Random(23)
    for _ in range(30):
        u, v = random_int_vec(rng), random_vec(rng)
        for c in (rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 4))):
            results = [vec(list(u.items()) + list(v.items())), vscale(u, c), vscale(v, c),
                       vaxpy(u, c, v), vaxpy(v, c, u)]
            assert coeff_types(*results) <= {int, Fraction}


def test_echelon_rows_are_exact_with_unit_pivots_and_int_over_unit_pivots():
    rng = random.Random(29)
    for _ in range(10):
        basis = EchelonBasis()
        for _ in range(4):
            basis.insert(random_int_vec(rng))
        for pivot, row in basis.rows.items():
            assert row[pivot] == 1
            assert coeff_types(row) <= {int, Fraction}
    # int vectors whose pivots come out +-1 give all-int rows, equal to the
    # rows of the same vectors with Fraction coefficients
    vectors = [{1: 1, 2: 2, 3: 3}, {2: -1, 3: 4}, {3: 1, 4: 7}]
    rows = echelonize(vectors).rows
    assert rows == {1: {1: 1, 4: -77}, 2: {2: 1, 4: 28}, 3: {3: 1, 4: 7}}
    assert coeff_types(*rows.values()) == {int}
    assert rows == echelonize([{k: Fraction(c) for k, c in v.items()} for v in vectors]).rows


def test_a_copied_basis_grows_apart_from_the_original():
    b = echelonize([{1: 1, 2: 1}])
    c = copy.copy(b)
    c.insert({3: 1})
    assert b.rank == 1 and c.rank == 2
    assert b.rows == {1: {1: 1, 2: 1}} and b.rows is not c.rows


# --- one- and two-term vectors: echelonize merges their keys -----------------


def inserted(vectors):
    """The rows of inserting each vector in turn, with no merging."""
    basis = EchelonBasis()
    for v in vectors:
        basis.insert(v)
    return basis.rows


def assert_merged_rows(vectors, expected):
    rows = echelonize(vectors).rows
    assert rows == expected == inserted(vectors)
    assert echelonize(vectors[::-1]).rows == expected
    return rows


def test_a_cycle_whose_weights_multiply_to_two_zeroes_its_class():
    # 1 = 2 = 3 = 2 * 1
    vectors = [{1: 1, 2: -1}, {2: 1, 3: -1}, {3: 1, 1: -2}, {4: 1, 5: 1}]
    assert_merged_rows(vectors, {1: {1: 1}, 2: {2: 1}, 3: {3: 1}, 4: {4: 1, 5: 1}})


def test_a_cycle_whose_weights_multiply_to_one_adds_no_rank():
    # 1 = 2 * 2, 2 = 3 * 3 and 1 = 6 * 3 agree
    vectors = [{1: 1, 2: -2}, {2: 1, 3: -3}, {1: 1, 3: -6}]
    assert_merged_rows(vectors, {1: {1: 1, 3: -6}, 2: {2: 1, 3: -3}})
    assert echelonize(vectors).rank == echelonize(vectors[:2]).rank == 2


def test_a_one_term_vector_after_the_merges_zeroes_the_whole_class():
    vectors = [{1: 1, 2: -1}, {2: 1, 3: 2}, {4: 1, 5: -1}, {6: 3, 3: 1, 5: 1}, {3: 5}]
    assert_merged_rows(vectors, {1: {1: 1}, 2: {2: 1}, 3: {3: 1},
                                 4: {4: 1, 6: 3}, 5: {5: 1, 6: 3}})


def test_chains_with_weights_two_and_three_halves_give_fraction_rows():
    # 1 = 2 * 2 and 2 = 3/2 * 3, so 1 = 3 * 3
    vectors = [{1: 1, 2: -2}, {2: 2, 3: -3}]
    rows = assert_merged_rows(vectors, {1: {1: 1, 3: -3}, 2: {2: 1, 3: Fraction(-3, 2)}})
    assert type(rows[2][3]) is Fraction


def test_unit_weights_keep_int_rows():
    vectors = [{1: 1, 2: -1}, {2: 1, 3: 1}, {3: -1, 4: 1}, {1: 1, 5: 1, 6: -1},
               {7: 1, 8: 1}, {8: 1, 7: 1}, {9: -1}, {9: 1, 10: 1}]
    rows = assert_merged_rows(vectors, {
        1: {1: 1, 5: 1, 6: -1}, 2: {2: 1, 5: 1, 6: -1}, 3: {3: 1, 5: -1, 6: 1},
        4: {4: 1, 5: -1, 6: 1}, 7: {7: 1, 8: 1}, 9: {9: 1}, 10: {10: 1}})
    assert coeff_types(*rows.values()) == {int}
