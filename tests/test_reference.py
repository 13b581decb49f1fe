import itertools

from beadiag import arcs as ar
from beadiag.bridge import coinvariant_dim
from beadiag.jspaces import j_space
from beadiag.reference import (
    a11_reference_dim,
    b_d0_reference,
    b_di_dim,
    partitions,
    schur_dim,
)
from beadiag.words import TRIVIAL_ALPHABET, alphabet_from_spec

from reference_helpers import passi_sigma

GEN11 = alphabet_from_spec("gen:1:1")


def test_partitions():
    assert partitions(1) == [(1,)]
    assert partitions(2) == [(2,), (1, 1)]
    assert len(partitions(4)) == 5
    for lam in partitions(5):
        assert sum(lam) == 5
        assert list(lam) == sorted(lam, reverse=True)


def ssyt_count(lam, m):
    """Oracle: count semistandard Young tableaux with entries in 1..m by
    brute force (independent of the hook content formula)."""
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    count = 0
    for values in itertools.product(range(1, m + 1), repeat=len(cells)):
        t = dict(zip(cells, values))
        ok = True
        for (i, j), v in t.items():
            if (i, j + 1) in t and t[(i, j + 1)] < v:
                ok = False
                break
            if (i + 1, j) in t and t[(i + 1, j)] <= v:
                ok = False
                break
        if ok:
            count += 1
    return count


def test_schur_dims_against_tableaux_oracle():
    for lam in [(2,), (1, 1), (2, 2), (3, 1), (4,), (2, 1)]:
        for m in (1, 2, 3):
            assert schur_dim(lam, m) == ssyt_count(lam, m)
    assert schur_dim((2,), 2) == 3
    assert schur_dim((2, 2), 2) == 1
    assert schur_dim((4,), 3) == 15
    assert schur_dim((1, 1, 1), 2) == 0  # more rows than the dimension


def test_passi_sigma_examples():
    m1 = passi_sigma(1)
    assert m1[0][0] == -1 and m1[1][1] == 1
    m2 = passi_sigma(2)
    assert m2[0][0] == m2[1][1] == -1
    # the swap block exchanges (i,j) and (j,i)
    assert m2[2 + 0 * 2 + 1][2 + 1 * 2 + 0] == 1
    for m in range(0, 6):
        mat = passi_sigma(m)
        n = len(mat)
        square = [
            [sum(mat[i][k] * mat[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert all(square[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))


def test_passi_sigma_has_trace_zero():
    # a11_reference_dim relies on it: -m on the first block, +m from the swap
    for m in range(0, 6):
        mat = passi_sigma(m)
        assert sum(mat[i][i] for i in range(len(mat))) == 0


def test_a11_reference_examples():
    for m in (1, 2, 3, 4):
        assert a11_reference_dim(TRIVIAL_ALPHABET, m) == m * (m + 1) // 2
    assert a11_reference_dim(TRIVIAL_ALPHABET, 0) == 0
    assert a11_reference_dim(GEN11, 1) == ar.a_space(1, 1, 1, GEN11).dim(0)


def test_b_d0_reference_examples():
    for m in (1, 2, 3, 4):
        assert b_d0_reference(1, m) == m * (m + 1) // 2
    assert b_d0_reference(2, 2) == 6
    assert b_d0_reference(2, 3) == 21


def test_b_di_examples():
    for m in (1, 2, 3):
        assert b_di_dim(1, 0, m) == m * (m + 1) // 2
        assert b_di_dim(1, 1, m) == 0  # the one-leg degree-one space is zero
    assert b_di_dim(2, 0, 2) == 6
    assert b_di_dim(2, 0, 3) == 21


def test_b_di_is_the_coinvariant_dimension_of_its_j_space():
    # the cells of the tests above
    cells = [(d, i, m) for d in (1, 2) for i in range(2 * d + 1) for m in (1, 2, 3)]
    for d, i, m in cells:
        space = j_space(d, 2 * d - i, TRIVIAL_ALPHABET)
        assert b_di_dim(d, i, m) == coinvariant_dim(space, 2 * d - i, m)


def test_graded_pieces_sum_to_total():
    for d in (1, 2):
        for m in (1, 2, 3):
            total = sum(b_di_dim(d, i, m) for i in range(0, 2 * d + 1))
            assert total == ar.a_space(0, m, d, TRIVIAL_ALPHABET).dim(0)


def test_top_schur_piece_fits_inside_the_space():
    # the doubled one-row Schur functor splits off: its dimension is at most
    # the total, with the complement matching the quotient by the top piece
    for d in (1, 2):
        for m in (1, 2, 3):
            top = schur_dim((2 * d,), m)
            total = ar.a_space(0, m, d, TRIVIAL_ALPHABET).dim(0)
            assert top <= total
            assert total - top == sum(
                b_di_dim(d, i, m) for i in range(1, 2 * d + 1)
            ) + (b_di_dim(d, 0, m) - top)
