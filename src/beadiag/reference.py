"""Closed-form reference dimensions, independent of the diagram engine.

The degree-two group-ring quotient IF_m/(IF_m)^3 splits linearly as the
abelianisation plus its tensor square (dimension m + m^2); the involution
acts as minus the identity on the first block and as the place permutation
on the second.  Schur functor dimensions come from the hook content
formula.  These feed the independent pipelines that cross-check the
diagram computations.
"""

from __future__ import annotations

from fractions import Fraction

from .bridge import coinvariant_dim
from .catlie import _parts
from .jspaces import j_space
from .words import TRIVIAL_ALPHABET, inv_letters


def partitions(d: int):
    """All partitions of d as weakly decreasing tuples, lexicographic from
    the largest part: (2) before (1, 1)."""
    return list(_parts(d, d))


def schur_dim(lam, m: int) -> int:
    """Dimension of the Schur functor S_lam on a space of dimension m
    (hook content formula); 0 when lam has more than m rows."""
    lam = tuple(lam)
    if len(lam) > m:
        return 0
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0)]
    dim = Fraction(1)
    for i, row in enumerate(lam):
        for j in range(row):
            hook = (row - j) + (conj[j] - i) - 1
            dim *= Fraction(m + j - i, hook)
    if dim.denominator != 1:
        raise ArithmeticError("Schur dimension %s is not an integer" % dim)
    return int(dim)


def passi_sigma(m: int):
    """The involution matrix on the (m + m^2)-dimensional degree-two space:
    minus the identity on the m block, the place permutation on the m^2 block."""
    n = m + m * m
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(m):
        mat[i][i] = Fraction(-1)
    for i in range(m):
        for j in range(m):
            row = m + i * m + j
            col = m + j * m + i
            mat[row][col] = Fraction(1)
    return mat


def _trace(mat) -> Fraction:
    return sum((mat[i][i] for i in range(len(mat))), Fraction(0))


def a11_reference_dim(alphabet, m: int) -> int:
    """dim of the order-two coinvariants of the dual degree-two space
    tensored with the span of the alphabet, the involution acting by
    ``passi_sigma`` dualised and by inversion on the alphabet."""
    if m < 0:
        raise ValueError("m must be >= 0")
    n = m + m * m
    size = len(alphabet)
    fixed = sum(1 for w in alphabet.letter_elements() if inv_letters(w) == w)
    tr_sigma = _trace(passi_sigma(m))  # transpose-invariant
    total = Fraction(n * size + tr_sigma * fixed, 2)
    if total.denominator != 1:
        raise ArithmeticError("coinvariant dimension %s is not an integer" % total)
    return int(total)


def b_di_dim(d: int, i: int, m: int) -> int:
    """Dimension of the i-th graded piece of the trivalent-count filtration
    of the beadless degree-d functor, at rank m: the S_{2d-i}-coinvariants
    of (K^m)^(2d-i) tensor the labelled-diagram quotient at arity 2d-i."""
    if d < 0 or m < 0:
        raise ValueError("d and m must be >= 0")
    if not 0 <= i <= 2 * d:
        raise ValueError("need 0 <= i <= 2d")
    k = 2 * d - i
    return coinvariant_dim(j_space(d, k, TRIVIAL_ALPHABET), k, m)


def b_d0_reference(d: int, m: int) -> int:
    """Top graded piece via the doubled-partition Schur decomposition."""
    if d < 0 or m < 0:
        raise ValueError("d and m must be >= 0")
    return sum(schur_dim(tuple(2 * p for p in lam), m) for lam in partitions(d))
