"""The one exact reduction, ``jspaces.full_residue``, against the routes it
replaced.

The mu transform used to close the whole target span together with the
image supports and reduce each image there; the arc zero test used to close
the support of the vector itself.  Both are kept here verbatim as oracles.
"""

from fractions import Fraction

import pytest

from beadiag import arcs as ar
from beadiag.catlie import mu_sum, mu_transform
from beadiag.jspaces import closure, j_space
from beadiag.linalg import echelonize
from beadiag.words import TRIVIAL_ALPHABET, alphabet_from_spec


def closure_of_span_mu_transform(d, k, alphabet):
    """The mu transform reduced in the closure of the target span together
    with every image support."""
    source = j_space(d, k + 1, alphabet)
    raw_images = {}
    support = set()
    for key in source.free_keys:
        img = mu_sum({key: Fraction(1)}, k + 1)
        raw_images[key] = img
        support.update(img)
    target = j_space(d, k, alphabet)
    rels = []
    closure(set(target.span) | support, rels)
    basis = echelonize(rels)
    return {key: basis.reduce(img) for key, img in raw_images.items()}


MU_CELLS = [("trivial", d, k) for d in range(5) for k in range(2 * d + 1)] + [
    (spec, d, k)
    for spec in ("gen:1:1", "gen:2:1", "gen:1:2", "gen:2:2")
    for d in range(2)
    for k in range(2 * d + 1)
]


def test_mu_transform_matches_the_closure_of_the_target_span():
    for spec, d, k in MU_CELLS:
        alphabet = alphabet_from_spec(spec)
        new = mu_transform(d, k, alphabet)
        old = closure_of_span_mu_transform(d, k, alphabet)
        assert list(new) == list(old), (spec, d, k)
        assert new == old, (spec, d, k)


def closure_of_support_is_zero(vector):
    """Reduction modulo the relations of the closure of the vector's own
    support."""
    if not vector:
        return True
    rels = []
    ar.arc_closure(vector.keys(), rels)
    return not echelonize(rels).reduce(vector)


@pytest.mark.parametrize(
    "spec,m,d",
    [("trivial", m, d) for m in range(4) for d in range(3)]
    + [("gen:1:1", m, 1) for m in range(3)],
)
def test_arc_zero_test_matches_the_closure_of_the_support(spec, m, d):
    alphabet = alphabet_from_spec(spec)
    space = ar.a_space(alphabet.rank, m, d, alphabet, class0=True)
    vectors = []
    for key in space.span:
        vectors.append({key: Fraction(1)})
        vectors.extend(ar.stu_relations(key) + ar.ihx_relations_arc(key))
    for v in vectors:
        assert ar._is_zero_in_full_space(v, d, alphabet) == closure_of_support_is_zero(v), v
