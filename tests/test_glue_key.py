"""``diagrams.glue_key`` is the one memoised gluing of a canonical key: the
STU S terms of ``arcs.stu_relations`` and the mu images of
``catlie.mu_action`` read it.  Its answers, asked cold and then from the
memo, must equal the canonical form of ``glue_pair`` on the rebuilt key,
ZERO included.
"""

import pytest

from beadiag import diagrams as dg
from beadiag.words import alphabet_from_spec

TRIVIAL_CELLS = [("trivial", d, m) for d in range(1, 5) for m in range(2, 2 * d + 1)]
BEADED_CELLS = [(spec, d, m) for spec in ("gen:1:1", "gen:2:1") for d, m in ((1, 2), (2, 3), (2, 4))]


def _gluings(spec, d, m):
    """Every enumerated key of J_d(m) over the alphabet, with every pair of
    legs a < b."""
    return [(key, a, b) for key in dg.enumerate_diagrams(d, m, alphabet_from_spec(spec))
            for b in range(2, m + 1) for a in range(1, b)]


@pytest.mark.parametrize("cell", TRIVIAL_CELLS + BEADED_CELLS,
                         ids=lambda cell: "-".join(map(str, cell)))
def test_glue_key_is_the_canonical_form_of_the_glued_key(cell):
    gluings = _gluings(*cell)
    assert gluings
    dg.glue_key.cache_clear()
    expected = [dg.canonicalize(dg.glue_pair(dg.rebuild(key), a, b)) for key, a, b in gluings]
    assert [dg.glue_key(*g) for g in gluings] == expected
    assert [dg.glue_key(*g) for g in gluings] == expected  # from the memo
    assert dg.glue_key.cache_info().misses == len(set(gluings))


def test_beaded_cells_glue_some_keys_to_zero():
    results = [dg.glue_key(*g) for cell in BEADED_CELLS for g in _gluings(*cell)]
    assert (dg.ZERO, 0) in results
    assert any(key is not dg.ZERO for key, _sign in results)


def test_glue_key_refuses_a_leg_pair_outside_the_key():
    [key] = dg.enumerate_diagrams(1, 2, alphabet_from_spec("trivial"))
    with pytest.raises(dg.DiagramError):
        dg.glue_key(key, 1, 3)
    with pytest.raises(dg.DiagramError):
        dg.glue_key(key, 2, 2)
