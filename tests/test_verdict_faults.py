"""Each verdict is seen to fail: one semantic fault per verdict.

Each test injects one fault with ``monkeypatch`` and requires its verdict to
fail, while the verdicts of the same report that the fault does not reach
keep passing:

* ``verify_bridge`` check (b), ``glue_surjective``: a composition
  enumerator that drops the last composition of each arity, so the block
  maps miss the arc keys with every leg on the last arc;
* check (c), ``dimension_equality``: a J-space with one relation row too
  few, which only the coinvariant route reads;
* ``verify_filtration`` and the ``verify a11`` report: an A-space with one
  relation row too few;
* the antipode axiom of the law suites: an antipode without its sign
  (-1)^#legs;
* their coassociativity: a delta that doubles its terms with legs on both
  copies at positions above 1;
* their counit, unit and merge-associativity laws: eps, eta or mu taking
  the sign (-1)^(the arcs on one side of its position), as if it passed
  each of them by a transposition;
* their cocommutativity: an arc permutation that reads each arc's legs back
  to front.

The rows are dropped from spaces the process has built, and the spaces that
the zero tests read are built before a fault that would reach their
construction.  ``monkeypatch`` puts everything back after each test.
"""

import json

import pytest

from beadiag import arcs as ar
from beadiag import cli, laws
from beadiag.bridge import alpha_dim, verify_bridge, verify_filtration
from beadiag.jspaces import j_space
from beadiag.words import TRIVIAL_ALPHABET, alphabet_from_spec


def _failing(report):
    return [c["name"] for c in report["checks"] if not c["pass"]]


def _check(report, name):
    return next(c for c in report["checks"] if c["name"] == name)


@pytest.mark.parametrize("d, l", [(1, 2), (2, 2), (2, 3)])
def test_block_maps_that_miss_a_composition_fail_glue_surjective(monkeypatch, d, l):
    for m in range(l + 2):  # every arc count the checks reduce or test at
        ar.a_space(0, m, d, TRIVIAL_ALPHABET)
    assert verify_bridge(d, TRIVIAL_ALPHABET, l)["pass"]
    compositions = ar.compositions

    def all_but_the_last(c, m):
        out = list(compositions(c, m))
        return out[:-1] if len(out) > 1 else out

    monkeypatch.setattr(ar, "compositions", all_but_the_last)
    report = verify_bridge(d, TRIVIAL_ALPHABET, l)
    assert _failing(report) == ["glue_surjective"]
    rank, dim = eval(_check(report, "glue_surjective")["counterexample"])
    assert rank < dim == alpha_dim(d, TRIVIAL_ALPHABET, l)


@pytest.mark.parametrize("l", [1, 2])
def test_a_j_space_row_too_few_fails_dimension_equality(monkeypatch, l):
    # J_3(2) has 3 keys and 2 rows; without its first row the coinvariant
    # route counts one more dimension
    assert verify_bridge(3, TRIVIAL_ALPHABET, l)["pass"]
    dim_arc = ar.a_space(0, l, 3, TRIVIAL_ALPHABET).dim(0)
    rows = j_space(3, 2, TRIVIAL_ALPHABET).relations.rows
    monkeypatch.delitem(rows, min(rows))
    report = verify_bridge(3, TRIVIAL_ALPHABET, l)
    assert _failing(report) == ["dimension_equality"]
    dim_alpha, dim = eval(_check(report, "dimension_equality")["counterexample"])
    assert dim_alpha > dim == dim_arc


@pytest.mark.parametrize("d, spec, l", [(2, "trivial", 2), (2, "trivial", 1), (1, "gen:1:1", 2)])
def test_an_a_space_row_too_few_fails_verify_filtration(monkeypatch, d, spec, l):
    # the first row pivoted on a key with one trivalent vertex: every key
    # counts at t = 0, and no subspace with t >= 2 holds the pivot
    alphabet = alphabet_from_spec(spec)
    assert all(verify_filtration(d, alphabet, l, t) for t in range(2 * d + 1))
    rows = ar.a_space(alphabet.rank, l, d, alphabet).relations.rows
    monkeypatch.delitem(rows, min(p for p in rows if ar.arc_key_trivalents(p) == 1))
    assert not verify_filtration(d, alphabet, l, 0)
    assert all(verify_filtration(d, alphabet, l, t) for t in range(2, 2 * d + 1))


def _verify_a11(capsys, spec, m):
    code = cli.main(["verify", "a11", "--alphabet", spec, "--m", str(m)])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("spec, m", [("gen:1:1", 2), ("gen:1:1", 3), ("gen:2:1", 1)])
def test_an_a_space_row_too_few_fails_the_a11_report(monkeypatch, capsys, spec, m):
    code, report = _verify_a11(capsys, spec, m)
    assert code == 0 and report["pass"]
    alphabet = alphabet_from_spec(spec)
    rows = ar.a_space(alphabet.rank, m, 1, alphabet).relations.rows
    monkeypatch.delitem(rows, min(rows))
    code, faulty = _verify_a11(capsys, spec, m)
    assert code == 1 and not faulty["pass"]
    assert faulty["reference_dim"] == report["reference_dim"]
    assert faulty["diagram_dim"] == report["diagram_dim"] + 1


def _antipode_without_its_sign(act):
    def faulty(gen, pos, key):
        terms = act(gen, pos, key)
        if gen == "antipode":
            return [(k, sign * (-1) ** key[2][pos - 1]) for k, sign in terms]
        return terms

    return faulty


@pytest.mark.parametrize("d, spec, m", [(1, "gen:1:1", 2), (2, "trivial", 2), (1, "trivial", 1)])
def test_an_antipode_without_its_sign_fails_the_antipode_axiom_alone(monkeypatch, d, spec, m):
    alphabet = alphabet_from_spec(spec)
    assert laws.check_gr_laws(d, alphabet, m)["pass"]
    assert laws.check_hopf_antipode(d, alphabet, m)["pass"]
    monkeypatch.setattr(ar, "_act_arc_key", _antipode_without_its_sign(ar._act_arc_key))
    report = laws.check_gr_laws(d, alphabet, m)
    assert not report["pass"]
    assert {name for name, *_rest in report["failures"]} == {"antipode_axiom"}
    hopf = laws.check_hopf_antipode(d, alphabet, m)
    assert not hopf["pass"]
    assert len(hopf["failures"]) == len(report["failures"])


def _delta_doubled_above_position_1(act):
    def faulty(gen, pos, key):
        terms = act(gen, pos, key)
        if gen == "delta" and pos > 1:
            # a term with legs on both copies, arcs pos and pos + 1, counts twice
            return [t for t in terms for _ in range(1 + all(t[0][2][pos - 1 : pos + 1]))]
        return terms

    return faulty


@pytest.mark.parametrize("d, spec", [(1, "trivial"), (2, "trivial"), (1, "gen:1:1")])
def test_a_delta_doubled_above_position_1_fails_coassociativity_alone(monkeypatch, d, spec):
    # at one arc only the second delta of coassociativity acts at position 2
    alphabet = alphabet_from_spec(spec)
    assert laws.check_gr_laws(d, alphabet, 1)["pass"]
    monkeypatch.setattr(ar, "_act_arc_key", _delta_doubled_above_position_1(ar._act_arc_key))
    report = laws.check_gr_laws(d, alphabet, 1)
    assert not report["pass"]
    assert {name for name, *_rest in report["failures"]} == {"coassociativity"}


def _signed_by_the_arcs(act, faulty_gen, side):
    """``act`` with ``faulty_gen`` taking the sign (-1)^(the arcs before or
    after its position); eta and mu change the arc count by their
    ``arcs._GEN_RANGES`` offset."""

    def faulty(gen, pos, key):
        terms = act(gen, pos, key)
        if gen != faulty_gen:
            return terms
        passed = pos - 1 if side == "before" else key[0] + ar._GEN_RANGES[gen] - pos
        return [(k, sign * (-1) ** passed) for k, sign in terms]

    return faulty


@pytest.mark.parametrize("gen, side, verdict", [
    ("eps", "after", "counit_left"),
    ("eps", "before", "counit_right"),
    ("eta", "after", "unit_left"),
    ("eta", "before", "unit_right"),
    ("mu", "before", "merge_associativity"),
])
@pytest.mark.parametrize("d, spec", [(1, "trivial"), (2, "trivial"), (1, "gen:1:1")])
def test_a_generator_signed_by_the_arcs_it_passes_fails_one_law_alone(
        monkeypatch, gen, side, verdict, d, spec):
    # at one arc each of these faults flips one generator image of the suite:
    # eps_1 (after) or eps_2 (before) on the doubled arc, eta_1 (after) or
    # eta_2 (before) on the arc, mu_2 on the twice-doubled arc; the antipode
    # axiom's eps_1, eta_1 and mu_1 pass no arc
    alphabet = alphabet_from_spec(spec)
    assert laws.check_gr_laws(d, alphabet, 1)["pass"]
    monkeypatch.setattr(ar, "_act_arc_key", _signed_by_the_arcs(ar._act_arc_key, gen, side))
    report = laws.check_gr_laws(d, alphabet, 1)
    assert not report["pass"]
    assert {name for name, *_rest in report["failures"]} == {verdict}


@pytest.mark.parametrize("d, spec, m", [(2, "trivial", 1), (1, "gen:1:1", 1), (2, "trivial", 2)])
def test_arcs_swapped_back_to_front_fail_cocommutativity_alone(monkeypatch, d, spec, m):
    # only cocommutativity permutes arcs; the fault shows at no cell over
    # the trivial alphabet at d = 1, so those cells are left out
    alphabet = alphabet_from_spec(spec)
    assert laws.check_gr_laws(d, alphabet, m)["pass"]
    permuted = ar._permuted

    def back_to_front(news, counts):
        olds, counts2, _order = permuted(news, counts)
        blocks = ar._leg_blocks(counts)
        return olds, counts2, tuple(l for o in olds for l in reversed(blocks[o]))

    monkeypatch.setattr(ar, "_permuted", back_to_front)
    report = laws.check_gr_laws(d, alphabet, m)
    assert not report["pass"]
    assert {name for name, *_rest in report["failures"]} == {"cocommutativity"}
