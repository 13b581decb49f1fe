"""``verify_bridge`` glues along one block map per composition of leg counts,
where the driver kept here as the oracle glued, acted and tested afresh
along every fiber-ordered map (``oracle_leg_placements``, on plain fiber
tuples, in sorted order).  Any fiber-ordered map glues a key as
its block map glues the key with its legs relabelled, so the two give
byte-identical reports, and every vector the block-map driver asks the zero
test about is, up to sign, one the oracle asks about too.  The order of
asking differs, so a tuple named under a numbered forced failure is checked
with the oracle's test of that tuple, not against the oracle's run.  A
semantic fault injected into both drivers (in the map action, in
``catlie.mu_action`` or in a J-space relation row) fails the same checks in
both, and each counterexample the driver names fails the oracle's test for
that tuple.  The counter tests pin the work of a passing run without timing
anything.
"""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from beadiag import arcs as ar
from beadiag import bridge, cache
from beadiag import catlie as cl
from beadiag import diagrams as dg
from beadiag.bridge import alpha_dim, glue, verify_bridge
from beadiag.jspaces import j_space
from beadiag.linalg import echelonize, vaxpy, vec
from beadiag.words import alphabet_from_spec

from reference_helpers import clear_dashed_memos, numbered_zero_test, oracle_leg_placements


def catass_act_per_call(gen, pos, fibers):
    """``catass_act`` as it was: written out per generator, no position
    check."""
    if gen == "eta":
        return [(1, fibers[: pos - 1] + ((),) + fibers[pos - 1 :])]
    if gen == "eps":
        if fibers[pos - 1]:
            return []
        return [(1, fibers[: pos - 1] + fibers[pos:])]
    if gen == "mu":
        merged = fibers[pos - 1] + fibers[pos]
        return [(1, fibers[: pos - 1] + (merged,) + fibers[pos + 1 :])]
    if gen == "antipode":
        new = fibers[: pos - 1] + (tuple(reversed(fibers[pos - 1])),) + fibers[pos:]
        return [((-1) ** len(fibers[pos - 1]), new)]
    if gen == "delta":
        f = fibers[pos - 1]
        out = []
        for mask in itertools.product((0, 1), repeat=len(f)):
            one = tuple(x for x, b in zip(f, mask) if b == 0)
            two = tuple(x for x, b in zip(f, mask) if b == 1)
            out.append((1, fibers[: pos - 1] + (one, two) + fibers[pos:]))
        return out
    raise ValueError("unknown generator %r" % gen)


def mu_lifted_maps_per_call(fibers, i):
    """``_mu_lifted_maps`` as it was: two fiber tuples, found through the
    fiber of i."""
    c = sum(map(len, fibers))
    target_slot = next(t + 1 for t, f in enumerate(fibers) if i in f)
    out = []
    for after in (True, False):
        lifted = []
        for t, f in enumerate(fibers):
            if t + 1 == target_slot:
                p = f.index(i)
                if after:
                    f = f[: p + 1] + (c + 1,) + f[p + 1 :]
                else:
                    f = f[:p] + (c + 1,) + f[p:]
            lifted.append(f)
        out.append(tuple(lifted))
    return out  # [i < c+1 order, c+1 < i order]


def verify_bridge_per_call(d, alphabet, l, seed=0, sample=None):
    """Check the glued-functor correspondence at l arcs.

    Checks: (a) gluing kills IHX relations in the arc quotient,
    (b) gluing surjects onto the arc space, (c) the two dimension
    computations agree, (d) gluing is natural for the five Hopf generators,
    (e) the coequalizer identity f(L(..)) = f(R(..)) (an STU instance).
    Exhaustive when ``sample`` is None; otherwise a seeded sample caps each
    check's tuple count (in (a), each arity's).
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    if sample is not None and sample < 1:
        raise ValueError("sample must be >= 1")
    rng = random.Random(seed)
    aspace = ar.a_space(alphabet.rank, l, d, alphabet, class0=True)
    checks = []

    def record(name, ok, counterexample=None):
        entry = {"name": name, "pass": bool(ok)}
        if counterexample is not None:
            entry["counterexample"] = repr(counterexample)
        checks.append(entry)

    def first_failure(tuples, counterexample):
        """The first counterexample among the tuples, or among a seeded
        sample of them when there are more than ``sample``."""
        if sample is not None and len(tuples) > sample:
            tuples = rng.sample(tuples, sample)
        return next(filter(None, (counterexample(*t) for t in tuples)), None)

    def vanishes(vector):
        return ar._is_zero_in_full_space(vector, d, alphabet)

    spaces = {c: j_space(d, c, alphabet) for c in range(0, 2 * d + 1)}
    maps = {c: sorted(oracle_leg_placements(c, l)) for c in spaces}

    # (a) IHX relations die after gluing; the echelon rows span them all.
    # One sample per arity, and none after the first failure.
    def ihx_counterexample(c, r, fibers):
        if not vanishes(glue(fibers, r)):
            return (c, fibers, {k: Fraction(v) for k, v in r.items()})

    for c, space in spaces.items():
        rows = [dict(sorted(r.items())) for _, r in sorted(space.relations.rows.items())]
        bad = first_failure([(c, r, f) for r in rows for f in maps[c]], ihx_counterexample)
        if bad:
            break
    record("ihx_image_vanishes", bad is None, bad)

    # (b) surjectivity of gluing onto the arc space; the rank cannot pass
    # the dimension, so the images stop once it is reached
    dim_arc = aspace.dim(0)
    basis = echelonize([])
    images = (glue(fibers, {key: 1}) for c, space in spaces.items() for fibers in maps[c]
              for key in space.span)
    for img in images:
        if img:
            basis.insert(aspace.reduce(img))
        if basis.rank == dim_arc:
            break
    record("glue_surjective", basis.rank == dim_arc, (basis.rank, dim_arc))

    # (c) dimension equality
    dim_alpha = alpha_dim(d, alphabet, l)
    record("dimension_equality", dim_alpha == dim_arc, (dim_alpha, dim_arc))

    # (d) naturality for the five generators, modulo the arc relations
    gens = [("eta", range(1, l + 2)), ("eps", range(1, l + 1)),
            ("mu", range(1, l)), ("antipode", range(1, l + 1)),
            ("delta", range(1, l + 1))]

    def naturality_counterexample(key, fibers):
        glued = glue(fibers, {key: 1})
        for gen, positions in gens:
            for pos in positions:
                lhs = ar.gr_act(gen, pos, glued)
                rhs = vec(
                    (k2, coeff * c2)
                    for coeff, fibers2 in catass_act_per_call(gen, pos, fibers)
                    for k2, c2 in glue(fibers2, {key: 1}).items()
                )
                if not vanishes(vaxpy(lhs, -1, rhs)):
                    return (gen, pos, fibers, key)

    bad = first_failure(
        [(key, fibers) for c, space in spaces.items() for key in space.span for fibers in maps[c]],
        naturality_counterexample,
    )
    record("naturality", bad is None, bad)

    # (e) coequalizer identity via the STU relation
    def coequalizer_counterexample(c, key, fibers, i):
        after, before = mu_lifted_maps_per_call(fibers, i)
        lhs = vaxpy(glue(after, {key: 1}), -1, glue(before, {key: 1}))
        rhs = glue(fibers, cl.mu_action(i, {key: 1}, c + 1))
        if not vanishes(vaxpy(lhs, -1, rhs)):
            return (c, key, fibers, i)

    bad = first_failure(
        [(c, key, fibers, i) for c in range(1, 2 * d) for key in spaces[c + 1].span
         for fibers in maps[c] for i in range(1, c + 1)],
        coequalizer_counterexample,
    )
    record("coequalizer", bad is None, bad)

    return {
        "d": d,
        "alphabet": alphabet.label,
        "l": l,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


CELLS = (
    [(d, "trivial", l, None, 0) for d in (0, 1, 2) for l in (0, 1, 2, 3)]
    + [(1, "gen:1:1", l, None, 0) for l in (0, 1, 2, 3)]
    + [(1, "gen:1:1", 2, 7, 2), (2, "trivial", 3, 50, 3), (3, "trivial", 1, 300, 5)]
)

# (cell, numbers of the vectors on which the zero test answers "nonzero");
# every (d) vector vanishes before the quotient, so number 1, the empty
# vector in these cells, fails (d) and the others fail (e)
FAILING = [
    ((2, "trivial", 2, None, 0), fails) for fails in ([1], [2], [6], [15])
] + [
    ((1, "gen:1:1", 2, 7, 2), fails) for fails in ([1], [2], [3])
] + [
    ((2, "trivial", 3, 50, 3), fails) for fails in ([1], [2], [13], [23])
] + [
    ((2, "trivial", 3, None, 0), fails) for fails in ([1], [11], [37])
]
# failures in (a) alone, and in (a), (d) and (e)
IHX_FAILING = [((3, "trivial", 1, 300, 5), fails) for fails in ([1], [6], [1, 2])]


def _run(patch, driver, d, spec, l, sample, seed, fails=()):
    """The report, with the zero test patched to number the vectors it is
    asked about and to fail the numbered ones in ``fails``, and the list of
    those vectors; the patch stays for the caller."""
    numbered, asked = numbered_zero_test(ar._is_zero_in_full_space, fails)
    patch.setattr(ar, "_is_zero_in_full_space", numbered)
    return driver(d, alphabet_from_spec(spec), l, seed=seed, sample=sample), asked


def _counterexamples(report):
    """(check, tuple) for each failing check of a report that names a tuple:
    (a), (d) and (e)."""
    return [(c["name"], eval(c["counterexample"], {"Fraction": Fraction}))
            for c in report["checks"]
            if not c["pass"] and c["name"] in ("ihx_image_vanishes", "naturality", "coequalizer")]


def _oracle_vector(check, counterexample):
    """The vector that the oracle's test of a named tuple asks the zero test
    about; for (d), at the named move."""
    if check == "ihx_image_vanishes":
        _c, fibers, r = counterexample
        return glue(fibers, r)
    if check == "naturality":
        gen, pos, fibers, key = counterexample
        rhs = vec((k2, coeff * c2) for coeff, fibers2 in catass_act_per_call(gen, pos, fibers)
                  for k2, c2 in glue(fibers2, {key: 1}).items())
        return vaxpy(ar.gr_act(gen, pos, glue(fibers, {key: 1})), -1, rhs)
    c, key, fibers, i = counterexample
    after, before = mu_lifted_maps_per_call(fibers, i)
    lhs = vaxpy(glue(after, {key: 1}), -1, glue(before, {key: 1}))
    return vaxpy(lhs, -1, glue(fibers, cl.mu_action(i, {key: 1}, c + 1)))


def _oracle_fails(report, d, spec):
    """Whether the oracle's test fails every tuple the report names."""
    return all(not ar._is_zero_in_full_space(_oracle_vector(check, t), d,
                                             alphabet_from_spec(spec))
               for check, t in _counterexamples(report))


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: "-".join(map(str, cell)))
def test_memoised_checks_match_the_per_call_driver(monkeypatch, cell):
    """The two drivers sample different tuples, so a sampled run is held to
    the vectors of its own exhaustive run, which ask about no more than the
    oracle's (checked on the exhaustive cells)."""
    with monkeypatch.context() as patch:
        report, asked = _run(patch, verify_bridge, *cell)
    with monkeypatch.context() as patch:
        oracle, allowed = _run(patch, verify_bridge_per_call, *cell)
    assert report["pass"]
    assert json.dumps(report, sort_keys=True) == json.dumps(oracle, sort_keys=True)
    if cell[3] is not None:
        with monkeypatch.context() as patch:
            _report, allowed = _run(patch, verify_bridge, *cell[:3], None, 0)
    assert set(asked) <= set(allowed)


@pytest.mark.parametrize("cell, fails", FAILING + IHX_FAILING,
                         ids=["-".join(map(str, cell + tuple(fails)))
                              for cell, fails in FAILING + IHX_FAILING])
def test_forced_failures_name_the_same_counterexamples(monkeypatch, cell, fails):
    """A tuple named under a forced failure fails the oracle's test too."""
    with monkeypatch.context() as patch:
        report, asked = _run(patch, verify_bridge, *cell, fails)
        assert max(fails) <= len(asked)
        assert not report["pass"]
        assert _oracle_fails(report, *cell[:2])


def test_forced_failures_reach_naturality_and_coequalizer(monkeypatch):
    failed = set()
    for cell, fails in FAILING:
        with monkeypatch.context() as patch:
            report, _asked = _run(patch, verify_bridge, *cell, fails)
        failed.update(c["name"] for c in report["checks"] if not c["pass"])
    assert failed == {"naturality", "coequalizer"}


def _antipode_sign_flipped_on_one_leg(act):
    """A map action on fibers whose antipode has the wrong sign on a one-leg
    fiber."""

    def faulty(gen, pos, fibers):
        terms = act(gen, pos, fibers)
        if gen == "antipode" and len(fibers[pos - 1]) == 1:
            return [(-coeff, image) for coeff, image in terms]
        return terms

    return faulty


def _delta_shuffle_dropped(act):
    """A map action whose delta drops the last shuffle of a nonempty fiber."""

    def faulty(gen, pos, fibers):
        terms = act(gen, pos, fibers)
        return terms[:-1] if gen == "delta" and len(terms) > 1 else terms

    return faulty


def _mu_2_sign_flipped(mu_action):
    def faulty(i, vector, arity):
        image = mu_action(i, vector, arity)
        return {k: -c for k, c in image.items()} if i == 2 else image

    return faulty


def _inject(patch, fault, d, alphabet):
    """The named fault, in both drivers."""
    if fault in ("antipode", "delta"):
        wrap = _antipode_sign_flipped_on_one_leg if fault == "antipode" else _delta_shuffle_dropped
        patch.setattr(bridge, "_act_fibers", wrap(bridge._act_fibers))
        patch.setitem(globals(), "catass_act_per_call", wrap(catass_act_per_call))
    elif fault == "mu_action":
        patch.setattr(cl, "mu_action", _mu_2_sign_flipped(cl.mu_action))
    else:  # "ihx_row": the first relation row of J_d keeps its pivot alone,
        # in spaces built afresh and dropped after; A-spaces read no J row
        patch.setattr(cache, "_spaces", {})
        patch.setattr(cache, "_active_dir", None)
        rows = next(rows for c in range(2 * d + 1)
                    for rows in [j_space(d, c, alphabet).relations.rows] if rows)
        pivot = min(rows)
        patch.setitem(rows, pivot, {pivot: rows[pivot][pivot]})


EXHAUSTIVE = [(2, "trivial", 2, None, 0), (2, "trivial", 3, None, 0), (1, "gen:1:1", 2, None, 0)]
# (fault, cell, the check it must fail)
FAULTS = (
    [(fault, cell, "naturality") for fault in ("antipode", "delta") for cell in EXHAUSTIVE]
    + [("mu_action", cell, "coequalizer") for cell in EXHAUSTIVE[:2]]
    + [("ihx_row", (3, "trivial", 1, 300, 5), "ihx_image_vanishes")]
)


@pytest.mark.parametrize("fault, cell, check", FAULTS,
                         ids=["-".join(map(str, (fault, *cell))) for fault, cell, _ in FAULTS])
def test_a_fault_fails_the_same_checks_in_both_drivers(monkeypatch, fault, cell, check):
    d, spec, l, sample, seed = cell
    failed = []
    for driver in (verify_bridge, verify_bridge_per_call):
        with monkeypatch.context() as patch:
            _inject(patch, fault, d, alphabet_from_spec(spec))
            report = driver(d, alphabet_from_spec(spec), l, seed=seed, sample=sample)
            failed.append([c["name"] for c in report["checks"] if not c["pass"]])
            assert driver is verify_bridge_per_call or _oracle_fails(report, d, spec)
    assert check in failed[0]
    assert failed[0] == failed[1]


def _count_calls(monkeypatch, names):
    """Counters of calls to the named functions of ``arcs`` (of ``bridge``
    for ``_act_fibers``)."""
    counts = dict.fromkeys(names, 0)
    for name in counts:
        module = bridge if name == "_act_fibers" else ar

        def counting(*args, _name=name, _fn=getattr(module, name)):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counting)
    return counts


def test_work_per_labelled_key_is_done_once(monkeypatch):
    counts = _count_calls(monkeypatch, ("gr_act", "on_bare_arcs", "_is_zero_in_full_space",
                                        "_act_fibers"))
    assert verify_bridge(2, alphabet_from_spec("trivial"), 3)["pass"]
    # the per-call driver made 17,847 zero tests, one per (key, map, move) of
    # (d) and per tuple of (e), and 17,280 gr_act, 27,766 on_bare_arcs and
    # 17,280 _act_fibers calls; one zero test per class of (d) and (e) leaves
    # 1,020, and one block map per class reaches each class once
    assert counts["_is_zero_in_full_space"] == 1_020
    assert counts["gr_act"] == 915
    assert counts["on_bare_arcs"] == 105
    assert counts["_act_fibers"] == 915


def test_tuples_are_glued_as_keys_not_vectors(monkeypatch):
    """Each (d) tuple glues its key, and each image of a move of its block
    map, as one key (``arcs._glue_key``, one memoised relabelling); each (e)
    tuple glues its key along its two lifted maps.  The only vectors glued
    are the right-hand sides of (e), one per tuple."""
    trivial = alphabet_from_spec("trivial")
    for c in range(5):
        j_space(2, c, trivial)
    for m in (2, 3, 4):
        ar.a_space(trivial.rank, m, 2, trivial, class0=True)
    counts = _count_calls(monkeypatch, ("gr_act", "on_bare_arcs", "_is_zero_in_full_space",
                                        "_glue_key"))
    dg.relabel_key.cache_clear()
    assert verify_bridge(2, trivial, 3)["pass"]
    asked = dg.relabel_key.cache_info()
    # 3,697 on_bare_arcs calls when each tuple was glued as a one-term
    # vector; 3,664 _glue_key calls and 4,593 relabel_key asks for 80
    # relabellings while every fiber-ordered map was glued to find its class;
    # 2,570 asks for 53 while identity orders were asked too
    assert counts["on_bare_arcs"] == 105
    assert counts["_is_zero_in_full_space"] == 1_020
    assert counts["gr_act"] == 915
    assert counts["_glue_key"] == 1_641
    assert (asked.hits + asked.misses, asked.misses) == (741, 48)


def test_coequalizer_takes_each_mu_image_once(monkeypatch):
    """Check (e) asks ``catlie.mu_action`` once per tuple, and mu_i of a key
    is one memoised ``diagrams.glue_key``, which the STU relations share:
    over three arc counts in one process, no presentation reaches
    ``glue_pair`` twice with the same legs, and every mu image is among
    those glued."""
    glued = Counter()
    glue_pair = dg.glue_pair

    def counting(dia, a, b):
        glued[dia.legs, dia.tri, dia.edges, a, b] += 1
        return glue_pair(dia, a, b)

    monkeypatch.setattr(dg, "glue_pair", counting)
    monkeypatch.setattr(cache, "_active_dir", None)
    monkeypatch.setattr(cache, "_spaces", {})
    clear_dashed_memos()
    trivial = alphabet_from_spec("trivial")
    for l in (1, 2, 3):
        assert verify_bridge(2, trivial, l)["pass"]
    assert glued and max(glued.values()) == 1
    mu_images = {(dia.legs, dia.tri, dia.edges, i, c + 1)
                 for c in range(1, 4) for key in j_space(2, c + 1, trivial).span
                 for dia in [dg.rebuild(key)] for i in range(1, c + 1)}
    assert mu_images <= set(glued)
