"""Checks (d) naturality and (e) coequalizer of ``verify_bridge`` make their
difference vectors once per glued arc key (for (e), per arc key and place
of the glued pair) and scale them by the gluing sign for every other (key,
map) pair.  The driver that glued and acted afresh for every (key, map) pair
is kept here verbatim as the oracle: the two must make the same zero-test
calls, with equal vectors in the same order, and give byte-identical
reports, also when the zero test is made to answer "nonzero" on chosen
calls.  The counter test pins how much work the memoised checks save
without timing anything.
"""

import itertools
import json
import random

import pytest

from beadiag import arcs as ar
from beadiag import bridge
from beadiag import catlie as cl
from beadiag.bridge import (
    FiberOrderedMap,
    alpha_dim,
    cat_ass_basis,
    glue,
    glue_vector,
    verify_bridge,
)
from beadiag.jspaces import j_space
from beadiag.linalg import echelonize, vaxpy, vec
from beadiag.words import alphabet_from_spec


def catass_act_per_call(gen, pos, fom: FiberOrderedMap):
    """``catass_act`` as it was: one validated map per image, no position
    check."""
    fibers = fom.fibers
    l = fom.target
    if gen == "eta":
        new = fibers[: pos - 1] + ((),) + fibers[pos - 1 :]
        return [(1, FiberOrderedMap(fom.source, l + 1, new))]
    if gen == "eps":
        if fibers[pos - 1]:
            return []
        new = fibers[: pos - 1] + fibers[pos:]
        return [(1, FiberOrderedMap(fom.source, l - 1, new))]
    if gen == "mu":
        merged = fibers[pos - 1] + fibers[pos]
        new = fibers[: pos - 1] + (merged,) + fibers[pos + 1 :]
        return [(1, FiberOrderedMap(fom.source, l - 1, new))]
    if gen == "antipode":
        new = fibers[: pos - 1] + (tuple(reversed(fibers[pos - 1])),) + fibers[pos:]
        return [((-1) ** len(fibers[pos - 1]), FiberOrderedMap(fom.source, l, new))]
    if gen == "delta":
        f = fibers[pos - 1]
        out = []
        for mask in itertools.product((0, 1), repeat=len(f)):
            one = tuple(x for x, b in zip(f, mask) if b == 0)
            two = tuple(x for x, b in zip(f, mask) if b == 1)
            new = fibers[: pos - 1] + (one, two) + fibers[pos:]
            out.append((1, FiberOrderedMap(fom.source, l + 1, new)))
        return out
    raise ValueError("unknown generator %r" % gen)


def mu_lifted_maps_per_call(fom: FiberOrderedMap, i):
    """``_mu_lifted_maps`` as it was: two validated maps, found through the
    fiber of i."""
    c = fom.source
    target_slot = next(t + 1 for t, f in enumerate(fom.fibers) if i in f)
    out = []
    for after in (True, False):
        fibers = []
        for t, f in enumerate(fom.fibers):
            if t + 1 == target_slot:
                p = f.index(i)
                if after:
                    f = f[: p + 1] + (c + 1,) + f[p + 1 :]
                else:
                    f = f[:p] + (c + 1,) + f[p:]
            fibers.append(f)
        out.append(FiberOrderedMap(c + 1, fom.target, tuple(fibers)))
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
    foms = {c: cat_ass_basis(c, l) for c in spaces}

    # (a) IHX relations die after gluing; the echelon rows span them all.
    # One sample per arity, and none after the first failure.
    def ihx_counterexample(c, r, fom):
        if not vanishes(glue_vector(fom, r)):
            return (c, fom.fibers, dict(r))

    for c, space in spaces.items():
        rows = [dict(sorted(r.items())) for _, r in sorted(space.relations.rows.items())]
        bad = first_failure([(c, r, f) for r in rows for f in foms[c]], ihx_counterexample)
        if bad:
            break
    record("ihx_image_vanishes", bad is None, bad)

    # (b) surjectivity of gluing onto the arc space; the rank cannot pass
    # the dimension, so the images stop once it is reached
    dim_arc = aspace.dim(0)
    basis = echelonize([])
    images = (glue(fom, key) for c, space in spaces.items() for fom in foms[c]
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

    def naturality_counterexample(key, fom):
        glued = glue(fom, key)
        for gen, positions in gens:
            for pos in positions:
                lhs = ar.gr_act(gen, pos, glued)
                rhs = vec(
                    (k2, coeff * c2)
                    for coeff, fom2 in catass_act_per_call(gen, pos, fom)
                    for k2, c2 in glue(fom2, key).items()
                )
                if not vanishes(vaxpy(lhs, -1, rhs)):
                    return (gen, pos, fom.fibers, key)

    bad = first_failure(
        [(key, fom) for c, space in spaces.items() for key in space.span for fom in foms[c]],
        naturality_counterexample,
    )
    record("naturality", bad is None, bad)

    # (e) coequalizer identity via the STU relation
    def coequalizer_counterexample(c, key, fom, i):
        fom_after, fom_before = mu_lifted_maps_per_call(fom, i)
        lhs = vaxpy(glue(fom_after, key), -1, glue(fom_before, key))
        rhs = glue_vector(fom, cl.mu_action(i, {key: 1}, c + 1))
        if not vanishes(vaxpy(lhs, -1, rhs)):
            return (c, key, fom.fibers, i)

    bad = first_failure(
        [(c, key, fom, i) for c in range(1, 2 * d) for key in spaces[c + 1].span
         for fom in foms[c] for i in range(1, c + 1)],
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

# (cell, calls on which the zero test answers "nonzero"); in each of these
# cells check (d) makes the first calls and check (e) the last ones
FAILING = [
    ((2, "trivial", 2, None, 0), fails) for fails in ([1], [700], [3000], [4100], [4130], [700, 4100])
] + [
    ((1, "gen:1:1", 2, 7, 2), fails) for fails in ([1], [40], [72], [76], [40, 44])
] + [
    ((2, "trivial", 3, 50, 3), fails) for fails in ([1], [300], [751], [800], [300, 320])
] + [
    ((2, "trivial", 3, None, 0), fails) for fails in ([17000], [17500])
]


def _run(monkeypatch, driver, d, spec, l, sample, seed, fails=()):
    """The report as JSON and every vector the zero test was asked about."""
    asked = []
    zero_test = ar._is_zero_in_full_space

    def recording(vector, degree, alphabet):
        asked.append(list(vector.items()))
        if len(asked) in fails:
            return False
        return zero_test(vector, degree, alphabet)

    monkeypatch.setattr(ar, "_is_zero_in_full_space", recording)
    report = driver(d, alphabet_from_spec(spec), l, seed=seed, sample=sample)
    monkeypatch.undo()
    return json.dumps(report, sort_keys=True), asked


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: "-".join(map(str, cell)))
def test_memoised_checks_match_the_per_call_driver(monkeypatch, cell):
    report, asked = _run(monkeypatch, verify_bridge, *cell)
    assert json.loads(report)["pass"]
    assert (report, asked) == _run(monkeypatch, verify_bridge_per_call, *cell)


@pytest.mark.parametrize("cell, fails", FAILING,
                         ids=["-".join(map(str, cell + tuple(fails))) for cell, fails in FAILING])
def test_forced_failures_name_the_same_counterexamples(monkeypatch, cell, fails):
    report, asked = _run(monkeypatch, verify_bridge, *cell, fails)
    assert not json.loads(report)["pass"]
    assert (report, asked) == _run(monkeypatch, verify_bridge_per_call, *cell, fails)


def test_forced_failures_reach_naturality_and_coequalizer(monkeypatch):
    failed = set()
    for cell, fails in FAILING:
        report, _asked = _run(monkeypatch, verify_bridge, *cell, fails)
        failed.update(c["name"] for c in json.loads(report)["checks"] if not c["pass"])
    assert failed == {"naturality", "coequalizer"}


def test_work_per_labelled_key_is_done_once(monkeypatch):
    counts = dict.fromkeys(("gr_act", "on_bare_arcs", "_is_zero_in_full_space",
                            "_act_fibers"), 0)
    for name in counts:
        module = bridge if name == "_act_fibers" else ar

        def counting(*args, _name=name, _fn=getattr(module, name)):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counting)
    assert verify_bridge(2, alphabet_from_spec("trivial"), 3)["pass"]
    # the same zero tests as the per-call driver, which also made 17,280
    # gr_act, 27,766 on_bare_arcs and 17,280 _act_fibers calls; memoised per
    # labelled key and per map, the checks made 2,265, 6,210 and 6,480
    assert counts["_is_zero_in_full_space"] == 17_847
    assert counts["gr_act"] <= 915
    assert counts["on_bare_arcs"] <= 3_697
    assert counts["_act_fibers"] <= 915
