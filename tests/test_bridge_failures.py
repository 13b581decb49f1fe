"""``verify_bridge`` reports when the arc zero test fails on one call.

The zero test ``arcs._is_zero_in_full_space`` decides checks (a), (d) and
(e).  Each run below lets it answer truthfully except on the listed calls,
where it answers "nonzero"; the report then names the counterexamples
those calls were made for.  A failure stops its check, so in a sampled run
the later checks draw their samples from whatever the earlier checks left
of the seeded generator; runs with two failing calls show that state.
``bridge_failures.json`` holds the reports recorded before the bridge
refactors; a change to the failure search, its sampling or its order of
checks fails here.  To re-record after a deliberate change (and say so in
CHANGES.md):

    PYTHONPATH=src python tests/test_bridge_failures.py
"""

import functools
import json
import os

import pytest

from beadiag import arcs as ar
from beadiag.bridge import verify_bridge
from beadiag.words import alphabet_from_spec

FIXTURE = os.path.join(os.path.dirname(__file__), "bridge_failures.json")

# (d, alphabet, l, sample, seed, runs of failing calls); the calls of a
# passing cell go to (a) first, then (d), then (e).  J_d has IHX relations
# only from d = 3 on, so only the d = 3 cells reach check (a).
CELLS = [
    (1, "trivial", 2, None, 0, [(1,), (30,), (60,), (61,), (62,), (1, 2)]),
    (1, "gen:1:1", 2, None, 0, [(1,), (150,), (200,), (201,), (206,)]),
    (1, "gen:1:1", 2, 7, 2, [(5,), (70,), (71,), (76,), (3, 4)]),
    (2, "trivial", 2, None, 0, [(2000,), (4130,)]),
    (2, "trivial", 2, 20, 3, [(1,), (123,), (201,), (220,), (2, 3)]),
    (3, "trivial", 1, 4, 5, [(1,), (6,), (10,), (13,), (36,), (1, 2), (6, 7)]),
    (3, "trivial", 1, 30, 5, [(1,), (20,), (46,), (197,), (20, 21)]),
]
RUNS = [(d, spec, l, sample, seed, list(fails))
        for d, spec, l, sample, seed, runs in CELLS for fails in runs]


def _report(monkeypatch, d, spec, l, sample, seed, fails):
    calls = []
    zero_test = ar._is_zero_in_full_space

    def failing(vector, degree, alphabet):
        calls.append(None)
        if len(calls) in fails:
            return False
        return zero_test(vector, degree, alphabet)

    monkeypatch.setattr(ar, "_is_zero_in_full_space", failing)
    report = verify_bridge(d, alphabet_from_spec(spec), l, seed=seed, sample=sample)
    monkeypatch.undo()
    return json.dumps(report, sort_keys=True)


@functools.lru_cache(maxsize=None)
def _recorded():
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_fixture_matches_the_run_list():
    assert [e["run"] for e in _recorded()] == [list(run) for run in RUNS]


def test_every_failing_check_is_reached():
    failed = set()
    for entry in _recorded():
        report = json.loads(entry["report"])
        assert not report["pass"]
        failed.update(c["name"] for c in report["checks"] if not c["pass"])
    assert failed == {"ihx_image_vanishes", "naturality", "coequalizer"}


@pytest.mark.parametrize("index", range(len(RUNS)),
                         ids=["%s-%s-%s-%s-%s-%s" % (*run[:5], "+".join(map(str, run[5])))
                              for run in RUNS])
def test_injected_failure_report_is_unchanged(monkeypatch, index):
    entry = _recorded()[index]
    assert _report(monkeypatch, *entry["run"]) == entry["report"]


def record():
    patcher = pytest.MonkeyPatch()
    entries = [{"run": list(run), "report": _report(patcher, *run)} for run in RUNS]
    with open(FIXTURE, "w") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    record()
