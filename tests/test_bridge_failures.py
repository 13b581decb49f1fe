"""``verify_bridge`` reports when the arc zero test fails on chosen vectors.

The zero test ``arcs._is_zero_in_full_space`` decides checks (a), (d) and
(e).  Each run below numbers the distinct vectors it is asked about, up to
sign, in the order first asked, and lets it answer truthfully except on
the listed numbers, where it answers "nonzero" on every ask of that vector
or its negative, as a linear test would; the report then names the first
counterexample whose vector is listed.  How often the driver asks about a
vector does not matter.  A failure stops its check, so in a sampled run
the later checks draw their samples from whatever the earlier checks left
of the seeded generator; runs with two failing numbers show that state.
``bridge_failures.json`` holds the recorded reports; a change to the
failure search, its sampling or its order of checks fails here.  To
re-record after a deliberate change (and say so in CHANGES.md):

    PYTHONPATH=src python tests/test_bridge_failures.py
"""

import functools
import json
import os

import pytest

from beadiag import arcs as ar
from beadiag.bridge import verify_bridge
from beadiag.words import alphabet_from_spec

from reference_helpers import numbered_zero_test

FIXTURE = os.path.join(os.path.dirname(__file__), "bridge_failures.json")

# (d, alphabet, l, sample, seed, runs of failing numbers); a passing cell
# asks about its vectors in (a) first, then (d), then (e).  Every (d) vector
# vanishes before the quotient, so the number of the empty vector fails (d)
# together with the first (e) tuple whose vector is empty.  J_d has IHX
# relations only from d = 3 on, so only the d = 3 cells reach check (a).
CELLS = [
    (1, "trivial", 2, None, 0, [(1,)]),
    (1, "gen:1:1", 2, None, 0, [(1,), (2,), (3,)]),
    (1, "gen:1:1", 2, 7, 2, [(1,), (2,), (3,)]),
    (2, "trivial", 2, None, 0, [(1,), (2,), (6,), (15,)]),
    (2, "trivial", 2, 20, 3, [(1,), (2,), (8,), (10,)]),
    (3, "trivial", 1, 4, 5, [(1,), (6,), (7,), (8,), (1, 2), (6, 7)]),
    (3, "trivial", 1, 30, 5, [(1,), (6,), (7,), (20,), (25,), (3, 4)]),
]
RUNS = [(d, spec, l, sample, seed, list(fails))
        for d, spec, l, sample, seed, runs in CELLS for fails in runs]


def _report(monkeypatch, d, spec, l, sample, seed, fails):
    failing, asked = numbered_zero_test(ar._is_zero_in_full_space, fails)
    monkeypatch.setattr(ar, "_is_zero_in_full_space", failing)
    report = verify_bridge(d, alphabet_from_spec(spec), l, seed=seed, sample=sample)
    monkeypatch.undo()
    # a number the run never reaches would inject nothing
    assert max(fails) <= len(asked), "the run asks about %d vectors" % len(asked)
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
