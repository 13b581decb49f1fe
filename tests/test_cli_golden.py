"""Byte-identical CLI reports on a fixed corpus of fast commands.

``cli_golden.json`` holds each command's arguments, its stdin and the exact
stdout recorded before the enumeration and space-builder refactors; a
refactor that changes any report byte fails here.  To re-record after a
deliberate output change (and say so in CHANGES.md):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import functools
import json
import os
import subprocess
import sys

import pytest

FIXTURE = os.path.join(os.path.dirname(__file__), "cli_golden.json")

_TRIPOD = {
    "vertices": [
        {"id": 0, "kind": "uni", "label": 1, "halfedge": 11},
        {"id": 1, "kind": "uni", "label": 2, "halfedge": 10},
        {"id": 2, "kind": "uni", "label": 3, "halfedge": 12},
        {"id": 3, "kind": "tri", "cyclic": [22, 20, 21]},
    ],
    "edges": [
        {"id": 0, "from": 20, "to": 10, "beads": ["x1"]},
        {"id": 1, "from": 11, "to": 21, "beads": ["x2^-1", "x1"]},
        {"id": 2, "from": 22, "to": 12, "beads": []},
    ],
}
_STRUT = {
    "vertices": [
        {"id": 0, "kind": "uni", "label": 2, "halfedge": 5},
        {"id": 1, "kind": "uni", "label": 1, "halfedge": 3},
    ],
    "edges": [{"id": 0, "from": 5, "to": 3, "beads": ["x1*x2", "x2^-1"]}],
}
_TADPOLE = {
    "vertices": [
        {"id": 0, "kind": "uni", "label": 1, "halfedge": 0},
        {"id": 1, "kind": "tri", "cyclic": [1, 2, 3]},
    ],
    "edges": [
        {"id": 0, "from": 0, "to": 1, "beads": []},
        {"id": 1, "from": 2, "to": 3, "beads": []},
    ],
}

COMMANDS = [
    (["enumerate", "--d", "1", "--m", "2", "--alphabet", "gen:1:1"], None),
    (["enumerate", "--d", "1", "--m", "2", "--alphabet", "gen:2:2"], None),
    (["enumerate", "--d", "3", "--m", "2"], None),
    (["dim-a", "--n", "0", "--m", "2", "--d", "1"], None),
    (["dim-a", "--n", "0", "--m", "3", "--d", "2", "--min-trivalent", "1"], None),
    (["dim-a", "--n", "0", "--m", "2", "--d", "2", "--min-trivalent", "2"], None),
    (["dim-a", "--n", "1", "--m", "2", "--d", "1", "--alphabet", "gen:1:1", "--full"], None),
    (["dim-a", "--n", "1", "--m", "2", "--d", "1", "--alphabet", "gen:1:1", "--full",
      "--min-trivalent", "1"], None),
    (["dim-a", "--n", "2", "--m", "1", "--d", "1", "--alphabet", "gen:2:2", "--full",
      "--min-trivalent", "1"], None),
    (["dim-a", "--n", "2", "--m", "1", "--d", "1", "--alphabet", "gen:2:2",
      "--min-trivalent", "1"], None),
    (["dim-a", "--n", "2", "--m", "2", "--d", "0", "--alphabet", "gen:2:2", "--full"], None),
    (["--format", "csv", "dim-a", "--n", "1", "--m", "1", "--d", "1", "--alphabet",
      "gen:1:1", "--full"], None),
    (["dim-a", "--n", "0", "--m", "2", "--d", "2", "--format", "csv"], None),
    (["dim-j", "--d", "2", "--m", "2"], None),
    (["dim-j", "--d", "1", "--m", "2", "--alphabet", "gen:2:2"], None),
    (["canonical"], _TRIPOD),
    (["canonical"], _STRUT),
    (["canonical"], _TADPOLE),
    (["cross-effect", "--n", "0", "--d", "1", "--k", "3"], None),
    (["cross-effect", "--n", "1", "--d", "1", "--k", "2", "--alphabet", "gen:1:1",
      "--full"], None),
    (["outer-check", "--d", "1", "--alphabet", "gen:1:1"], None),
    (["outer-check", "--d", "2"], None),
    (["verify", "filtration", "--d", "2", "--l", "2", "--t", "1"], None),
    (["verify", "bridge", "--d", "1", "--alphabet", "gen:1:1", "--l", "2"], None),
    (["verify", "bridge", "--d", "2", "--l", "2"], None),
    (["verify", "bridge", "--d", "2", "--l", "3", "--sample", "50", "--seed", "3"], None),
    (["verify", "gr-laws", "--d", "2", "--m", "2"], None),
    (["verify", "gr-laws", "--d", "1", "--alphabet", "gen:1:1", "--m", "2"], None),
    (["verify", "hopf-axioms", "--d", "1", "--alphabet", "gen:1:1", "--m", "2"], None),
    (["verify", "a11", "--alphabet", "gen:1:1", "--m", "2"], None),
    (["verify", "b_d0", "--d", "2", "--m", "2"], None),
    (["outer-check", "--d", "3"], None),
    (["outer-check", "--d", "1", "--alphabet", "gen:2:1"], None),
]


def _run(args, stdin):
    proc = subprocess.run(
        [sys.executable, "-m", "beadiag.cli", *args],
        capture_output=True,
        text=True,
        input=None if stdin is None else json.dumps(stdin),
    )
    return proc


@functools.lru_cache(maxsize=None)
def _recorded():
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_corpus_matches_the_command_list():
    assert [(e["args"], e["stdin"]) for e in _recorded()] == [
        (args, stdin) for args, stdin in COMMANDS
    ]


@pytest.mark.parametrize("index", range(len(COMMANDS)),
                         ids=[" ".join(args) for args, _stdin in COMMANDS])
def test_cli_output_is_byte_identical(index):
    entry = _recorded()[index]
    proc = _run(entry["args"], entry["stdin"])
    assert proc.returncode == entry["returncode"], proc.stderr
    assert proc.stdout == entry["stdout"]


def record():
    entries = []
    for args, stdin in COMMANDS:
        proc = _run(args, stdin)
        entries.append({"args": args, "stdin": stdin,
                        "returncode": proc.returncode, "stdout": proc.stdout})
    with open(FIXTURE, "w") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    record()
