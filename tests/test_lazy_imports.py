"""Lazy loading: ``import beadiag`` loads no layer, and each CLI command loads
only the layers it runs.

In-process tests share one interpreter in which every layer is already
loaded, so they cannot see an import cycle or a layer loaded too early; the
tests here that care run in a fresh interpreter.
"""

import argparse
import importlib
import json
import subprocess
import sys

import pytest

import beadiag
from beadiag import cli

from test_cli_golden import _STRUT, _recorded

# what a canonical or enumerate request must not load
HEAVY = {"beadiag.jspaces", "beadiag.linalg", "beadiag.cache", "beadiag.catlie",
         "beadiag.arcs", "beadiag.bridge", "beadiag.reference", "beadiag.laws",
         "dataclasses", "fractions", "hashlib", "pickle"}


def _fresh(script, *argv):
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_beadiag_loads_no_layer():
    loaded = _fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import beadiag\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    assert [m for m in loaded if m.startswith("beadiag")] == ["beadiag"]


def test_canonical_and_enumerate_load_only_words_and_diagrams(tmp_path):
    diagram = tmp_path / "strut.json"
    diagram.write_text(json.dumps(_STRUT))
    loaded = _fresh(
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "from beadiag import cli\n"
        "cache_dir, path = sys.argv[1:]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['--cache-dir', cache_dir, 'canonical', '--file', path]) == 0\n"
        "    assert cli.main(['--cache-dir', cache_dir, 'enumerate', '--d', '2', '--m', '2',\n"
        "                     '--alphabet', 'gen:1:1']) == 0\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n",
        str(tmp_path / "cache"), str(diagram))
    assert {"beadiag.cli", "beadiag.diagrams", "beadiag.words"} <= set(loaded)
    assert HEAVY.isdisjoint(loaded), sorted(HEAVY & set(loaded))


def _leaves(parser, prefix=()):
    """The subcommand paths of the parser, e.g. ('verify', 'bridge')."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [prefix]
    return [leaf for name, sub in subs[0].choices.items() for leaf in _leaves(sub, prefix + (name,))]


# the cheapest cell of each subcommand leaf, with its stdin
SMOKE = {
    ("dim-j",): (["dim-j", "--d", "2", "--m", "2"], None),
    ("dim-a",): (["dim-a", "--n", "0", "--m", "2", "--d", "1"], None),
    ("outer-check",): (["outer-check", "--d", "1", "--alphabet", "gen:1:1"], None),
    ("cross-effect",): (["cross-effect", "--n", "0", "--d", "1", "--k", "3"], None),
    ("enumerate",): (["enumerate", "--d", "1", "--m", "2", "--alphabet", "gen:1:1"], None),
    ("canonical",): (["canonical"], _STRUT),
    ("reference", "b_d0"): (["reference", "b_d0", "--d", "2", "--m", "3"], None),
    ("reference", "a11"): (["reference", "a11", "--alphabet", "gen:1:1", "--m", "1"], None),
    ("verify", "bridge"): (["verify", "bridge", "--d", "1", "--alphabet", "gen:1:1",
                            "--l", "2"], None),
    ("verify", "filtration"): (["verify", "filtration", "--d", "2", "--l", "2", "--t", "1"],
                               None),
    ("verify", "a11"): (["verify", "a11", "--alphabet", "gen:1:1", "--m", "2"], None),
    ("verify", "b_d0"): (["verify", "b_d0", "--d", "2", "--m", "2"], None),
    ("verify", "hopf-axioms"): (["verify", "hopf-axioms", "--d", "1", "--alphabet", "gen:1:1",
                                 "--m", "2"], None),
    ("verify", "gr-laws"): (["verify", "gr-laws", "--d", "1", "--alphabet", "gen:1:1",
                             "--m", "2"], None),
}


def test_space_building_commands_load_neither_dataclasses_nor_inspect(tmp_path):
    # the result types are plain classes and tuples; importing dataclasses
    # would load inspect (and ast, dis, tokenize) on every such request
    cells = [SMOKE[leaf][0] for leaf in [("dim-j",), ("dim-a",), ("cross-effect",),
                                         ("outer-check",), ("verify", "bridge")]]
    loaded = _fresh(
        "import contextlib, io, json, sys\n"
        "from beadiag import cli\n"
        "cache_dir, cells = sys.argv[1], json.loads(sys.argv[2])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for args in cells:\n"
        "        assert cli.main(['--cache-dir', cache_dir] + args) == 0, args\n"
        "print(json.dumps(sorted(sys.modules)))\n",
        str(tmp_path), json.dumps(cells))
    assert {"beadiag.jspaces", "beadiag.arcs", "beadiag.catlie", "beadiag.bridge"} <= set(loaded)
    assert {"dataclasses", "inspect"}.isdisjoint(loaded)


def test_every_subcommand_has_a_smoke_cell():
    assert sorted(_leaves(cli.build_parser())) == sorted(SMOKE)


@pytest.mark.parametrize("leaf", sorted(SMOKE), ids=[" ".join(leaf) for leaf in sorted(SMOKE)])
def test_subcommand_runs_in_a_fresh_interpreter(leaf, tmp_path):
    args, stdin = SMOKE[leaf]
    proc = subprocess.run(
        [sys.executable, "-m", "beadiag.cli", "--cache-dir", str(tmp_path), *args],
        capture_output=True, text=True, input=None if stdin is None else json.dumps(stdin))
    assert proc.returncode == 0, proc.stderr
    golden = [e for e in _recorded() if e["args"] == args and e["stdin"] == stdin]
    if golden:
        assert proc.stdout == golden[0]["stdout"]
    else:
        assert json.loads(proc.stdout)["command"] == leaf[0]


@pytest.mark.parametrize("name", beadiag.__all__)
def test_every_exported_name_is_the_layer_object(name):
    layer = importlib.import_module("beadiag." + beadiag._LAYER_OF[name])
    assert getattr(beadiag, name) is getattr(layer, name)


def test_star_and_name_imports_resolve():
    namespace = {}
    exec("from beadiag import *\nfrom beadiag import j_space as js", namespace)
    assert set(beadiag.__all__) <= set(namespace)
    assert namespace["js"] is importlib.import_module("beadiag.jspaces").j_space


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        beadiag.nope  # noqa: B018
    assert not hasattr(beadiag, "nope")
