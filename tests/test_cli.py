import io
import json
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from beadiag import arcs as ar
from beadiag import cache, cli, jspaces
from beadiag import diagrams as dg
from beadiag.jspaces import j_space
from beadiag.linalg import EchelonBasis, vaxpy
from beadiag.words import TRIVIAL_ALPHABET, alphabet_from_spec

from json_fuzzer import mutate


def run_cli(*args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "beadiag.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
    )
    return proc


def test_dim_j_example():
    proc = run_cli("dim-j", "--d", "1", "--m", "2", "--alphabet", "trivial")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["dim"] == 1
    assert out["alphabet"] == "trivial"
    assert {"d", "m", "span_size", "relation_rank"} <= set(out)


def test_outer_check_passes_and_fails():
    proc = run_cli("outer-check", "--d", "2", "--alphabet", "trivial")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outer"] is True
    proc = run_cli("outer-check", "--d", "1", "--alphabet", "gen:1:1")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["outer"] is False
    assert out["witness"]["image"]


def test_verify_exit_codes():
    proc = run_cli("verify", "bridge", "--d", "1", "--l", "2", "--alphabet", "trivial")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True
    proc = run_cli("verify", "filtration", "--d", "1", "--l", "2", "--t", "1",
                   "--alphabet", "trivial")
    assert proc.returncode == 0


def test_csv_format():
    proc = run_cli("--format", "csv", "dim-a", "--n", "0", "--m", "2", "--d", "1")
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("n,m,d,alphabet")
    assert lines[1].split(",")[6] == "3"


def test_enumerate_and_canonical_pipeline():
    proc = run_cli("enumerate", "--d", "1", "--m", "2", "--alphabet", "gen:1:1")
    out = json.loads(proc.stdout)
    assert out["count"] == 3
    dia = out["diagrams"][0]
    proc2 = run_cli("canonical", stdin=json.dumps(dia))
    res = json.loads(proc2.stdout)
    assert res["zero"] is False and res["sign"] == 1
    assert res["canonical"] == dia


def test_canonical_rejects_bad_json():
    proc = run_cli("canonical", stdin=json.dumps({"vertices": [], "edges": "x"}))
    assert proc.returncode != 0


def test_reference_subcommands():
    proc = run_cli("reference", "b_d0", "--d", "2", "--m", "3")
    assert json.loads(proc.stdout)["dim"] == 21
    proc = run_cli("reference", "a11", "--alphabet", "gen:1:1", "--m", "1")
    assert json.loads(proc.stdout)["dim"] == 3


def test_deterministic_output():
    args = ("verify", "bridge", "--d", "1", "--l", "2", "--alphabet", "gen:1:1",
            "--seed", "7")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0 and json.loads(a.stdout)["pass"] is True
    assert a.stdout == b.stdout


def test_global_flags_accepted_on_either_side_of_the_subcommand():
    before = run_cli("--format", "csv", "dim-j", "--d", "1", "--m", "2")
    after = run_cli("dim-j", "--d", "1", "--m", "2", "--format", "csv")
    assert before.returncode == 0 and after.returncode == 0
    assert before.stdout == after.stdout


def test_clean_error_for_bad_input():
    proc = run_cli("dim-j", "--d", "1", "--m", "2", "--alphabet", "free:2")
    assert proc.returncode == 2
    assert proc.stdout == ""  # no partial report
    assert "error:" in proc.stderr


_LIST_HALFEDGE = {
    "vertices": [
        {"id": 0, "kind": "uni", "label": 1, "halfedge": [0]},
        {"id": 1, "kind": "uni", "label": 2, "halfedge": 1},
    ],
    "edges": [{"id": 0, "from": 0, "to": 1, "beads": []}],
}

_BOOL_LABEL = {
    "vertices": [
        {"id": 0, "kind": "uni", "label": True, "halfedge": 0},
        {"id": 1, "kind": "uni", "label": 2, "halfedge": 1},
    ],
    "edges": [{"id": 0, "from": 0, "to": 1, "beads": []}],
}


# out-of-range parameters, each with the name its error message gives
_RANGE_ERRORS = [
    (("reference", "b_d0", "--d", "-1", "--m", "2"), "d "),
    (("reference", "a11", "--m", "-1"), "m "),
    (("verify", "b_d0", "--d", "1", "--m", "-2"), " m "),
    (("cross-effect", "--n", "0", "--d", "1", "--k", "0"), "k "),
    (("verify", "bridge", "--d", "1", "--l", "-1"), "l "),
    (("verify", "filtration", "--d", "2", "--l", "-1", "--t", "0"), "l "),
    (("verify", "filtration", "--d", "2", "--l", "2", "--t", "-1"), "t "),
    (("dim-a", "--n", "0", "--m", "1", "--d", "1", "--min-trivalent", "-1"), "min_trivalent "),
    (("dim-a", "--n", "-1", "--m", "1", "--d", "1"), "n "),
]


@pytest.mark.parametrize(
    "args,stdin",
    [
        # beaded closures with internal edges diverge (ClosureDiverged)
        (("dim-j", "--d", "2", "--m", "2", "--alphabet", "gen:1:1"), None),
        (("outer-check", "--d", "2", "--alphabet", "gen:1:1"), None),
        (("dim-a", "--n", "1", "--m", "1", "--d", "2", "--alphabet", "gen:1:1"), None),
        (("canonical",), json.dumps(_LIST_HALFEDGE)),
        (("canonical",), json.dumps({"vertices": [1], "edges": []})),
        (("canonical",), json.dumps({"vertices": {"a": 1}, "edges": []})),
        (("canonical",), json.dumps({"vertices": [], "edges": [
            {"from": 0, "to": 1, "beads": [3]}]})),
        (("canonical",), json.dumps(_BOOL_LABEL)),
        # a decoder past its recursion limit, a bead too long to expand
        (("canonical",), "[" * 200000 + "]" * 200000),
        (("canonical",), json.dumps({"vertices": [], "edges": [
            {"from": 0, "to": 1, "beads": ["x1^99999999999"]}]})),
        # negative degrees and empty samples are out of range
        (("verify", "bridge", "--d", "-1", "--l", "1"), None),
        (("verify", "bridge", "--d", "1", "--l", "2", "--sample", "0"), None),
        (("verify", "bridge", "--d", "1", "--l", "2", "--sample", "-1"), None),
        (("dim-a", "--n", "0", "--m", "1", "--d", "-1"), None),
        (("verify", "hopf-axioms", "--d", "-1", "--m", "1"), None),
        (("outer-check", "--d", "-1"), None),
        *((args, None) for args, _name in _RANGE_ERRORS),
    ],
    ids=["dim-j-diverges", "outer-check-diverges", "dim-a-diverges", "list-halfedge",
         "vertex-not-object", "vertices-not-list", "bead-not-word", "bool-label",
         "json-too-deep", "bead-too-long",
         "bridge-negative-degree", "bridge-sample-zero", "bridge-sample-negative",
         "dim-a-negative-degree", "hopf-axioms-negative-degree", "outer-check-negative-degree",
         "reference-b_d0-negative-degree", "reference-a11-negative-rank",
         "verify-b_d0-negative-rank", "cross-effect-k-zero", "bridge-negative-arcs",
         "filtration-negative-arcs", "filtration-negative-trivalents",
         "dim-a-negative-min-trivalent", "dim-a-negative-rank"],
)
def test_bad_input_exits_2_without_traceback(args, stdin):
    proc = run_cli(*args, stdin=stdin)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args,name", _RANGE_ERRORS)
def test_range_error_names_the_parameter_given(args, name, capsys):
    assert cli.main(list(args)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and name in captured.err


def test_usage_error_exit_code():
    proc = run_cli("dim-j", "--d", "1")
    assert proc.returncode != 0


def test_cache_roundtrip(tmp_path):
    def roundtrip(kind, params, obj):
        cache.put(kind, params, obj)
        return cache.get(kind, params)

    cache.set_cache_dir(str(tmp_path))
    try:
        gen11 = alphabet_from_spec("gen:1:1")
        space = j_space(1, 2, gen11)
        params = (1, 2, gen11.rank, gen11.elements)
        loaded = roundtrip("jspace", params, space)
        assert loaded.span == space.span
        assert loaded.dimension == space.dimension
        assert loaded.relations.rows == space.relations.rows
        aspace = ar.a_space(0, 2, 1, TRIVIAL_ALPHABET)
        loaded2 = roundtrip("aspace", ("t",), aspace)
        assert loaded2.span == aspace.span
        assert loaded2.dim(0) == aspace.dim(0)
        from beadiag.catlie import catlie_basis

        basis = catlie_basis(2, 2)
        loaded3 = roundtrip("misc", ("catlie", 2, 2), basis)
        assert loaded3 == basis
    finally:
        cache.set_cache_dir(None)


def test_cache_corruption_falls_back(tmp_path):
    cache.set_cache_dir(str(tmp_path))
    try:
        cache.put("junk", ("x",), {"a": 1})
        path = cache._entry_path("junk", ("x",))
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")
        assert cache.get("junk", ("x",)) is None
    finally:
        cache.set_cache_dir(None)


def test_cache_used_by_cli(tmp_path):
    args = ("--cache-dir", str(tmp_path), "dim-a", "--n", "0", "--m", "3", "--d", "1")
    a = run_cli(*args)
    assert a.returncode == 0
    files = list(tmp_path.iterdir())
    assert files  # spaces were stored
    b = run_cli(*args)
    assert b.stdout == a.stdout


# a pickle naming a class in a module that does not exist
_MISSING_MODULE = b"cbeadiag_no_such_module\nThing\n."

_CACHED_COMMANDS = {
    "jspace": (["dim-j", "--d", "1", "--m", "2"],
               (1, 2, TRIVIAL_ALPHABET.rank, TRIVIAL_ALPHABET.elements)),
    "aspace": (["dim-a", "--n", "0", "--m", "2", "--d", "1"],
               (2, 1, TRIVIAL_ALPHABET.rank, TRIVIAL_ALPHABET.elements, True)),
}


def _forget_spaces(monkeypatch):
    monkeypatch.setattr(cache, "_spaces", {})


@pytest.mark.parametrize("entry", ["truncated", "garbage", "wrong-type", "missing-module"])
@pytest.mark.parametrize("kind", ["jspace", "aspace"])
def test_bad_cache_entry_is_recomputed(tmp_path, monkeypatch, capsys, kind, entry):
    monkeypatch.setattr(cache, "_active_dir", None)
    command, params = _CACHED_COMMANDS[kind]
    argv = ["--cache-dir", str(tmp_path)] + command
    _forget_spaces(monkeypatch)
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    path = cache._entry_path(kind, params)
    with open(path, "rb") as fh:
        good = fh.read()
    bad = {
        "truncated": good[: len(good) // 2],
        "garbage": b"not a pickle",
        "wrong-type": pickle.dumps([1, 2]),
        "missing-module": _MISSING_MODULE,
    }[entry]
    with open(path, "wb") as fh:
        fh.write(bad)
    _forget_spaces(monkeypatch)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
    # the recomputed space replaced the bad entry
    cls = jspaces.JSpace if kind == "jspace" else ar.ASpace
    assert isinstance(cache.get(kind, params, cls), cls)


def test_stale_aspace_pickle_loads_and_is_rebuilt(tmp_path, monkeypatch):
    # older entries pickled an ASpace that still carried a field dropped
    # since: n in version 1, closure in version 2
    monkeypatch.setattr(cache, "_active_dir", None)
    params = _CACHED_COMMANDS["aspace"][1]
    for version, field, value in [(1, "n", 0), (2, "closure", ())]:
        cache.set_cache_dir(None)
        _forget_spaces(monkeypatch)
        stale = ar.a_space(0, 2, 1, TRIVIAL_ALPHABET)
        setattr(stale, field, value)
        cache_dir = tmp_path / str(version)
        cache.set_cache_dir(str(cache_dir))
        with monkeypatch.context() as m:
            m.setattr(cache, "CACHE_VERSION", version)
            cache.put("aspace", params, stale)
            old = cache.get("aspace", params, ar.ASpace)
            assert getattr(old, field) == value and old.dim(0) == stale.dim(0)
        assert cache.get("aspace", params) is None  # another version, another entry
        _forget_spaces(monkeypatch)
        fresh = ar.a_space(0, 2, 1, TRIVIAL_ALPHABET)
        assert not hasattr(fresh, field) and fresh.dim(0) == stale.dim(0)
        assert not hasattr(cache.get("aspace", params, ar.ASpace), field)
        assert len(os.listdir(cache_dir)) == 2


def test_stale_jspace_dimension_is_not_read(tmp_path, monkeypatch, capsys):
    # version-3 entries pickled a stored dimension; the dimension is now
    # derived from the rows, so a wrong stored value is never reported
    monkeypatch.setattr(cache, "_active_dir", None)
    command, params = _CACHED_COMMANDS["jspace"]
    _forget_spaces(monkeypatch)
    stale = j_space(1, 2, TRIVIAL_ALPHABET)
    stale.__dict__["dimension"] = 99
    cache.set_cache_dir(str(tmp_path))
    cache.put("jspace", params, stale)
    _forget_spaces(monkeypatch)
    assert cli.main(["--cache-dir", str(tmp_path)] + command) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dim"] == report["span_size"] - report["relation_rank"] == 1
    loaded = cache.get("jspace", params, jspaces.JSpace)
    assert loaded.__dict__["dimension"] == 99  # the stale entry was read, not rebuilt
    assert loaded.dimension == 1


def test_jspace_rows_outside_the_span_are_a_miss(tmp_path, monkeypatch, capsys):
    # the closure holds every key its relations touch, so an entry whose
    # rows leave its span is corrupt: it is rebuilt, not read
    monkeypatch.setattr(cache, "_active_dir", None)
    command, params = _CACHED_COMMANDS["jspace"]
    argv = ["--cache-dir", str(tmp_path)] + command
    _forget_spaces(monkeypatch)
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    clean = cache.get("jspace", params, jspaces.JSpace)
    (key,) = clean.span
    tampered = jspaces.JSpace(clean.d, clean.m, clean.alphabet, clean.span, EchelonBasis())
    tampered.relations.rows[key] = {key: Fraction(1), (2, 0, ((0, 1, ((1, 1),)),)): Fraction(1)}
    cache.put("jspace", params, tampered)  # a valid digest: the load check must refuse it
    _forget_spaces(monkeypatch)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
    rewritten = cache.get("jspace", params, jspaces.JSpace)
    assert rewritten.relations.rows == clean.relations.rows == {}


def _scaled_pivot(rows):
    p = min(rows)
    rows[p] = {k: 2 * c for k, c in rows[p].items()}


def _pivot_off_the_smallest_key(rows):
    p = min(rows)
    row = rows.pop(p)
    rows[max(row)] = row


def _support_on_another_pivot(rows):
    p, q = sorted(rows)[:2]
    rows[p] = vaxpy(rows[p], 1, rows[q])


# one cell per space kind with at least two rows, one of them of two terms or more
_ECHELON_CELLS = {
    "aspace": (["dim-a", "--n", "0", "--m", "1", "--d", "2"],
               (1, 2, TRIVIAL_ALPHABET.rank, TRIVIAL_ALPHABET.elements, True), ar.ASpace),
    "jspace": (["dim-j", "--d", "3", "--m", "3"],
               (3, 3, TRIVIAL_ALPHABET.rank, TRIVIAL_ALPHABET.elements), jspaces.JSpace),
}


@pytest.mark.parametrize("tamper", [_scaled_pivot, _pivot_off_the_smallest_key,
                                    _support_on_another_pivot])
@pytest.mark.parametrize("kind", sorted(_ECHELON_CELLS))
def test_rows_out_of_echelon_form_are_a_miss(tmp_path, monkeypatch, capsys, kind, tamper):
    # the rows of a built space are in reduced echelon form, so an entry
    # whose rows are not is corrupt: it is rebuilt, not read
    monkeypatch.setattr(cache, "_active_dir", None)
    command, params, cls = _ECHELON_CELLS[kind]
    argv = ["--cache-dir", str(tmp_path)] + command
    _forget_spaces(monkeypatch)
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    clean = cache.get(kind, params, cls)
    assert len(clean.relations.rows) >= 2 and max(map(len, clean.relations.rows.values())) >= 2
    tampered = pickle.loads(pickle.dumps(clean))
    tamper(tampered.relations.rows)
    assert tampered.relations.rows != clean.relations.rows
    cache.put(kind, params, tampered)  # a valid digest: the load check must refuse it
    _forget_spaces(monkeypatch)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
    rewritten = cache.get(kind, params, cls)
    assert rewritten.relations.rows == clean.relations.rows


@pytest.mark.parametrize("digest", ["none", "stale"])
def test_self_consistent_but_edited_entry_is_a_miss(tmp_path, monkeypatch, capsys, digest):
    # dropping a row leaves the rows in reduced echelon form and inside the
    # span, so only the digest of the stored pickle can tell it was edited
    monkeypatch.setattr(cache, "_active_dir", None)
    command, params, cls = _ECHELON_CELLS["jspace"]
    argv = ["--cache-dir", str(tmp_path)] + command
    _forget_spaces(monkeypatch)
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    assert json.loads(expected)["dim"] == 1
    path = cache._entry_path("jspace", params)
    with open(path, "rb") as fh:
        stored = fh.read()
    tampered = pickle.loads(stored)
    tampered.relations.rows.popitem()
    edited = pickle.dumps(tampered) + {"none": b"", "stale": stored[-32:]}[digest]
    with open(path, "wb") as fh:
        fh.write(edited)
    _forget_spaces(monkeypatch)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
    assert cache.get("jspace", params, cls).dimension == 1


def test_canonical_survives_mutated_json(monkeypatch, capsys):
    gen11 = alphabet_from_spec("gen:1:1")
    seeds = [
        dg.diagram_to_json(dg.rebuild(key))
        for d in (0, 1, 2)
        for m in range(0, 2 * d + 1)
        for key in dg.enumerate_diagrams(d, m, gen11)
    ]
    rng = random.Random(2024)
    codes = set()
    for case in range(1000):
        doc = mutate(rng, rng.choice(seeds), rng.randint(1, 3))
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        try:
            code = cli.main(["canonical"])
        except Exception as exc:
            pytest.fail("case %d %r raised %r" % (case, doc, exc))
        assert code in (0, 2), (case, doc)
        codes.add(code)
    capsys.readouterr()
    assert codes == {0, 2}
