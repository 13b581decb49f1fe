import json
import subprocess
import sys

import pytest

from beadiag import arcs as ar
from beadiag import cache
from beadiag.jspaces import j_space
from beadiag.words import TRIVIAL_ALPHABET, alphabet_from_spec


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
    ],
    ids=["dim-j-diverges", "outer-check-diverges", "dim-a-diverges", "list-halfedge",
         "vertex-not-object", "vertices-not-list", "bead-not-word"],
)
def test_bad_input_exits_2_without_traceback(args, stdin):
    proc = run_cli(*args, stdin=stdin)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_usage_error_exit_code():
    proc = run_cli("dim-j", "--d", "1")
    assert proc.returncode != 0


def test_cache_roundtrip(tmp_path):
    cache.set_cache_dir(str(tmp_path))
    try:
        gen11 = alphabet_from_spec("gen:1:1")
        space = j_space(1, 2, gen11)
        params = (1, 2, gen11.rank, gen11.elements)
        loaded = cache.roundtrip("jspace", params, space)
        assert loaded.span == space.span
        assert loaded.dimension == space.dimension
        assert loaded.relations.rows == space.relations.rows
        aspace = ar.a_space(0, 2, 1, TRIVIAL_ALPHABET)
        loaded2 = cache.roundtrip("aspace", ("t",), aspace)
        assert loaded2.span == aspace.span
        assert loaded2.dim(0) == aspace.dim(0)
        from beadiag.catlie import catlie_basis

        basis = catlie_basis(2, 2)
        loaded3 = cache.roundtrip("misc", ("catlie", 2, 2), basis)
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
