"""Tests of the benchmark itself: tiny smoke passes of each workload, live
answer checking, self-time arithmetic, seeded inputs, and that tracing
rebinds every wrapped name."""

import json
import os
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _tiny_labelled():
    return [t for t in workloads.labelled_tasks(0)
            if t["fn"] in ("j_space", "alpha_dim") and t["args"][0] <= 2
            or t["fn"] == "b_di_dim"]


def _tiny_arcs():
    return [t for t in workloads.arcs_tasks(0)
            if t["fn"] == "a_space_dim" and t["args"][2] == 1
            or t["fn"] == "cross_effect_dim" and t["args"][2] == "trivial"
            or t["fn"] == "check_gr_laws" and t["args"][2] == 1]


def _tiny_queries():
    reqs = workloads.query_requests(0)
    out = {}
    for req in reqs:
        if "gen:2:3" not in req["argv"]:
            out.setdefault(req["kind"], req)
    dim_a = out["dim-a"]
    return list(out.values()) + [dim_a]  # a second ask reads the disk cache


def test_smoke_library_workloads():
    env = run.child_env()
    for tasks in (_tiny_labelled(), _tiny_arcs()):
        res = run.library_pass(tasks, env)
        assert res["failures"] == []
        assert res["attempted"] == len(tasks) == len(res["latencies_s"]) > 3
        assert res["wall_s"] > 0


def test_smoke_queries_workload():
    reqs = _tiny_queries()
    assert {r["kind"] for r in reqs} == {"canonical", "enumerate", "reference", "verify",
                                         "dim-j", "dim-a"}
    with tempfile.TemporaryDirectory() as work:
        res = run.queries_pass(reqs, run.child_env(), work)
    assert res["failures"] == []
    assert res["attempted"] == len(reqs)


def test_planted_wrong_expected_value_fails(monkeypatch):
    tasks = _tiny_labelled()[:3]
    tasks[1] = dict(tasks[1], expect=tasks[1]["expect"] + 1)
    monkeypatch.setattr(workloads, "generate", lambda workload, seed: tasks)
    args = run.parse_args(["--workload", "labelled", "--seed", "0", "--seconds", "0"])
    with tempfile.TemporaryDirectory() as work:
        record, result = run.measure(args, run.child_env(), work)
    assert record["fail_ratio"] > 0
    assert result["failed"] == 1 and not result["correct"]

    req = next(r for r in workloads.query_requests(0) if r["kind"] == "reference")
    bad = dict(req, expect={"dim": req["expect"]["dim"] + 1})
    with tempfile.TemporaryDirectory() as work:
        res = run.queries_pass([req, bad], run.child_env(), work)
    assert [f["id"] for f in res["failures"]] == [bad["id"]]


def test_self_times_of_nested_spans():
    # A [0,10] holds B [1,4] (which holds C [2,3]) and D [5,6]; E [11,12]
    # is a second top-level span, with a second C inside it
    names = ["A", "B", "C", "D", "E"]
    synthetic = [  # (name, parent index, start, end) in call order
        (0, -1, 0.0, 10.0),
        (1, 0, 1.0, 4.0),
        (2, 1, 2.0, 3.0),
        (3, 0, 5.0, 6.0),
        (4, -1, 11.0, 12.0),
        (2, 4, 11.25, 11.75),
    ]
    stats, top = spans.self_times(names, list(zip(*synthetic)))
    assert stats == {"A": (1, 6.0), "B": (1, 2.0), "C": (2, 1.5), "D": (1, 1.0), "E": (1, 0.5)}
    assert top == 11.0
    assert sum(s for _c, s in stats.values()) == top


def test_recorder_round_trip(tmp_path):
    rec = spans.Recorder("r1")
    inner = rec.wrap("m.inner", lambda x: x + 1)
    outer = rec.wrap("m.outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    path = str(tmp_path / "spans")
    rec.dump(path, extra={"k": 1})
    header, columns = spans.load(path)
    assert header["run_id"] == "r1" and header["extra"] == {"k": 1}
    assert columns == rec.columns()
    stats, top = spans.self_times(header["names"], columns)
    assert stats["m.outer"][0] == 1 and stats["m.inner"][0] == 2
    assert list(columns[1]) == [-1, 0, 0]


def test_seeded_inputs():
    for workload in workloads.WORKLOADS:
        assert json.dumps(workloads.generate(workload, 3)) == json.dumps(workloads.generate(workload, 3))
    for workload in ("labelled", "arcs"):
        a, b = workloads.generate(workload, 3), workloads.generate(workload, 4)
        assert a != b and sorted(t["id"] for t in a) == sorted(t["id"] for t in b)
    a, b = workloads.query_requests(3), workloads.query_requests(4)
    assert len(a) == len(b) >= 200
    canon_a = [r["stdin"] for r in a if r["kind"] == "canonical"]
    canon_b = [r["stdin"] for r in b if r["kind"] == "canonical"]
    assert canon_a != canon_b


def test_every_wrapped_name_is_rebound():
    script = (
        "import json, spans, beadiag.cli\n"
        "from beadiag import jspaces, linalg, words\n"
        "rec = spans.Recorder('t')\n"
        "originals = spans.install(rec)\n"
        "jspaces.j_space(1, 2, words.alphabet_from_spec('trivial'))\n"
        "ids = {id(fn) for fn in originals}\n"
        "left = ['%s.%s' % (m.__name__, name) for m in spans._modules()\n"
        "        for name, obj in vars(m).items() if id(obj) in ids]\n"
        "print(json.dumps({'left': left,\n"
        "                  'wrapped': len(originals),\n"
        "                  'same': jspaces.echelonize is linalg.echelonize,\n"
        "                  'names': sorted(set(rec.names[i] for i in rec.name_ids))}))\n"
    )
    env = dict(run.child_env(), PYTHONPATH=os.pathsep.join([run.SRC, BENCH]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    out = json.loads(proc.stdout)
    assert out["left"] == []
    assert out["same"] and out["wrapped"] > 50
    assert {"jspaces.j_space", "jspaces.closure", "linalg.echelonize",
            "diagrams.enumerate_diagrams"} <= set(out["names"])


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert [m["name"] for m in bench["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run._unit(m["name"]) for m in bench["per_layer"])


def test_compare_verdicts():
    base = {s: 10.0 + 0.1 * s for s in range(10)}
    assert compare.verdict(base, {s: v * 1.5 for s, v in base.items()}, 0.1, True)[0].startswith(
        "REGRESSION")
    assert compare.verdict(base, {s: v * 0.5 for s, v in base.items()}, 0.1, True)[0].startswith(
        "better")
    assert compare.verdict(base, dict(base), 0.1, True)[0].startswith("no regression")
    noisy = {s: 10.0 * (1 + s % 2) for s in range(10)}
    assert compare.verdict(noisy, dict(noisy), 0.1, True)[0].startswith("unresolved")
