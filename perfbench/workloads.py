"""Seeded inputs of the three workloads, each with its expected answer.

``labelled`` and ``arcs`` are lists of library tasks run in one process;
``queries`` is a list of CLI requests.  The seed only chooses instances and
order: the number of tasks of each kind, and so the total work, is the
same for every seed.  In the library workloads the seed permutes the
space-building tasks among themselves and the tasks that reuse those spaces
among themselves, after them, so each task costs the same whatever the seed.

Expected answers come from ``oracles`` (closed forms, published and pinned
values), from the verify drivers' own ``pass``, and for ``canonical`` from
the key and sign the move fuzzer tracks for the base diagram.
"""

import json
import random

import oracles

WORKLOADS = ("labelled", "arcs", "queries")


def _task(fn, args, expect):
    return {"id": "%s%s" % (fn, tuple(args)), "fn": fn, "args": list(args), "expect": expect}


def _phased(rng, build, reuse):
    rng.shuffle(build)
    rng.shuffle(reuse)
    return build + reuse


def labelled_tasks(seed):
    rng = random.Random(seed)
    build = [_task("j_space", (d, m), oracles.j_dim(d, m))
             for d in range(5) for m in range(2 * d + 1)]
    build.append(_task("j_space", (5, 2), oracles.j_dim(5, 2)))
    reuse = [_task("alpha_dim", (d, 1), oracles.ONE_ARC[d]) for d in range(1, 5)]
    reuse += [_task("outer_check", (d,), True) for d in (3, 4)]
    reuse += [_task("b_di_dim", (2, 0, m), oracles.b_d0(2, m)) for m in (1, 2, 3)]
    return _phased(rng, build, reuse)


def _arc_dim(m, d):
    if d == 1:
        return m * (m + 1) // 2
    if d == 2:
        return oracles.arc_degree_two(m)
    if m == 1:
        return oracles.ONE_ARC[d]
    assert (m, d) == (2, 3)
    return oracles.A_0_2_3


def arcs_tasks(seed):
    rng = random.Random(seed)
    cells = [(m, 1) for m in range(1, 5)] + [(m, 2) for m in range(1, 4)] + [(1, 3), (2, 3)]
    build = [_task("a_space_dim", (0, m, d), _arc_dim(m, d)) for m, d in cells]
    reuse = [
        # the class-0 cross-effects of acceptance criterion 5 vanish
        _task("cross_effect_dim", (0, 1, "trivial", 3), 0),
        _task("cross_effect_dim", (1, 1, "gen:1:1", 3), 0),
        _task("nonpoly_witness", (1, 1, 3, "gen:1:1"), True),
    ]
    reuse += [_task("verify_bridge", (2, "trivial", l), True) for l in (1, 2, 3)]
    reuse += [_task("check_gr_laws", (2, "trivial", m), True) for m in (1, 2, 3)]
    return _phased(rng, build, reuse)


# ---------------------------------------------------------------------------
# queries

CANONICAL_PER_ALPHABET = 70
CANONICAL_CELLS = {
    "gen:1:1": ((1, 1), (1, 2), (2, 2), (2, 3), (2, 4)),
    "gen:2:2": ((1, 1), (1, 2), (2, 4)),
}
MOVES = 8
ASKS = 3  # each cached cell is asked this often: one miss, then hits
# A cell whose every ask, hit or miss, is bound by ASpace.dim re-echelonizing
# 1369 unit vectors.  Its asks plus the three gen:2:3 asks are over 5% of the
# requests, so req_p95_ms lands on them rather than on start-up jitter.
DIM_BOUND_CELL = ("dim-a", "--n", "3", "--m", "2", "--d", "0", "--alphabet", "gen:3:2", "--full")
DIM_BOUND_ASKS = 12


def _request(kind, argv, expect, stdin=None):
    return {"id": " ".join(argv), "kind": kind, "argv": list(argv), "stdin": stdin,
            "expect": expect}


def canonical_requests(rng):
    """Random presentations of enumerated diagrams, made by the move fuzzer's
    local moves; expected: the base diagram's key, and its sign times the
    sign the moves track."""
    from beadiag import diagrams as dg
    from beadiag.words import alphabet_from_spec
    from move_fuzzer import random_move_sequence

    out = []
    for spec, cells in CANONICAL_CELLS.items():
        alphabet = alphabet_from_spec(spec)
        bases = [key for d, m in cells for key in dg.enumerate_diagrams(d, m, alphabet)]
        for i in range(CANONICAL_PER_ALPHABET):
            base = dg.rebuild(rng.choice(bases))
            key, sign = dg.canonicalize(base)
            moved, tracked = random_move_sequence(rng, base, alphabet, moves=MOVES)
            expect = {"zero": False, "sign": tracked * sign,
                      "canonical": dg.diagram_to_json(dg.rebuild(key))}
            stdin = json.dumps(dg.diagram_to_json(moved), sort_keys=True)
            req = _request("canonical", ["canonical"], expect, stdin)
            req["id"] = "canonical %s #%d" % (spec, i)
            out.append(req)
    return out


def _cells():
    """(kind, argv, expected fields) of the non-canonical requests."""
    size = oracles.alphabet_size
    out = []
    for d, m, spec in ((1, 2, "gen:1:1"), (1, 2, "gen:2:2"), (2, 4, "gen:1:1"), (2, 4, "gen:2:1")):
        count = oracles.j_struts(spec, d, m)
        out += [("enumerate", ["enumerate", "--d", str(d), "--m", str(m), "--alphabet", spec],
                 {"count": count})] * ASKS
    for d, m in ((2, 2), (2, 3), (3, 2), (1, 3)):
        out.append(("reference", ["reference", "b_d0", "--d", str(d), "--m", str(m)],
                    {"dim": oracles.b_d0(d, m)}))
    for spec, m in (("gen:1:1", 2), ("gen:2:1", 3), ("trivial", 3), ("gen:1:2", 2)):
        out.append(("reference", ["reference", "a11", "--alphabet", spec, "--m", str(m)],
                    {"dim": oracles.a11(spec, m)}))
    for spec, m in (("gen:1:1", 1), ("gen:1:1", 2), ("gen:1:1", 3), ("trivial", 3), ("gen:2:1", 2)):
        a = oracles.a11(spec, m)
        out.append(("verify", ["verify", "a11", "--alphabet", spec, "--m", str(m)],
                    {"pass": True, "reference_dim": a, "diagram_dim": a}))
    for m in (1, 2, 3):
        b = oracles.b_d0(2, m)
        out.append(("verify", ["verify", "b_d0", "--d", "2", "--m", str(m)],
                    {"pass": True, "schur_dim": b, "diagram_dim": b}))
    for d, m, spec in ((1, 2, "gen:1:1"), (2, 4, "gen:2:1"), (2, 4, "gen:1:1")):
        out += [("dim-j", ["dim-j", "--d", str(d), "--m", str(m), "--alphabet", spec],
                 {"dim": oracles.j_struts(spec, d, m)})] * ASKS
    out += [("dim-j", ["dim-j", "--d", "1", "--m", "3", "--alphabet", "gen:2:2"], {"dim": 0})] * ASKS
    for n, m, spec in ((2, 2, "gen:2:3"), (1, 2, "gen:1:2"), (1, 3, "gen:1:2")):
        argv = ["dim-a", "--n", str(n), "--m", str(m), "--d", "0", "--alphabet", spec, "--full"]
        out += [("dim-a", argv, {"dim": size(spec) ** m})] * ASKS
    for n, m, spec in ((1, 2, "gen:1:1"), (2, 2, "gen:2:1")):
        argv = ["dim-a", "--n", str(n), "--m", str(m), "--d", "1", "--alphabet", spec]
        out += [("dim-a", argv, {"dim": oracles.a11(spec, m)})] * ASKS
    out += [("dim-a", list(DIM_BOUND_CELL), {"dim": size("gen:3:2") ** 2})] * DIM_BOUND_ASKS
    return out


def query_requests(seed):
    rng = random.Random(seed)
    out = canonical_requests(rng)
    out += [_request(kind, argv, expect) for kind, argv, expect in _cells()]
    rng.shuffle(out)
    return out


def generate(workload, seed):
    if workload == "labelled":
        return labelled_tasks(seed)
    if workload == "arcs":
        return arcs_tasks(seed)
    if workload == "queries":
        return query_requests(seed)
    raise ValueError("unknown workload %r" % workload)


# ---------------------------------------------------------------------------
# checking answers


def check_task(task, answer, error):
    """Reason a library task failed, or None."""
    if error is not None:
        return "raised: %s" % error.strip().splitlines()[-1]
    if answer != task["expect"]:
        return "answer %r, expected %r" % (answer, task["expect"])
    return None


def check_request(req, returncode, stdout, stderr):
    """Reason a CLI request failed, or None."""
    if returncode != 0:
        return "exit code %d: %s" % (returncode, stderr.strip()[-200:])
    if "Traceback" in stderr:
        return "traceback on stderr"
    try:
        out = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    for field, value in req["expect"].items():
        if out.get(field) != value:
            return "%s = %r, expected %r" % (field, out.get(field), value)
    if req["kind"] == "enumerate" and len(out.get("diagrams", ())) != out["count"]:
        return "count %d but %d diagrams listed" % (out["count"], len(out["diagrams"]))
    return None
