"""Exact-answer benchmark for beadiag.

Usage (from the repository root):

    python3 perfbench/run.py --workload labelled|arcs|queries --seed N
                             --seconds S --trace 0|1

Each pass of a workload runs in fresh processes: a library workload in one
worker interpreter, ``queries`` as one ``python -m beadiag.cli`` process per
request with an empty ``--cache-dir``.  Passes repeat until ``--seconds``
have elapsed (at least one).  Every answer is checked against an
independent expected value.  With ``--trace 0`` the last line reports the
end-to-end metrics; with ``--trace 1`` one untraced and one traced pass run,
and the last line reports the per-layer metrics of the traced pass.  The
line before it is the full record (environment, per-pass figures, failures),
which ``compare.py`` reads from the captured output.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
WORK = os.path.join(ROOT, ".perfbench_work")

sys.path[:0] = [SRC, TESTS]

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 12  # half before the passes, half after
PROBE = ("import time; t = time.perf_counter(); import beadiag, beadiag.cli; "
         "print(time.perf_counter() - t)")

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "req_p50_ms": "ms", "req_p95_ms": "ms",
             "peak_rss_mb": "MB"}

# per-layer metrics of a traced pass: function -> the stats reported for it
FUNCTION_STATS = {
    "diagrams.canonicalize": ("calls", "self_s"),
    "diagrams.enumerate_diagrams": ("calls", "self_s", "keys"),
    "arcs.arc_canonicalize": ("calls", "self_s"),
    "arcs.enumerate_arc_diagrams": ("calls", "self_s", "keys"),
    "jspaces.closure": ("calls", "self_s", "seeds", "keys"),
    "jspaces.ihx_relations": ("calls", "self_s", "relations"),
    "jspaces.j_space": ("calls", "self_s"),
    "arcs.arc_closure": ("calls", "self_s", "keys"),
    "arcs.stu_relations": ("calls", "self_s"),
    "arcs.ihx_relations_arc": ("calls", "self_s"),
    "arcs.a_space": ("calls", "self_s"),
    "arcs.ASpace.dim": ("calls", "self_s"),
    "linalg.echelonize": ("calls", "self_s", "vectors", "rank"),
    "linalg.quotient_dim": ("calls", "self_s"),
    "catlie.mu_transform": ("calls", "self_s"),
    "catlie.perm_action": ("calls", "self_s"),
    "bridge.coinvariant_dim": ("calls", "self_s"),
    "bridge.verify_bridge": ("calls", "self_s"),
    "bridge.glue_vector": ("calls", "self_s"),
    "arcs.gr_act": ("calls", "self_s"),
    "laws.check_gr_laws": ("self_s",),
    "cache.get": ("calls", "hits", "self_s", "bytes"),
    "cache.put": ("calls", "self_s", "bytes"),
    "cli.main": ("self_s",),
    "reference.partitions": ("self_s",),
    "reference.schur_dim": ("self_s",),
    "reference.passi_sigma": ("self_s",),
    "reference.a11_reference_dim": ("self_s",),
    "reference.b_di_dim": ("self_s",),
    "reference.b_d0_reference": ("self_s",),
}
RATIOS = {
    "linalg.echelonize.rank_per_vector": ("linalg.echelonize.rank", "linalg.echelonize.vectors"),
    "jspaces.ihx_relations.calls_per_closure_key": ("jspaces.ihx_relations.calls",
                                                    "jspaces.closure.keys"),
    "diagrams.canonicalize.calls_per_enumerated_key": ("diagrams.canonicalize.calls",
                                                       "diagrams.enumerate_diagrams.keys"),
}
TRACE_STATS = ("cli.import_s", "cli.process_s", "trace.wall_s", "trace.untraced_wall_s",
               "trace.overhead_s", "trace.outside_s", "trace.spans")


def _unit(name):
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    if stat == "bytes":
        return "bytes"
    if "_per_" in stat:
        return "1"
    return "count"


def per_layer_names():
    """Every per-layer metric, in report order."""
    names = ["%s.%s" % (fn, stat) for fn, stats in FUNCTION_STATS.items() for stat in stats]
    names += ["%s.%s" % (layer, stat) for layer in spans.LAYERS for stat in ("calls", "self_s")]
    return names + list(RATIOS) + list(TRACE_STATS)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def _run(argv, env, stdin=None):
    """Run a child to completion: (returncode, stdout, stderr, seconds)."""
    start = time.perf_counter()
    proc = subprocess.run(argv, input=stdin, capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def setup_samples(env, count):
    out = []
    for _ in range(count):
        rc, stdout, stderr, _s = _run([sys.executable, "-c", PROBE], env)
        if rc != 0:
            raise RuntimeError("importing beadiag failed: %s" % stderr.strip()[-300:])
        out.append(float(stdout))
    return out


# ---------------------------------------------------------------------------
# passes


def library_pass(tasks, env, spans_out=None, run_id=""):
    job = json.dumps({"tasks": tasks, "spans_out": spans_out, "run_id": run_id})
    rc, stdout, stderr, _s = _run([sys.executable, os.path.join(HERE, "worker.py")], env, job)
    if rc != 0 or not stdout.strip():
        raise RuntimeError("worker exited %d: %s" % (rc, stderr.strip()[-500:]))
    res = json.loads(stdout.strip().splitlines()[-1])
    failures = []
    for task, got in zip(tasks, res["results"]):
        reason = workloads.check_task(task, got["answer"], got["error"])
        if reason:
            failures.append({"id": task["id"], "reason": reason})
    if "Traceback" in stderr:
        failures.append({"id": "worker", "reason": "traceback on stderr"})
    return {
        "wall_s": res["wall_s"],
        "latencies_s": [r["latency_s"] for r in res["results"]],
        "import_s": [res["import_s"]],
        "peak_rss_mb": res["peak_rss_mb"],
        "attempted": len(tasks),
        "failures": failures,
    }


def queries_pass(requests, env, work, traced=False, run_id=""):
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work)
    latencies, failures, span_files = [], [], []
    first = last = None
    for i, req in enumerate(requests):
        if traced:
            out = os.path.join(work, "req-%d.spans" % i)
            span_files.append(out)
            argv = [sys.executable, os.path.join(HERE, "launcher.py"), out,
                    "%s-%d" % (run_id, i)]
        else:
            argv = [sys.executable, "-m", "beadiag.cli"]
        argv += ["--cache-dir", cache_dir] + req["argv"]
        start = time.perf_counter()
        rc, stdout, stderr, seconds = _run(argv, env, req["stdin"])
        first = start if first is None else first
        last = start + seconds
        latencies.append(seconds)
        reason = workloads.check_request(req, rc, stdout, stderr)
        if reason:
            failures.append({"id": req["id"], "reason": reason})
    shutil.rmtree(cache_dir)
    return {
        "wall_s": last - first,
        "latencies_s": latencies,
        "import_s": [],
        # the largest child so far: CLI requests dominate the import probes
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "attempted": len(requests),
        "failures": failures,
        "span_files": span_files,
    }


def run_pass(workload, plan, env, work, spans_out=None, run_id=""):
    if workload == "queries":
        return queries_pass(plan, env, work, traced=spans_out is not None, run_id=run_id)
    return library_pass(plan, env, spans_out, run_id)


# ---------------------------------------------------------------------------
# metrics


def percentile(values, q):
    """q-th percentile, interpolated between the nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def request_latencies_ms(workload, passes):
    """Per-request latencies: one per CLI process on ``queries``.  A library
    workload's client makes one request per pass, for all of its answers."""
    if workload == "queries":
        return [x * 1000.0 for p in passes for x in p["latencies_s"]]
    return [p["wall_s"] * 1000.0 for p in passes]


def end_to_end(workload, passes, setup):
    latencies = request_latencies_ms(workload, passes)
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setup + [x for p in passes for x in p["import_s"]]),
        "req_p50_ms": statistics.median(latencies),
        "req_p95_ms": percentile(latencies, 95),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }


def layer_breakdown(workload, traced_pass, spans_out):
    """Per-function (calls, self seconds) and counts of a traced pass, with
    the time outside every span and, for queries, the per-process time."""
    stats, counts = {}, {}
    extra = {"cli.import_s": 0.0, "cli.process_s": 0.0, "trace.spans": 0}
    files = traced_pass.get("span_files") or [spans_out]
    top_total = 0.0
    for i, path in enumerate(files):
        header, columns = spans.load(path)
        s, top = spans.self_times(header["names"], columns)
        for name, (calls, self_s) in s.items():
            c0, s0 = stats.get(name, (0, 0.0))
            stats[name] = (c0 + calls, s0 + self_s)
        for key, value in header["counts"].items():
            counts[key] = counts.get(key, 0) + value
        extra["trace.spans"] += header["n"]
        if workload == "queries":
            extra["cli.import_s"] += header["extra"]["import_s"]
            extra["cli.process_s"] += traced_pass["latencies_s"][i] - top
            top_total += traced_pass["latencies_s"][i]
        else:
            top_total += top
    extra["trace.outside_s"] = traced_pass["wall_s"] - top_total
    return stats, counts, extra


def per_layer(stats, counts, extra, traced_wall, untraced_wall):
    metrics = {}
    for fn, wanted in FUNCTION_STATS.items():
        calls, self_s = stats.get(fn, (0, 0.0))
        for stat in wanted:
            key = "%s.%s" % (fn, stat)
            metrics[key] = {"calls": calls, "self_s": self_s}.get(stat, counts.get(key, 0))
    for layer in spans.LAYERS:
        mine = [v for name, v in stats.items() if name.split(".", 1)[0] == layer]
        metrics[layer + ".calls"] = sum(c for c, _s in mine)
        metrics[layer + ".self_s"] = sum(s for _c, s in mine)
    for name, (num, den) in RATIOS.items():
        metrics[name] = metrics[num] / metrics[den] if metrics[den] else 0.0
    metrics.update(extra)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics


def accounted(stats, extra):
    """Self time of every span, plus the per-process and outside time."""
    return (sum(s for _c, s in stats.values()) + extra["cli.process_s"]
            + extra["trace.outside_s"])


# ---------------------------------------------------------------------------
# environment


def git_sha():
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def src_digest():
    """sha256 over the package sources, to identify the code without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "beadiag")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def environment(args):
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "loadavg_start": os.getloadavg()[0],
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def traced_metrics(workload, plan, env, work, seed, record):
    """One untraced and one traced pass; the per-layer metrics of the
    traced one, checked to add up to its wall time."""
    plain = run_pass(workload, plan, env, work)
    spans_out = os.path.join(work, "pass.spans")
    traced = run_pass(workload, plan, env, work, spans_out, "seed%d" % seed)
    stats, counts, extra = layer_breakdown(workload, traced, spans_out)
    metrics = per_layer(stats, counts, extra, traced["wall_s"], plain["wall_s"])
    gap = abs(accounted(stats, extra) - traced["wall_s"])
    if gap > 1e-3:
        traced["failures"].append({"id": "trace", "reason": "self times miss %.6f s" % gap})
    record["functions"] = {name: {"calls": c, "self_s": s} for name, (c, s)
                           in sorted(stats.items(), key=lambda kv: -kv[1][1])}
    record["counts"] = counts
    record["trace_overhead_s"] = metrics["trace.overhead_s"]
    units = {name: _unit(name) for name in per_layer_names()}
    return [plain, traced], metrics, units


def measure(args, env, work):
    """Run the workload; returns (full record, result line)."""
    record = {"env": environment(args)}
    plan = workloads.generate(args.workload, args.seed)
    if args.trace:
        passes, metrics, units = traced_metrics(args.workload, plan, env, work, args.seed,
                                                record)
    else:
        setup = setup_samples(env, SETUP_PROBES // 2)
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(args.workload, plan, env, work))
        setup += setup_samples(env, SETUP_PROBES - SETUP_PROBES // 2)
        metrics, units = end_to_end(args.workload, passes, setup), E2E_UNITS
        record["req_samples"] = len(request_latencies_ms(args.workload, passes))
        record["setup_samples_s"] = setup
    if args.workload != "queries":
        record["task_latency_s"] = {task["id"]: passes[0]["latencies_s"][i]
                                    for i, task in enumerate(plan)}
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    record["passes"] = [{"wall_s": p["wall_s"], "attempted": p["attempted"],
                         "failed": len(p["failures"])} for p in passes]
    record["failures"] = failures[:20]
    record["fail_ratio"] = len(failures) / attempted
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record["result"] = result
    return record, result


def main(argv=None):
    args = parse_args(argv)
    missing = [p for p in (os.path.join(SRC, "beadiag", "cli.py"),
                           os.path.join(TESTS, "move_fuzzer.py")) if not os.path.isfile(p)]
    if missing:
        print("error: run from a beadiag checkout; missing %s" % ", ".join(missing),
              file=sys.stderr)
        return 2
    env = child_env()
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        record, result = measure(args, env, work)
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run is using it
    for f in record["failures"]:
        print("FAIL %s: %s" % (f["id"], f["reason"]))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
