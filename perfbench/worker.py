"""One pass of a library workload, in a fresh interpreter.

Reads a job from stdin: {"tasks": [...], "spans_out": path or null,
"run_id": str}.  Imports ``beadiag`` (timed: a set-up sample), optionally
installs span tracing, runs the tasks in order in this one process, and
prints one JSON line with each task's answer or error and latency, the pass
wall time (first task start to last task end) and the peak resident set.
Answers are checked by the caller.
"""

import json
import resource
import sys
import time
import traceback


def _alphabet(spec):
    from beadiag import words

    return words.alphabet_from_spec(spec)


def _call(fn, args):
    # functions are looked up at call time, so traced runs see the wrappers
    from beadiag import arcs, bridge, catlie, jspaces, laws, reference

    if fn == "j_space":
        d, m = args
        return jspaces.j_space(d, m, _alphabet("trivial")).dimension
    if fn == "alpha_dim":
        d, l = args
        return bridge.alpha_dim(d, _alphabet("trivial"), l)
    if fn == "outer_check":
        verdict, _witness = catlie.outer_check(args[0], _alphabet("trivial"))
        return verdict
    if fn == "b_di_dim":
        return reference.b_di_dim(*args)
    if fn == "a_space_dim":
        n, m, d = args
        return arcs.a_space(n, m, d, _alphabet("trivial")).dim(0)
    if fn == "cross_effect_dim":
        n, d, spec, k = args
        return arcs.cross_effect_dim(arcs.FunctorSpec(n, d, _alphabet(spec), True), k)
    if fn == "nonpoly_witness":
        n, d, k, spec = args
        _key, reduced = arcs.nonpoly_witness(n, d, k, _alphabet(spec))
        return bool(reduced)
    if fn == "verify_bridge":
        d, spec, l = args
        return bridge.verify_bridge(d, _alphabet(spec), l)["pass"]
    if fn == "check_gr_laws":
        d, spec, m = args
        return laws.check_gr_laws(d, _alphabet(spec), m)["pass"]
    raise ValueError("unknown task function %r" % fn)


def main():
    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    import beadiag  # noqa: F401
    import beadiag.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    recorder = None
    if job.get("spans_out"):
        import spans

        recorder = spans.Recorder(job["run_id"])
        spans.install(recorder)
    results = []
    first = last = None
    for task in job["tasks"]:
        answer = error = None
        start = time.perf_counter()
        try:
            answer = _call(task["fn"], task["args"])
        except Exception:  # a raising task is a failed task, recorded with its traceback
            error = traceback.format_exc()
        end = time.perf_counter()
        first = start if first is None else first
        last = end
        results.append({"id": task["id"], "answer": answer, "error": error,
                        "latency_s": end - start})
    if recorder is not None:
        recorder.dump(job["spans_out"], extra={"wall_start": first, "wall_end": last})
    print(json.dumps({
        "import_s": import_s,
        "wall_s": last - first,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "results": results,
    }))


if __name__ == "__main__":
    main()
