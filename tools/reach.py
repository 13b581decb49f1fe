"""Reach cells of beadiag, each timed in a fresh process.

Usage, from the root of a checkout:

    python3 tools/reach.py --number N                # the quick set, under a minute
    python3 tools/reach.py --number N --expensive    # and the expensive cells
    python3 tools/reach.py --number N --checkout DIR # measure another checkout

Each cell runs in its own ``python3`` process with ``PYTHONHASHSEED=0`` and
``PYTHONPATH`` set to the measured checkout's ``src``, so no space built by
one cell serves another, and no disk cache is read.  The run is appended
to ``BENCH_<N>.json`` at the root of this checkout (``--out`` names another
file): the environment (Python version, ``nproc``, load average at start,
the measured checkout's git sha and a hash of its ``src/beadiag/*.py``) and,
per cell, its answer, the seconds of the call, the seconds of the whole
process and the process's peak RSS.  A cell that runs past its timeout is
killed and recorded with status ``timeout``.  Standard library only.
"""

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = 1

# (name, expression giving the answer, expensive, timeout in seconds)
CELLS = (
    ("j_space(6, 1)", "jspaces.j_space(6, 1, trivial).dimension", False, 120),
    ("alpha_dim(5, trivial, 1)", "bridge.alpha_dim(5, trivial, 1)", False, 120),
    ("alpha_dim(5, trivial, 2)", "bridge.alpha_dim(5, trivial, 2)", False, 120),
    ("a_space(0, 1, 4)", "arcs.a_space(0, 1, 4, trivial).dim()", False, 120),
    ("a_space(0, 2, 4)", "arcs.a_space(0, 2, 4, trivial).dim()", False, 120),
    ("verify_bridge(3, trivial, 3)", "bridge.verify_bridge(3, trivial, 3)['pass']", False, 120),
    ("verify_bridge(4, trivial, 1)", "bridge.verify_bridge(4, trivial, 1)['pass']", False, 120),
    ("verify_bridge(4, trivial, 2)", "bridge.verify_bridge(4, trivial, 2)['pass']", False, 120),
    ("check_gr_laws(3, trivial, 2)", "laws.check_gr_laws(3, trivial, 2)['pass']", False, 120),
    ("alpha_dim(6, trivial, 1)", "bridge.alpha_dim(6, trivial, 1)", True, 600),
    ("a_space(0, 1, 5)", "arcs.a_space(0, 1, 5, trivial).dim()", True, 600),
    ("verify_bridge(5, trivial, 1)", "bridge.verify_bridge(5, trivial, 1)['pass']", True, 600),
    ("a_space(0, 2, 5)", "arcs.a_space(0, 2, 5, trivial).dim()", True, 240),
)

CHILD = """\
import json, resource, sys, time
from beadiag import arcs, bridge, jspaces, laws
from beadiag.words import TRIVIAL_ALPHABET as trivial
start = time.perf_counter()
answer = eval(sys.argv[1])
call_s = time.perf_counter() - start
peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"result": answer, "call_s": call_s, "peak_rss_mb": peak_kib / 1024}))
"""


def git_sha(checkout):
    """The checkout's commit, or None where git cannot tell."""
    try:
        out = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def src_hash(checkout):
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(checkout, "src", "beadiag", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def environment(checkout):
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "git_sha": git_sha(checkout),
        "src_sha256": src_hash(checkout),
    }


def run_cell(checkout, name, expr, timeout):
    """One cell in a fresh process: its record."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(checkout, "src"))
    record = {"cell": name, "status": "ok", "result": None, "call_s": None,
              "process_s": None, "peak_rss_mb": None}
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", CHILD, expr], env=env, cwd=checkout,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        record["status"] = "timeout"
        record["process_s"] = time.perf_counter() - start
        return record
    record["process_s"] = time.perf_counter() - start
    if proc.returncode != 0:
        record["status"] = "error"
        lines = proc.stderr.strip().splitlines()
        record["error"] = lines[-1] if lines else "exit %d" % proc.returncode
        return record
    record.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", required=True, help="the N of BENCH_<N>.json")
    parser.add_argument("--out", help="file to append the run to (default BENCH_<N>.json)")
    parser.add_argument("--checkout", default=ROOT, help="checkout to measure (default this one)")
    parser.add_argument("--expensive", action="store_true", help="also run the expensive cells")
    parser.add_argument("--cells", nargs="+", metavar="NAME",
                        help="run only these cells, by name, expensive or not")
    args = parser.parse_args(argv)

    names = [c[0] for c in CELLS]
    unknown = sorted(set(args.cells or ()) - set(names))
    if unknown:
        parser.error("unknown cells %s; known: %s" % (unknown, "; ".join(names)))
    chosen = [c for c in CELLS if (c[0] in args.cells if args.cells else args.expensive or not c[2])]
    checkout = os.path.abspath(args.checkout)
    out = args.out or os.path.join(ROOT, "BENCH_%s.json" % args.number)

    run = {"env": environment(checkout), "cells": []}
    for name, expr, expensive, timeout in chosen:
        record = run_cell(checkout, name, expr, timeout)
        record["expensive"] = expensive
        run["cells"].append(record)
        print("%-30s %-7s %-8s call %s s  rss %s MB" % (
            name, record["status"], record["result"],
            "-" if record["call_s"] is None else "%.2f" % record["call_s"],
            "-" if record["peak_rss_mb"] is None else "%.1f" % record["peak_rss_mb"]))

    bench = {"schema": SCHEMA, "number": args.number, "runs": []}
    if os.path.exists(out):
        with open(out) as fh:
            bench = json.load(fh)
    bench["runs"].append(run)
    with open(out, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    return 0 if all(r["status"] == "ok" for r in run["cells"]) else 1


if __name__ == "__main__":
    sys.exit(main())
