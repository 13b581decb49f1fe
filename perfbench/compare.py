"""Compare two result sets of the benchmark (parent vs change).

Usage: python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are files, or directories of files, holding the captured
output of ``run.py`` runs; the record lines (``{"record": ...}``) are read.  For each workload and end-to-end metric it
prints each side's median and quartiles, the pairs won by the change
(pairs match on seed), the ratio with its base, and a verdict against the
bound in BENCHMARK.json.  A metric whose spread on either side is wider
than its bound is "unresolved" unless every change run beats every base
run.  Traced records are compared count by count; their times come from
one run per side and are not compared.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_records(path):
    files = [path]
    if os.path.isdir(path):
        files = [os.path.join(path, n) for n in sorted(os.listdir(path))]
    out = []
    for name in files:
        with open(name) as fh:
            for line in fh:
                if line.startswith('{"record"'):
                    out.append(json.loads(line)["record"])
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def by_seed(records, name):
    return {r["env"]["seed"]: r["result"]["metrics"][name]["value"] for r in records}


def verdict(base, change, bound, lower_better):
    """(verdict, pairs won, pairs) for two lists of values keyed by seed."""
    b, c = list(base.values()), list(change.values())
    sign = 1 if lower_better else -1
    bq1, bmed, bq3 = quartiles(b)
    cq1, cmed, cq3 = quartiles(c)
    seeds = sorted(set(base) & set(change))
    won = sum(1 for s in seeds if sign * (change[s] - base[s]) < 0)
    all_better = max(sign * x for x in c) < min(sign * x for x in b)
    spread = max((bq3 - bq1) / bmed if bmed else 0.0, (cq3 - cq1) / cmed if cmed else 0.0)
    worse = sign * (cmed - bmed) / bmed if bmed else 0.0
    if all_better:
        return "better (every run)", won, len(seeds)
    if spread > bound:
        return "unresolved (spread %.3f > bound %.3f)" % (spread, bound), won, len(seeds)
    if worse > bound:
        return "REGRESSION (worse by %.3f > bound %.3f)" % (worse, bound), won, len(seeds)
    if seeds and won >= 0.9 * len(seeds) and abs(cmed - bmed) > bq3 - bq1:
        return "better", won, len(seeds)
    return "no regression (within bound)", won, len(seeds)


def _fmt(x):
    return "%.4g" % x


def plain_lines(b_plain, c_plain, bench):
    """Failure ratios, then one line per end-to-end metric."""
    lines = []
    for recs, side in ((b_plain, "base"), (c_plain, "change")):
        attempted = sum(r["result"]["attempted"] for r in recs)
        failed = sum(r["result"]["failed"] for r in recs)
        lines.append("  %-6s fail ratio %d/%d" % (side, failed, attempted))
    for metric in bench["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        b, c = by_seed(b_plain, name), by_seed(c_plain, name)
        text, won, pairs = verdict(b, c, metric["bound"], metric["better"] == "lower")
        bq1, bmed, bq3 = quartiles(list(b.values()))
        cq1, cmed, cq3 = quartiles(list(c.values()))
        lines.append(
            "  %-12s base %s [%s, %s] change %s [%s, %s] %s; ratio %.3f (base %s %s);"
            " won %d/%d; %s" % (
                name, _fmt(bmed), _fmt(bq1), _fmt(bq3), _fmt(cmed), _fmt(cq1), _fmt(cq3),
                unit, cmed / bmed, _fmt(bmed), unit, won, pairs, text))
    return lines


def traced_lines(b_traced, c_traced):
    """Counts of the first traced record per side that differ."""
    lines = ["  traced counts that differ (first traced record per side):"]
    bm, cm = b_traced["result"]["metrics"], c_traced["result"]["metrics"]
    for name, b_metric in bm.items():
        bv, cv = b_metric["value"], cm.get(name, {}).get("value")
        if b_metric["unit"] != "s" and cv is not None and bv != cv:
            ratio = "%.3f" % (cv / bv) if bv else "n/a"
            lines.append("    %-50s %s -> %s (ratio %s, base %s)" % (
                name, _fmt(bv), _fmt(cv), ratio, _fmt(bv)))
    return lines


def compare(base, change, bench):
    lines = []
    for workload in (w["name"] for w in bench["workloads"]):
        sides = []
        for records in (base, change):
            mine = [r for r in records if r["env"]["workload"] == workload]
            sides.append(([r for r in mine if not r["env"]["trace"]],
                          [r for r in mine if r["env"]["trace"]]))
        (b_plain, b_traced), (c_plain, c_traced) = sides
        lines.append("== %s (untraced runs: base %d, change %d)" % (
            workload, len(b_plain), len(c_plain)))
        if b_plain and c_plain:
            lines += plain_lines(b_plain, c_plain, bench)
        if b_traced and c_traced:
            lines += traced_lines(b_traced[0], c_traced[0])
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    base, change = load_records(argv[0]), load_records(argv[1])
    print("\n".join(compare(base, change, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
