"""Command-line driver: dimension queries, verification suites, enumeration,
canonical forms, and reference values, with JSON/CSV reporting and an
optional on-disk cache of computed spaces."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

# Each command imports the layers it runs, so a request loads only those
# (canonical and enumerate need just these two).
from . import diagrams as dg
from .words import alphabet_from_spec


REPORT_SCHEMA = 1


def _emit(report, fmt, csv_fields=None):
    if fmt == "csv" and csv_fields:
        print(",".join(csv_fields))
        print(",".join(str(report[f]) for f in csv_fields))
    else:
        report.setdefault("schema", REPORT_SCHEMA)
        print(json.dumps(report, sort_keys=True, indent=2, default=str))


def _witness_json(witness):
    if witness is None:
        return None
    k, source_key, image = witness
    return {
        "arity": k + 1,
        "source": dg.diagram_to_json(dg.rebuild(source_key)),
        "image": [
            {"coefficient": str(c), "diagram": dg.diagram_to_json(dg.rebuild(key))}
            for key, c in sorted(image.items())
        ],
    }


def cmd_dim_j(args, fmt):
    from .jspaces import j_space  # command-local: only the layers this command runs
    alphabet = alphabet_from_spec(args.alphabet)
    space = j_space(args.d, args.m, alphabet)
    report = {
        "command": "dim-j",
        "d": args.d,
        "m": args.m,
        "alphabet": alphabet.label,
        "dim": space.dimension,
        "span_size": len(space.span),
        "relation_rank": space.relations.rank,
    }
    _emit(report, fmt, ["d", "m", "alphabet", "dim", "span_size", "relation_rank"])
    return 0


def cmd_dim_a(args, fmt):
    from . import arcs as ar  # command-local: only the layers this command runs
    alphabet = alphabet_from_spec(args.alphabet)
    space = ar.a_space(args.n, args.m, args.d, alphabet, class0=args.class0)
    report = {
        "command": "dim-a",
        "n": args.n,
        "m": args.m,
        "d": args.d,
        "alphabet": alphabet.label,
        "class0": args.class0,
        "min_trivalent": args.min_trivalent,
        "dim": space.dim(args.min_trivalent),
        "span_size": len(space.span),
    }
    _emit(report, fmt, ["n", "m", "d", "alphabet", "class0", "min_trivalent", "dim", "span_size"])
    return 0


def cmd_outer_check(args, fmt):
    from . import catlie as cl  # command-local: only the layers this command runs
    alphabet = alphabet_from_spec(args.alphabet)
    verdict, witness = cl.outer_check(args.d, alphabet)
    report = {
        "command": "outer-check",
        "d": args.d,
        "alphabet": alphabet.label,
        "outer": verdict,
        "witness": _witness_json(witness),
    }
    _emit(report, fmt)
    return 0


def cmd_cross_effect(args, fmt):
    from . import arcs as ar  # command-local: only the layers this command runs
    alphabet = alphabet_from_spec(args.alphabet)
    spec = ar.FunctorSpec(n=args.n, d=args.d, alphabet=alphabet, class0=args.class0)
    dim = ar.cross_effect_dim(spec, args.k)
    report = {
        "command": "cross-effect",
        "functor": args.functor,
        "n": args.n,
        "d": args.d,
        "k": args.k,
        "alphabet": alphabet.label,
        "class0": args.class0,
        "dim": dim,
    }
    _emit(report, fmt, ["functor", "n", "d", "k", "alphabet", "class0", "dim"])
    return 0


def cmd_enumerate(args, fmt):
    alphabet = alphabet_from_spec(args.alphabet)
    keys = dg.enumerate_diagrams(args.d, args.m, alphabet)
    report = {
        "command": "enumerate",
        "d": args.d,
        "m": args.m,
        "alphabet": alphabet.label,
        "count": len(keys),
        "diagrams": [dg.diagram_to_json(dg.rebuild(k)) for k in keys],
    }
    _emit(report, fmt)
    return 0


def cmd_canonical(args, fmt):
    try:
        with open(args.file) if args.file else contextlib.nullcontext(sys.stdin) as fh:
            obj = json.load(fh)
    except RecursionError:
        raise ValueError("diagram JSON is nested too deeply") from None
    dia = dg.diagram_from_json(obj)
    key, sign = dg.canonicalize(dia)
    report = {"command": "canonical"}
    if key is dg.ZERO:
        report["zero"] = True
    else:
        report["zero"] = False
        report["sign"] = sign
        report["canonical"] = dg.diagram_to_json(dg.rebuild(key))
    _emit(report, fmt)
    return 0


def cmd_reference(args, fmt):
    from . import reference as ref  # command-local: only the layers this command runs
    if args.kind == "b_d0":
        value = ref.b_d0_reference(args.d, args.m)
        report = {"command": "reference", "kind": "b_d0", "d": args.d, "m": args.m, "dim": value}
    else:
        alphabet = alphabet_from_spec(args.alphabet)
        value = ref.a11_reference_dim(alphabet, args.m)
        report = {
            "command": "reference",
            "kind": "a11",
            "alphabet": alphabet.label,
            "m": args.m,
            "dim": value,
        }
    _emit(report, fmt)
    return 0


def cmd_verify(args, fmt):
    ok = True
    if args.what == "bridge":
        from . import bridge as br  # command-local: only the layers this suite runs
        alphabet = alphabet_from_spec(args.alphabet)
        report = br.verify_bridge(args.d, alphabet, args.l, seed=args.seed, sample=args.sample)
        ok = report["pass"]
        report["command"] = "verify-bridge"
    elif args.what == "filtration":
        from . import bridge as br  # command-local: only the layers this suite runs
        alphabet = alphabet_from_spec(args.alphabet)
        ok = br.verify_filtration(args.d, alphabet, args.l, args.t)
        report = {
            "command": "verify-filtration",
            "d": args.d,
            "alphabet": alphabet.label,
            "l": args.l,
            "t": args.t,
            "pass": ok,
        }
    elif args.what == "a11":
        from . import arcs as ar  # command-local: only the layers this suite runs
        from . import reference as ref  # command-local: only the layers this suite runs
        alphabet = alphabet_from_spec(args.alphabet)
        lhs = ref.a11_reference_dim(alphabet, args.m)
        rhs = ar.a_space(alphabet.rank, args.m, 1, alphabet, class0=True).dim(0)
        ok = lhs == rhs
        report = {
            "command": "verify-a11",
            "alphabet": alphabet.label,
            "m": args.m,
            "reference_dim": lhs,
            "diagram_dim": rhs,
            "pass": ok,
        }
    elif args.what == "b_d0":
        from . import reference as ref  # command-local: only the layers this suite runs
        lhs = ref.b_d0_reference(args.d, args.m)
        rhs = ref.b_di_dim(args.d, 0, args.m)
        ok = lhs == rhs
        report = {
            "command": "verify-b_d0",
            "d": args.d,
            "m": args.m,
            "schur_dim": lhs,
            "diagram_dim": rhs,
            "pass": ok,
        }
    elif args.what == "hopf-axioms":
        from . import laws  # command-local: only the layers this suite runs
        alphabet = alphabet_from_spec(args.alphabet)
        report = laws.check_hopf_antipode(args.d, alphabet, args.m)
        ok = report["pass"]
        report["command"] = "verify-hopf-axioms"
    elif args.what == "gr-laws":
        from . import laws  # command-local: only the layers this suite runs
        alphabet = alphabet_from_spec(args.alphabet)
        report = laws.check_gr_laws(args.d, alphabet, args.m)
        ok = report["pass"]
        report["command"] = "verify-gr-laws"
    else:
        raise SystemExit(2)
    _emit(report, fmt)
    return 0 if ok else 1


def _add_alphabet(p):
    p.add_argument("--alphabet", default="trivial", help="'trivial' or 'gen:n:depth'")


def _common_options():
    # accepted before or after the subcommand; SUPPRESS keeps the leaf from
    # clobbering a value parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cache-dir", default=argparse.SUPPRESS)
    common.add_argument("--format", choices=["json", "csv"], default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    return common


def build_parser():
    parser = argparse.ArgumentParser(
        prog="beadiag",
        description="Exact computations with beaded Jacobi diagram spaces on arcs.",
    )
    parser.add_argument("--cache-dir", default=os.environ.get("BEADIAG_CACHE_DIR"))
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--seed", type=int, default=0)
    common = _common_options()
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("dim-j", parents=[common], help="dimension of a labelled-diagram space")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_alphabet(p)
    p.set_defaults(func=cmd_dim_j)

    p = sub.add_parser("dim-a", parents=[common], help="dimension of an arc-diagram space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    _add_alphabet(p)
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--class0", dest="class0", action="store_true",
                     help="homotopy class 0 (the default)")
    grp.add_argument("--full", dest="class0", action="store_false",
                     help="full functor (arc beads allowed)")
    p.add_argument("--min-trivalent", type=int, default=0)
    p.set_defaults(func=cmd_dim_a, class0=True)

    p = sub.add_parser("outer-check", parents=[common], help="does the summed gluing vanish at all arities")
    p.add_argument("--d", type=int, required=True)
    _add_alphabet(p)
    p.set_defaults(func=cmd_outer_check)

    p = sub.add_parser("cross-effect", parents=[common], help="cross-effect dimension of an arc functor")
    p.add_argument("--functor", choices=["a_d"], default="a_d")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_alphabet(p)
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--class0", dest="class0", action="store_true")
    grp.add_argument("--full", dest="class0", action="store_false")
    p.set_defaults(func=cmd_cross_effect, class0=True)

    p = sub.add_parser("enumerate", parents=[common], help="list canonical labelled diagrams")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_alphabet(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("canonical", parents=[common], help="canonical form of a JSON diagram")
    p.add_argument("--file", help="path to the diagram JSON (default: stdin)")
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("reference", help="closed-form reference dimensions")
    refsub = p.add_subparsers(dest="kind", required=True)
    q = refsub.add_parser("b_d0", parents=[common])
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.set_defaults(func=cmd_reference)
    q = refsub.add_parser("a11", parents=[common])
    _add_alphabet(q)
    q.add_argument("--m", type=int, required=True)
    q.set_defaults(func=cmd_reference)

    p = sub.add_parser("verify", help="verification suites; exit code 0 iff pass")
    vsub = p.add_subparsers(dest="what", required=True)
    q = vsub.add_parser("bridge", parents=[common])
    q.add_argument("--d", type=int, required=True)
    _add_alphabet(q)
    q.add_argument("--l", type=int, required=True)
    q.add_argument("--sample", type=int, default=None,
                   help="cap per-check tuples (seeded); default exhaustive")
    q.set_defaults(func=cmd_verify)
    q = vsub.add_parser("filtration", parents=[common])
    q.add_argument("--d", type=int, required=True)
    _add_alphabet(q)
    q.add_argument("--l", type=int, required=True)
    q.add_argument("--t", type=int, required=True)
    q.set_defaults(func=cmd_verify)
    q = vsub.add_parser("a11", parents=[common])
    _add_alphabet(q)
    q.add_argument("--m", type=int, required=True)
    q.set_defaults(func=cmd_verify)
    q = vsub.add_parser("b_d0", parents=[common])
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.set_defaults(func=cmd_verify)
    q = vsub.add_parser("hopf-axioms", parents=[common])
    q.add_argument("--d", type=int, required=True)
    _add_alphabet(q)
    q.add_argument("--m", type=int, required=True)
    q.set_defaults(func=cmd_verify)
    q = vsub.add_parser("gr-laws", parents=[common])
    q.add_argument("--d", type=int, required=True)
    _add_alphabet(q)
    q.add_argument("--m", type=int, required=True)
    q.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cache_dir and args.func not in (cmd_canonical, cmd_enumerate):
        # canonical and enumerate build no space, so they leave the cache unloaded
        from . import cache  # command-local: only the layers this command runs

        cache.set_cache_dir(args.cache_dir)
    try:
        return args.func(args, args.format)
    except (ValueError, OSError) as exc:
        # invalid inputs (diagram JSON, alphabet specs, arities, diverging
        # closures); no partial report has been emitted at this point
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
