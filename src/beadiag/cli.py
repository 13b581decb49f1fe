"""Command-line driver: dimension queries, verification suites, enumeration,
canonical forms, and reference values, with JSON/CSV reporting and an
optional on-disk cache of computed spaces.  Each subcommand runs one
function that returns its report's own fields; ``main`` prints the report."""

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


def _dim_j(args):
    from .jspaces import j_space  # command-local: only the layers this command runs
    space = j_space(args.d, args.m, args.alphabet)
    return {"d": args.d, "m": args.m, "alphabet": args.alphabet.label,
            "dim": space.dimension, "span_size": len(space.span),
            "relation_rank": space.relations.rank}


def _dim_a(args):
    from . import arcs as ar  # command-local: only the layers this command runs
    space = ar.a_space(args.n, args.m, args.d, args.alphabet, class0=args.class0)
    return {"n": args.n, "m": args.m, "d": args.d, "alphabet": args.alphabet.label,
            "class0": args.class0, "min_trivalent": args.min_trivalent,
            "dim": space.dim(args.min_trivalent), "span_size": len(space.span)}


def _outer_check(args):
    from . import catlie as cl  # command-local: only the layers this command runs
    verdict, witness = cl.outer_check(args.d, args.alphabet)
    return {"d": args.d, "alphabet": args.alphabet.label, "outer": verdict,
            "witness": _witness_json(witness)}


def _cross_effect(args):
    from . import arcs as ar  # command-local: only the layers this command runs
    spec = ar.FunctorSpec(n=args.n, d=args.d, alphabet=args.alphabet, class0=args.class0)
    return {"functor": args.functor, "n": args.n, "d": args.d, "k": args.k,
            "alphabet": args.alphabet.label, "class0": args.class0,
            "dim": ar.cross_effect_dim(spec, args.k)}


def _enumerate(args):
    keys = dg.enumerate_diagrams(args.d, args.m, args.alphabet)
    return {"d": args.d, "m": args.m, "alphabet": args.alphabet.label, "count": len(keys),
            "diagrams": [dg.diagram_to_json(dg.rebuild(k)) for k in keys]}


def _canonical(args):
    try:
        with open(args.file) if args.file else contextlib.nullcontext(sys.stdin) as fh:
            obj = json.load(fh)
    except RecursionError:
        raise ValueError("diagram JSON is nested too deeply") from None
    key, sign = dg.canonicalize(dg.diagram_from_json(obj))
    if key is dg.ZERO:
        return {"zero": True}
    return {"zero": False, "sign": sign, "canonical": dg.diagram_to_json(dg.rebuild(key))}


def _reference_b_d0(args):
    from . import reference as ref  # command-local: only the layers this command runs
    return {"kind": "b_d0", "d": args.d, "m": args.m,
            "dim": ref.b_d0_reference(args.d, args.m)}


def _reference_a11(args):
    from . import reference as ref  # command-local: only the layers this command runs
    return {"kind": "a11", "alphabet": args.alphabet.label, "m": args.m,
            "dim": ref.a11_reference_dim(args.alphabet, args.m)}


def _verify_bridge(args):
    from . import bridge as br  # command-local: only the layers this suite runs
    return br.verify_bridge(args.d, args.alphabet, args.l, seed=args.seed, sample=args.sample)


def _verify_filtration(args):
    from . import bridge as br  # command-local: only the layers this suite runs
    return {"d": args.d, "alphabet": args.alphabet.label, "l": args.l, "t": args.t,
            "pass": br.verify_filtration(args.d, args.alphabet, args.l, args.t)}


def _verify_a11(args):
    from . import arcs as ar  # command-local: only the layers this suite runs
    from . import reference as ref  # command-local: only the layers this suite runs
    lhs = ref.a11_reference_dim(args.alphabet, args.m)
    rhs = ar.a_space(args.alphabet.rank, args.m, 1, args.alphabet, class0=True).dim(0)
    return {"alphabet": args.alphabet.label, "m": args.m, "reference_dim": lhs,
            "diagram_dim": rhs, "pass": lhs == rhs}


def _verify_b_d0(args):
    from . import reference as ref  # command-local: only the layers this suite runs
    lhs = ref.b_d0_reference(args.d, args.m)
    rhs = ref.b_di_dim(args.d, 0, args.m)
    return {"d": args.d, "m": args.m, "schur_dim": lhs, "diagram_dim": rhs, "pass": lhs == rhs}


def _verify_hopf_axioms(args):
    from . import laws  # command-local: only the layers this suite runs
    return laws.check_hopf_antipode(args.d, args.alphabet, args.m)


def _verify_gr_laws(args):
    from . import laws  # command-local: only the layers this suite runs
    return laws.check_gr_laws(args.d, args.alphabet, args.m)


def _add_options(p, names):
    """Add the options named in ``names``, in order: ``alphabet``, or a
    required integer such as ``d``."""
    for name in names.split():
        if name == "alphabet":
            p.add_argument("--alphabet", default="trivial", help="'trivial' or 'gen:n:depth'")
        else:
            p.add_argument("--" + name, type=int, required=True)


def _add_class0(p, class0_help=None, full_help=None):
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--class0", dest="class0", action="store_true", help=class0_help)
    grp.add_argument("--full", dest="class0", action="store_false", help=full_help)
    p.set_defaults(class0=True)


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

    def leaf(subparsers, name, func, options, command=None, csv=False, **kwargs):
        # csv: the report also prints as CSV, its field names over its values
        p = subparsers.add_parser(name, parents=[common], **kwargs)
        _add_options(p, options)
        p.set_defaults(func=func, command=command or name, csv=csv)
        return p

    sub = parser.add_subparsers(dest="cmd", required=True)
    leaf(sub, "dim-j", _dim_j, "d m alphabet", csv=True,
         help="dimension of a labelled-diagram space")
    p = leaf(sub, "dim-a", _dim_a, "n m d alphabet", csv=True,
             help="dimension of an arc-diagram space")
    _add_class0(p, "homotopy class 0 (the default)", "full functor (arc beads allowed)")
    p.add_argument("--min-trivalent", type=int, default=0)
    leaf(sub, "outer-check", _outer_check, "d alphabet",
         help="does the summed gluing vanish at all arities")
    p = leaf(sub, "cross-effect", _cross_effect, "", csv=True,
             help="cross-effect dimension of an arc functor")
    p.add_argument("--functor", choices=["a_d"], default="a_d")
    _add_options(p, "n d k alphabet")
    _add_class0(p)
    leaf(sub, "enumerate", _enumerate, "d m alphabet", help="list canonical labelled diagrams")
    p = leaf(sub, "canonical", _canonical, "", help="canonical form of a JSON diagram")
    p.add_argument("--file", help="path to the diagram JSON (default: stdin)")

    p = sub.add_parser("reference", help="closed-form reference dimensions")
    refsub = p.add_subparsers(dest="kind", required=True)
    leaf(refsub, "b_d0", _reference_b_d0, "d m", command="reference")
    leaf(refsub, "a11", _reference_a11, "alphabet m", command="reference")

    p = sub.add_parser("verify", help="verification suites; exit code 0 iff pass")
    vsub = p.add_subparsers(dest="what", required=True)
    p = leaf(vsub, "bridge", _verify_bridge, "d alphabet l", command="verify-bridge")
    p.add_argument("--sample", type=int, default=None,
                   help="cap per-check tuples (seeded); default exhaustive")
    leaf(vsub, "filtration", _verify_filtration, "d alphabet l t", command="verify-filtration")
    leaf(vsub, "a11", _verify_a11, "alphabet m", command="verify-a11")
    leaf(vsub, "b_d0", _verify_b_d0, "d m", command="verify-b_d0")
    leaf(vsub, "hopf-axioms", _verify_hopf_axioms, "d alphabet m", command="verify-hopf-axioms")
    leaf(vsub, "gr-laws", _verify_gr_laws, "d alphabet m", command="verify-gr-laws")
    return parser


def main(argv=None) -> int:
    """Run one command; exit code 0, 1 for a report with ``"pass": False``,
    2 for invalid input (printed as one ``error:`` line on stderr), 141 when
    stdout is closed before the report is written."""
    args = build_parser().parse_args(argv)
    try:
        if args.cache_dir and args.func not in (_canonical, _enumerate):
            # canonical and enumerate build no space, so they leave the cache unloaded
            from . import cache  # command-local: only the layers this command runs

            cache.set_cache_dir(args.cache_dir)
        if "alphabet" in args:
            args.alphabet = alphabet_from_spec(args.alphabet)
        report = args.func(args)
    except (ValueError, OSError) as exc:
        # invalid inputs (diagram JSON, alphabet specs, arities, diverging
        # closures, an unusable cache directory) raise before any output
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.format == "csv" and args.csv:
        text = "%s\n%s" % (",".join(report), ",".join(str(value) for value in report.values()))
    else:
        report.update(command=args.command, schema=REPORT_SCHEMA)
        text = json.dumps(report, sort_keys=True, indent=2, default=str)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader has gone; what is left unflushed goes to devnull at exit
        # (the note on SIGPIPE in the docs of the signal module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 1 if report.get("pass") is False else 0


if __name__ == "__main__":
    sys.exit(main())
