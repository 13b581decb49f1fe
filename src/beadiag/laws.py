"""Functor-law verification suites for the arc operations.

These pin the sign conventions: the antipode's (-1)^#legs is certified here
rather than assumed.
"""

from __future__ import annotations

import functools

from . import arcs as ar
from .linalg import vaxpy


def _antipode_axiom_holds(v, doubled, j, d, alphabet, gr_act):
    """mu_j(S_j(delta_j v)) = eta_j(eps_j v) in the arc quotient, where
    ``doubled`` is delta_j v and ``gr_act`` acts as ``arcs.gr_act``."""
    lhs = gr_act("mu", j, gr_act("antipode", j, doubled))
    rhs = gr_act("eta", j, gr_act("eps", j, v))
    return ar._is_zero_in_full_space(vaxpy(lhs, -1, rhs), d, alphabet)


def _run_suite(d, alphabet, m, failures_at):
    """The report of a law suite on the spanning set of the class-0 space at
    m arcs.  ``failures_at(v, gr_act)`` yields the failures at v = {key: 1},
    each reported with the key appended; ``gr_act`` is ``arcs.gr_act``
    taking each generator image of a key once per call."""
    space = ar.a_space(alphabet.rank, m, d, alphabet, class0=True)
    gr_act = functools.partial(ar.gr_act, act=functools.cache(ar._act_arc_key))
    failures = [(*f, key) for key in space.span for f in failures_at({key: 1}, gr_act)]
    return {"d": d, "alphabet": alphabet.label, "m": m, "span": len(space.span),
            "failures": failures, "pass": not failures}


def check_gr_laws(d, alphabet, m):
    """All defining relations among the five generators and arc swaps, on
    the spanning set of the class-0 space at m arcs.  Returns a report."""

    def failures_at(v, gr_act):
        tripled = {}  # j: delta_j(delta_j v), for coassociativity and merging
        for j in range(1, m + 1):
            doubled = gr_act("delta", j, v)
            tripled[j] = gr_act("delta", j, doubled)
            if vaxpy(gr_act("eps", j, doubled), -1, v):
                yield ("counit_left", j)
            if vaxpy(gr_act("eps", j + 1, doubled), -1, v):
                yield ("counit_right", j)
            swap = {i: i for i in range(1, m + 2)}
            swap[j], swap[j + 1] = j + 1, j
            if vaxpy(ar.perm_arcs(swap, doubled), -1, doubled):
                yield ("cocommutativity", j)
            if vaxpy(tripled[j], -1, gr_act("delta", j + 1, doubled)):
                yield ("coassociativity", j)
            if vaxpy(gr_act("mu", j, gr_act("eta", j, v)), -1, v):
                yield ("unit_left", j)
            if vaxpy(gr_act("mu", j, gr_act("eta", j + 1, v)), -1, v):
                yield ("unit_right", j)
            if not _antipode_axiom_holds(v, doubled, j, d, alphabet, gr_act):
                yield ("antipode_axiom", j)
        for j, t in tripled.items():
            # associativity of concatenation, on a twice-doubled arc
            lhs = gr_act("mu", j, gr_act("mu", j, t))
            rhs = gr_act("mu", j, gr_act("mu", j + 1, t))
            if vaxpy(lhs, -1, rhs):
                yield ("merge_associativity", j)

    return _run_suite(d, alphabet, m, failures_at)


def check_hopf_antipode(d, alphabet, m):
    """Just the antipode axiom, on the spanning set at m arcs."""
    return _run_suite(d, alphabet, m, lambda v, gr_act: [
        (j,) for j in range(1, m + 1)
        if not _antipode_axiom_holds(v, gr_act("delta", j, v), j, d, alphabet, gr_act)])
