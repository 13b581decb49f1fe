"""Functor-law verification suites for the arc operations.

These pin the sign conventions: the antipode's (-1)^#legs is certified here
rather than assumed.
"""

from __future__ import annotations

import functools

from . import arcs as ar
from .linalg import vaxpy


def _antipode_axiom_holds(v, doubled, j, d, alphabet, act=ar._act_arc_key):
    """mu_j(S_j(delta_j v)) = eta_j(eps_j v) in the arc quotient, where
    ``doubled`` is delta_j v; ``act`` as in ``arcs.gr_act``."""
    lhs = ar.gr_act("mu", j, ar.gr_act("antipode", j, doubled, act), act)
    rhs = ar.gr_act("eta", j, ar.gr_act("eps", j, v, act), act)
    return ar._is_zero_in_full_space(vaxpy(lhs, -1, rhs), d, alphabet)


def check_gr_laws(d, alphabet, m):
    """All defining relations among the five generators and arc swaps, on
    the spanning set of the class-0 space at m arcs, taking each generator
    image of a key once per call.  Returns a report."""
    space = ar.a_space(alphabet.rank, m, d, alphabet, class0=True)
    act = functools.cache(ar._act_arc_key)
    gr_act = functools.partial(ar.gr_act, act=act)
    failures = []
    for key in space.span:
        v = {key: 1}
        for j in range(1, m + 1):
            doubled = gr_act("delta", j, v)
            if vaxpy(gr_act("eps", j, doubled), -1, v):
                failures.append(("counit_left", j, key))
            if vaxpy(gr_act("eps", j + 1, doubled), -1, v):
                failures.append(("counit_right", j, key))
            swap = {i: i for i in range(1, m + 2)}
            swap[j], swap[j + 1] = j + 1, j
            if vaxpy(ar.perm_arcs(swap, doubled), -1, doubled):
                failures.append(("cocommutativity", j, key))
            if vaxpy(gr_act("delta", j, doubled), -1, gr_act("delta", j + 1, doubled)):
                failures.append(("coassociativity", j, key))
            if vaxpy(gr_act("mu", j, gr_act("eta", j, v)), -1, v):
                failures.append(("unit_left", j, key))
            if vaxpy(gr_act("mu", j, gr_act("eta", j + 1, v)), -1, v):
                failures.append(("unit_right", j, key))
            if not _antipode_axiom_holds(v, doubled, j, d, alphabet, act):
                failures.append(("antipode_axiom", j, key))
        for j in range(1, m + 1):
            # associativity of concatenation, on a twice-doubled arc
            tripled = gr_act("delta", j, gr_act("delta", j, v))
            lhs = gr_act("mu", j, gr_act("mu", j, tripled))
            rhs = gr_act("mu", j, gr_act("mu", j + 1, tripled))
            if vaxpy(lhs, -1, rhs):
                failures.append(("merge_associativity", j, key))
    return {
        "d": d,
        "alphabet": alphabet.label,
        "m": m,
        "span": len(space.span),
        "failures": failures,
        "pass": not failures,
    }


def check_hopf_antipode(d, alphabet, m):
    """Just the antipode axiom, on the spanning set at m arcs."""
    space = ar.a_space(alphabet.rank, m, d, alphabet, class0=True)
    failures = []
    for key in space.span:
        v = {key: 1}
        for j in range(1, m + 1):
            if not _antipode_axiom_holds(v, ar.gr_act("delta", j, v), j, d, alphabet):
                failures.append((j, key))
    return {
        "d": d,
        "alphabet": alphabet.label,
        "m": m,
        "span": len(space.span),
        "failures": failures,
        "pass": not failures,
    }
