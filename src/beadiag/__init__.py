"""Exact computations with beaded Jacobi diagram spaces on arcs."""

from .words import (
    BeadAlphabet,
    TRIVIAL_ALPHABET,
    Word,
    alphabet_closure,
    alphabet_from_spec,
)
from .diagrams import (
    Diagram,
    canonicalize,
    diagram_from_json,
    diagram_to_json,
    enumerate_diagrams,
    gauge_at_vertex,
)
from .jspaces import JSpace, j_space
from .catlie import catlie_basis, mu_action, outer_check, outer_quotient, perm_action
from .arcs import ASpace, FunctorSpec, a_space, cross_effect_dim, gr_act, nonpoly_witness
from .bridge import alpha_dim, cat_ass_basis, glue, verify_bridge, verify_filtration
from .reference import a11_reference_dim, b_d0_reference, b_di_dim, partitions, schur_dim

__version__ = "0.1.0"

__all__ = [
    "ASpace",
    "BeadAlphabet",
    "Diagram",
    "FunctorSpec",
    "JSpace",
    "TRIVIAL_ALPHABET",
    "Word",
    "a11_reference_dim",
    "a_space",
    "alphabet_closure",
    "alphabet_from_spec",
    "alpha_dim",
    "b_d0_reference",
    "b_di_dim",
    "canonicalize",
    "cat_ass_basis",
    "catlie_basis",
    "cross_effect_dim",
    "diagram_from_json",
    "diagram_to_json",
    "enumerate_diagrams",
    "gauge_at_vertex",
    "glue",
    "gr_act",
    "j_space",
    "mu_action",
    "nonpoly_witness",
    "outer_check",
    "outer_quotient",
    "partitions",
    "perm_action",
    "schur_dim",
    "verify_bridge",
    "verify_filtration",
]
