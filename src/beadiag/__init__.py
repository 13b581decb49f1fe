"""Exact computations with beaded Jacobi diagram spaces on arcs.

The names below are imported from their layer on first access (PEP 562), so
``import beadiag`` loads no layer and a caller pays only for the layers it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "words": ("BeadAlphabet", "TRIVIAL_ALPHABET", "Word", "alphabet_closure",
              "alphabet_from_spec"),
    "diagrams": ("Diagram", "canonicalize", "diagram_from_json", "diagram_to_json",
                 "enumerate_diagrams", "gauge_at_vertex"),
    "jspaces": ("JSpace", "j_space"),
    "catlie": ("mu_action", "outer_check", "outer_quotient", "perm_action"),
    "arcs": ("ASpace", "FunctorSpec", "a_space", "cross_effect_dim", "gr_act",
             "nonpoly_witness"),
    "bridge": ("alpha_dim", "glue", "verify_bridge", "verify_filtration"),
    "reference": ("a11_reference_dim", "b_d0_reference", "b_di_dim", "partitions",
                  "schur_dim"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_LAYER_OF)


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + layer, __name__), name)
    globals()[name] = value
    return value
